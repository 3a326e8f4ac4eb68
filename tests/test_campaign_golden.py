"""Golden scorecards for the four campaign runners (E15–E18).

Each pin is the sha256 of ``json.dumps(card.to_json(), sort_keys=True)``
for one arm at one seed, recorded from the code before the runners
shared a control loop.  A refactor of the detection → quarantine
plumbing must leave every digest unchanged; a pin is only regenerated
when a change is *meant* to move a scorecard, and says so.

Sizes follow the per-campaign test modules (reduced ticks and units),
so the whole file runs in seconds.
"""

import hashlib
import json

import pytest

from repro.chaos import ChaosSchedule
from repro.mitigation.instrcheck import (
    ARMS,
    InstrCheckCampaign,
    InstrCheckConfig,
    build_instrcheck_fleet,
)
from repro.serving import (
    ScaleConfig,
    ScaleHardening,
    ServeScaleCampaign,
    build_scale_fleet,
)
from repro.serving.campaign import (
    CampaignConfig,
    ServingCampaign,
    build_serving_fleet,
)
from repro.serving.robustness import HardeningConfig
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    build_storage_fleet,
)

SEEDS = (0, 1, 2)

E15_TICKS = 300
E16_TICKS = 200
E16_ONSET_DAYS = 400.0
E17_TICKS = 150
E17_PREVALENCE = 0.2
E18_UNITS = 96
E18_PREVALENCE = 0.25
E18_RATE = 0.33


def _digest(card) -> str:
    blob = json.dumps(card.to_json(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def e15_card(arm: str, seed: int):
    machines, bad_core_id = build_serving_fleet(seed=7)
    hardening = getattr(HardeningConfig, arm)()
    campaign = ServingCampaign(
        machines, CampaignConfig(ticks=E15_TICKS), hardening, seed=seed
    )
    victim = next(
        r.core_id for r in campaign.router.replicas
        if r.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.standard(bad_core_id, victim, E15_TICKS)
    return campaign.run()


def e16_card(arm: str, seed: int):
    machines, bad_core_id = build_storage_fleet(
        onset_days=E16_ONSET_DAYS, seed=7
    )
    campaign = StorageCampaign(
        machines, getattr(StorageProtections, arm)(),
        StorageCampaignConfig(ticks=E16_TICKS), seed=seed,
    )
    victim = next(
        r.core_id for r in campaign.store.replicas
        if r.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.storage_standard(
        bad_core_id, victim, E16_TICKS, onset_age_days=E16_ONSET_DAYS
    )
    return campaign.run()


def e17_card(arm: str, seed: int):
    machines, bad_core_ids = build_scale_fleet(
        prevalence=E17_PREVALENCE, seed=7
    )
    campaign = ServeScaleCampaign(
        machines, ScaleConfig(ticks=E17_TICKS),
        getattr(ScaleHardening, arm)(), seed=seed,
    )
    shards = campaign.cluster.shards
    shard_loss = [r.core_id for r in shards[0].router.replicas]
    storm = [
        r.core_id for r in shards[1].router.replicas
        if r.core_id not in bad_core_ids
    ][:2]
    campaign.chaos = ChaosSchedule.serve_scale(
        bad_core_ids, shard_loss, storm, E17_TICKS
    )
    return campaign.run()


def e18_card(arm: str, seed: int):
    machines, _bad = build_instrcheck_fleet(
        prevalence=E18_PREVALENCE, seed=10
    )
    config = InstrCheckConfig(units=E18_UNITS, sample_rate=E18_RATE)
    return InstrCheckCampaign(machines, arm, config, seed=seed).run()


RUNNERS = {"e15": e15_card, "e16": e16_card, "e17": e17_card, "e18": e18_card}

ARMS_BY_CAMPAIGN = {
    "e15": ("unhardened", "hardened"),
    "e16": ("unprotected", "protected"),
    "e17": ("baseline", "full"),
    "e18": ARMS,
}

GOLDEN: dict[tuple[str, str, int], str] = {
    ("e15", "unhardened", 0): "96d36e4a1b2a96c64e21c19790be722e1684a92f44ffab032304a1a933e9229f",
    ("e15", "unhardened", 1): "e25dbc13c845c9e90aaff920694a9e5841e6d6b89e22d99d45a3a249b10c4e0c",
    ("e15", "unhardened", 2): "5979014b9747d1dbeb877d8342bd99da1bcdc1489a97b5376876f5333f6ffc67",
    ("e15", "hardened", 0): "45f463ba92921a3ecb161c4f64525f8b824e0290c615f55b5f395bc0dc5ac54a",
    ("e15", "hardened", 1): "a603e6d203fd6aa9b46240bc7e45a9f0d6079ddc304c8ff1a844e20a3e90b115",
    ("e15", "hardened", 2): "07c8791f9977e625016217f0e09201ea7a5b4cfb196b5d7b8187b55320022442",
    ("e16", "unprotected", 0): "36703f22d79060bb904d7f9c88495c65b65f0fbd76522e1e5286c5d1f04d7645",
    ("e16", "unprotected", 1): "34434c82f4889cbc79722d272d7ff534e99378bcdb1f0b276a0a0667d21abcf7",
    ("e16", "unprotected", 2): "58ea8ae200fff5cd260b50d68d60d4ea914b8a0d584293b10b1081445d35f3f4",
    ("e16", "protected", 0): "5bc00fc80f9cb9daa4a8407c41b5f95cd612f23a50660e7bd929bf8da1812b63",
    ("e16", "protected", 1): "c73f97085b0cb778a18502efd0e1745050f2d66b1019570bedc6bd4770269f79",
    ("e16", "protected", 2): "f99f62b01b241368489ba1bef7e1493efbd6439a8db122144beed07d2b43018b",
    ("e17", "baseline", 0): "00871d22db8c79c19e5ff8a01fd222dea128374d71d286db205b2ff4a87bb5e0",
    ("e17", "baseline", 1): "6bedd24d53ccb8a974af7b7789e5bed4a0f76359d27c45d38caf799e3b712926",
    ("e17", "baseline", 2): "0ed6ea09316835ab6123e80d01627fcff79a2c760a260c56da03bf09e32c8767",
    ("e17", "full", 0): "bd3c962694eb6f62c0da87a5e788df620d05a4a5e3b84a9b85aa41186cde05ea",
    ("e17", "full", 1): "df79943bd792d8f41713c1ab76d0494827b0c6789d30e5fe0531522d29979fd7",
    ("e17", "full", 2): "f19de2539811c71914408b47bad22cf543aa61b303c6f3e7a9b9815fe57411b1",
    ("e18", "screen", 0): "af6e86664096026c8880cf34f3432ce9ab5f15da1c25bfe47379fadb4a00b92b",
    ("e18", "screen", 1): "d4c62c993f0b51d4ee78aadd5df0966130cf8319741ac3c7fc37938ebfce2e58",
    ("e18", "screen", 2): "3f0fcb9ce1a6f5deae85b3d88a9f30a5d5e8abc9981b56ab57925ff38597a3f4",
    ("e18", "ithica", 0): "7881064956996a8a79e875e7a8039a1a8e55d3202d470cddb798238ae46c51c9",
    ("e18", "ithica", 1): "084e77c1ad19ddcbe05de1e4fdb55153facf0169b9954fb037df3e0e63d4eb0e",
    ("e18", "ithica", 2): "297f14818d0c8f7ef1facf69e994aefcdced844fca635f3bc0210ae02b4afd16",
    ("e18", "reptfd", 0): "f8c41887238e22e9bf19b906f433f04b0336cb809474ea65472f4d6f55e61e47",
    ("e18", "reptfd", 1): "da1be07f372097d4872ffa134ec9256802eef19163ad4b745aa36abbc1124c43",
    ("e18", "reptfd", 2): "ef4eb4b367d5fa617f3cb5490e41c86ddb877f4d4ba02e803bc4509880f674d4",
    ("e18", "meek", 0): "ec805bffc270223d0501fa90e06ff7f55acb3f0955fc464e71b851747ef981df",
    ("e18", "meek", 1): "14485f709ee1b79bc3cd02588b0e345dcf265ea5f6a9b80fe569a21d695987ec",
    ("e18", "meek", 2): "ac39b18f54baed48e740bed141f3d6938bf7914914c8222cbcc934caa08f5454",
    ("e18", "e2e", 0): "5771641589a85967733bedfa3e6f8da3a68531f1028109757e2da1dd87f0a6d3",
    ("e18", "e2e", 1): "e268b9e5b965fea4dc2807e62e95c0a4e850e7e13f2a35ecc7ef49f99923d224",
    ("e18", "e2e", 2): "fd571a8ddfc12d22515c1f39c7898bf485a6aa1b37aafd3a375b6f7d83d435c1",
}

CASES = [
    (campaign, arm, seed)
    for campaign, arms in ARMS_BY_CAMPAIGN.items()
    for arm in arms
    for seed in SEEDS
]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize(
    "campaign,arm,seed", CASES, ids=[f"{c}-{a}-s{s}" for c, a, s in CASES]
)
def test_scorecard_matches_golden(campaign, arm, seed):
    card = RUNNERS[campaign](arm, seed)
    assert _digest(card) == GOLDEN[(campaign, arm, seed)]
