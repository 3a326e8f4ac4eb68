"""Golden pins of fleet synthesis and of the fleet simulator's output.

Each simulator pin is the sha256 of one campaign's whole output: the
event stream, quarantine days, detection latencies and the corruption
and screening counters.  The pins were recorded from the object-fleet
simulator tick (``list[Machine]`` plus explicit ground truth) and every
test recomputes them on the columnar substrate: builder fleets through
``FleetBuilder.build_columns``, hand-built ``Machine`` fleets through
``FleetColumns.from_machines``.  The fleet pins hash what
``FleetBuilder.build`` produced, recomputed through
``build_columns(n).to_machines()``.

A pin that moves means the simulator or the builder changed its output.
Never regenerate one to make a test pass.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.policy import PolicyConfig
from repro.fleet.columns import FleetColumns
from repro.fleet.machine import Machine
from repro.fleet.population import FleetBuilder, FleetGroundTruth
from repro.fleet.product import DEFAULT_PRODUCTS, CpuProduct
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from repro.silicon.aging import AgingProfile
from repro.silicon.core import Chip, Core
from repro.silicon.defects import StuckBitDefect
from repro.silicon.units import FunctionalUnit

#: ``repro bench build``'s parity fingerprint of the boosted seed-11 fleet
PARITY_FINGERPRINT = (
    "cd01d4e99202ddddc57abdea19735cabef8c6eebe1b201a9d5550305bb847e48"
)


def _scaled(scale):
    return tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * scale)
        for p in DEFAULT_PRODUCTS
    )


def _parity_builder(seed):
    """The ``repro bench build`` parity shape: prevalence ×40."""
    return lambda: FleetBuilder(
        products=_scaled(40.0), seed=seed, deployment_window=(-700.0, 0.0)
    )


def _fig1_builder():
    """``run_fig1``'s shape, small: ×8 prevalence, technology refresh."""
    return FleetBuilder(
        products=_scaled(8.0), seed=42,
        deployment_window=(-800.0, 240.0), technology_refresh=True,
    )


def _e1_builder():
    """``run_incidence``'s shape: paper prevalence, aged fleet."""
    return FleetBuilder(seed=7, deployment_window=(-900.0, 0.0))


PARITY_CONFIG = SimulatorConfig(horizon_days=60.0, warmup_days=0.0)

#: case → (builder factory, machines, config, simulator seed)
BUILDER_CASES = {
    "parity-seed11": (_parity_builder(11), 150, PARITY_CONFIG, 3),
    "parity-seed12": (_parity_builder(12), 150, PARITY_CONFIG, 3),
    "parity-seed13": (_parity_builder(13), 150, PARITY_CONFIG, 3),
    "fig1-small": (
        _fig1_builder, 1500,
        SimulatorConfig(horizon_days=240.0, warmup_days=120.0), 43,
    ),
    "e1-small": (
        _e1_builder, 4000,
        SimulatorConfig(horizon_days=120.0, warmup_days=0.0), 8,
    ),
}


def _bespoke_fleet(n_bad=3, onset_days=0.0, base_rate=1e-4):
    """Two 4-core machines; the first carries ``n_bad`` loud mercurial
    cores (c00..), so machine quarantine is reachable deterministically
    (the fleet of ``tests/test_fleet_simulator.py``)."""
    product = CpuProduct(
        vendor="sim", sku="bespoke-4c", cores_per_machine=4,
        core_prevalence=0.0,
    )
    machines, mercurial, onsets = [], set(), {}
    for m in range(2):
        machine_id = f"m{m:05d}"
        cores = []
        for c in range(4):
            core_id = f"{machine_id}/c{c:02d}"
            defects = ()
            if m == 0 and c < n_bad:
                defects = (
                    StuckBitDefect(
                        f"d/{core_id}", bit=3, base_rate=base_rate,
                        unit=FunctionalUnit.LOAD_STORE,
                        aging=AgingProfile(onset_days=onset_days),
                    ),
                )
                mercurial.add(core_id)
                onsets[core_id] = onset_days
            cores.append(
                Core(
                    core_id, defects=defects,
                    rng=np.random.default_rng(100 + m * 4 + c),
                )
            )
        machines.append(
            Machine(
                machine_id=machine_id, product=product, chip=Chip(cores),
                deploy_day=-60.0,
            )
        )
    truth = FleetGroundTruth(
        mercurial_core_ids=mercurial, onset_days_by_core=onsets
    )
    return machines, truth


def _quiet_config():
    """No human channel, no background noise: the policy path alone."""
    return SimulatorConfig(
        horizon_days=40.0, warmup_days=0.0,
        p_user_surface=0.0, bg_crash_rate=0.0, bg_user_rate=0.0,
        policy=PolicyConfig(
            machine_core_limit=3, max_quarantined_fraction=1.0
        ),
    )


#: case → (``_bespoke_fleet`` kwargs, simulator seed)
BESPOKE_CASES = {
    "bespoke-bad3": (dict(n_bad=3), 5),
    "bespoke-bad2": (dict(n_bad=2), 5),
    "bespoke-bad1": (dict(n_bad=1), 5),
    "bespoke-bad1-onset50": (dict(n_bad=1, onset_days=50.0), 5),
}

#: case → (builder factory, machines) for the fleet-content pins
BUILD_CASES = {
    "build-seed11": (
        lambda: FleetBuilder(
            products=_scaled(40.0), seed=11, deployment_window=(-700.0, 0.0)
        ),
        120,
    ),
    "build-seed5": (
        lambda: FleetBuilder(
            products=_scaled(40.0), seed=5, deployment_window=(-700.0, 0.0)
        ),
        120,
    ),
    "build-seed11-refresh": (
        lambda: FleetBuilder(
            products=_scaled(40.0), seed=11,
            deployment_window=(-800.0, 200.0), technology_refresh=True,
        ),
        120,
    ),
    "build-seed5-refresh": (
        lambda: FleetBuilder(
            products=_scaled(40.0), seed=5,
            deployment_window=(-800.0, 200.0), technology_refresh=True,
        ),
        120,
    ),
}

#: sha256 pins, recorded from the object-fleet simulator and builder
PINS = {
    "parity-seed11": "a82e8381ca91ea063a305bcfb9ae6c41fcb1363a9c91083d702cf733c92d49e8",
    "parity-seed12": "d54b30e5d7320e83fb31ca42ab3bcd7a5acfdade2185f623f67bb864a8e336b8",
    "parity-seed13": "796d779eb24c752b4335be5a00445c3ed6da78ed8ee86a18c318651b52611ba0",
    "fig1-small": "7ab8e3fb0858d8238d544f532da8c4105be2127bb0f8291a489c4e19a661ef99",
    "e1-small": "08fdeba193742d9b4b55cbf397995e4297c0e10b9577cd0f142a5c6eadcc15d4",
    "bespoke-bad3": "f27ac9e3d8895df080de230af76c7cc906b2f8742d183cf44af51485f88c4b57",
    "bespoke-bad2": "ed40ee8b7e8a5b8fb2e175fdbaf3466860d15f00b15446335d9448e43386f0b8",
    "bespoke-bad1": "4f2b2f9928c3aadf7240b1ab711c0e96d5f24b6298e22b0846d599d329a4401b",
    "bespoke-bad1-onset50": "e9588ea71f58bd3e9a396c3788f095faec334f0cc2e8c3b0def9c2fab7cb761d",
    "build-seed11": "6c68579cc1e401509cd5738f7d3918652b6c63721ec8f9648d62a22262589cca",
    "build-seed5": "5773aac2422940aea58f856b27d69d0fdd618aba65a0ce0b8d8177db64b81946",
    "build-seed11-refresh": "fc5edf0038488f9283a3dadeeb1a7e686ca635401e8d01ef5beb216e2a0ddd4c",
    "build-seed5-refresh": "89a71e0416e5c38f865bcba884688e9b1ca591798337f79590ab3e013111aac1",
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _fingerprint(result) -> str:
    """Everything a campaign reports, hashed."""
    return _digest({
        "events": [
            [e.time_days, e.machine_id, e.core_id, str(e.kind),
             str(e.reporter), e.application, e.detail]
            for e in result.events
        ],
        "quarantine_day": sorted(result.quarantine_day.items()),
        "detection_latency_days": sorted(
            result.detection_latency_days.items()
        ),
        "total_corruptions": result.total_corruptions,
        "app_visible_corruptions": result.app_visible_corruptions,
        "screening_ops_spent": result.screening_ops_spent,
    })


def _bench_fingerprint(result) -> str:
    """The ``repro bench build`` parity fingerprint format."""
    payload = {
        "events": [
            (e.time_days, e.machine_id, e.core_id, str(e.kind),
             str(e.reporter), e.detail)
            for e in result.events
        ],
        "quarantined": sorted(result.quarantined_cores),
        "total_corruptions": result.total_corruptions,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _machine_fingerprint(machine):
    """One machine's content, including each mercurial core's first
    defect-RNG draw (pins the per-core seeding)."""
    return [
        machine.machine_id,
        machine.product.sku,
        machine.deploy_day,
        [
            [
                core.core_id,
                core.is_mercurial,
                [repr(d) for d in core.defects],
                int(core.rng.integers(2**63)) if core.is_mercurial else None,
            ]
            for core in machine.cores
        ],
    ]


def _fleet_digest(machines, truth) -> str:
    return _digest({
        "machines": [_machine_fingerprint(m) for m in machines],
        "mercurial": sorted(truth.mercurial_core_ids),
        "onsets": sorted(truth.onset_days_by_core.items()),
    })


@pytest.fixture(scope="module")
def parity_seed11():
    builder, n, config, seed = BUILDER_CASES["parity-seed11"]
    return FleetSimulator(
        builder().build_columns(n), config=config, seed=seed
    ).run()


def test_parity_fingerprint_is_the_bench_constant(parity_seed11):
    assert _bench_fingerprint(parity_seed11) == PARITY_FINGERPRINT


def test_parity_seed11_full_output(parity_seed11):
    assert _fingerprint(parity_seed11) == PINS["parity-seed11"]


@pytest.mark.parametrize(
    "case", [name for name in BUILDER_CASES if name != "parity-seed11"]
)
def test_builder_fleet_campaign(case):
    builder, n, config, seed = BUILDER_CASES[case]
    result = FleetSimulator(
        builder().build_columns(n), config=config, seed=seed
    ).run()
    assert _fingerprint(result) == PINS[case]


@pytest.mark.parametrize("case", list(BESPOKE_CASES))
def test_adapted_machine_fleet_campaign(case):
    kwargs, seed = BESPOKE_CASES[case]
    machines, _ = _bespoke_fleet(**kwargs)
    result = FleetSimulator(
        FleetColumns.from_machines(machines), config=_quiet_config(),
        seed=seed,
    ).run()
    assert _fingerprint(result) == PINS[case]


@pytest.mark.parametrize("case", list(BUILD_CASES))
def test_materialized_fleet_content(case):
    builder, n = BUILD_CASES[case]
    machines, truth = builder().build_columns(n).to_machines()
    assert _fleet_digest(machines, truth) == PINS[case]
