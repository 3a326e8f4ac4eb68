"""The shared campaign control loop: signals, policy, quarantine, chaos."""

import numpy as np

from repro.chaos import ChaosAction, ChaosKind
from repro.core.events import EventKind
from repro.core.policy import PolicyConfig
from repro.detection.loop import CampaignLoop
from repro.fleet.machine import build_small_fleet
from repro.fleet.scheduler import Task
from repro.obs import names


def _loop(n_machines=2, cores_per_machine=4, **policy):
    machines, _ = build_small_fleet(
        "loop", n_machines, cores_per_machine,
        np.random.default_rng(0), lambda index, core_id: (),
    )
    config = PolicyConfig(max_quarantined_fraction=1.0, **policy)
    loop = CampaignLoop(
        machines, config,
        application="test",
        tick_ms=2.0,
        quarantine_metric=names.SERVING_QUARANTINES_TOTAL,
        quarantine_help="test",
    )
    return loop, machines


def _accuse(loop, core_id, now_ms=0.0):
    loop.emit(now_ms, core_id, EventKind.SCREEN_FAIL, "battery")


class TestEmit:
    def test_events_carry_the_application_and_machine(self):
        loop, _ = _loop()
        loop.emit(86_400_000.0, "m00001/c02", EventKind.APP_REPORT, "x")
        (event,) = list(loop.events)
        assert event.application == "test"
        assert event.machine_id == "m00001"
        assert event.core_id == "m00001/c02"
        assert event.time_days == 1.0

    def test_unattributed_events_name_no_core(self):
        loop, _ = _loop()
        loop.emit(0.0, "m00000/c01", EventKind.CHECKER_LAG_OVERFLOW, "x",
                  attributed=False)
        (event,) = list(loop.events)
        assert event.core_id is None
        assert event.machine_id == "m00000"


class TestPolicy:
    def test_confessed_suspect_is_quarantined_and_taken_offline(self):
        loop, _ = _loop()
        _accuse(loop, "m00000/c01")
        loop.run_policy(5, 10.0, confessed={"m00000/c01"})
        assert loop.quarantine_tick == {"m00000/c01": 5}
        assert not loop.core_by_id["m00000/c01"].online

    def test_machine_quarantine_takes_every_sibling(self):
        loop, machines = _loop(machine_core_limit=2)
        for tick, core_id in enumerate(("m00000/c01", "m00000/c02")):
            _accuse(loop, core_id)
            loop.run_policy(tick, 0.0, confessed={core_id})
        assert loop.policy.quarantined_machines == {"m00000"}
        assert set(loop.quarantine_tick) == set(machines[0].core_ids)
        assert not any(core.online for core in machines[0].cores)
        assert all(core.online for core in machines[1].cores)

    def test_quarantine_is_idempotent(self):
        loop, _ = _loop()
        loop.quarantine("m00000/c00", 3)
        loop.quarantine("m00000/c00", 9)
        assert loop.quarantine_tick == {"m00000/c00": 3}

    def test_spare_core_skips_occupied_and_quarantined_cores(self):
        loop, _ = _loop(n_machines=1, cores_per_machine=3)
        loop.quarantine("m00000/c01", 0)
        spare = loop.spare_core({"m00000/c00"}, Task("spare"))
        assert spare is not None and spare.core_id == "m00000/c02"
        assert loop.spare_core({"m00000/c00", "m00000/c02"}, Task("x")) is None


class TestChaos:
    def test_crash_restores_unless_quarantined(self):
        loop, _ = _loop()
        actions = [
            ChaosAction(0, ChaosKind.CRASH_CORE, "m00000/c00",
                        duration_ticks=2),
            ChaosAction(0, ChaosKind.CRASH_CORE, "m00000/c01",
                        duration_ticks=2),
        ]
        assert loop.apply_chaos(0, actions) == []
        assert not loop.core_by_id["m00000/c00"].online
        loop.quarantine("m00000/c01", 1)
        assert loop.apply_chaos(1, []) == []
        assert loop.apply_chaos(2, []) == ["m00000/c00"]
        assert loop.core_by_id["m00000/c00"].online
        assert not loop.core_by_id["m00000/c01"].online

    def test_traffic_burst_expires(self):
        loop, _ = _loop()
        burst = ChaosAction(0, ChaosKind.TRAFFIC_BURST, None,
                            magnitude=3.0, duration_ticks=2)
        loop.apply_chaos(0, [burst])
        assert loop.burst_multiplier == 3.0
        loop.apply_chaos(1, [])
        assert loop.burst_multiplier == 3.0
        loop.apply_chaos(2, [])
        assert loop.burst_multiplier == 1.0

    def test_activate_defect_ages_the_core(self):
        loop, _ = _loop()
        loop.apply_chaos(0, [
            ChaosAction(0, ChaosKind.ACTIVATE_DEFECT, "m00001/c03",
                        magnitude=400.0),
        ])
        assert loop.core_by_id["m00001/c03"].age_days == 400.0


class TestForensics:
    def test_first_corrupt_tick_and_latency_summary(self):
        loop, _ = _loop()
        core = loop.core_by_id["m00000/c02"]
        loop.note_corruptions(0)
        core.corruptions_induced += 1
        loop.note_corruptions(4)
        core.corruptions_induced += 1
        loop.note_corruptions(6)
        _accuse(loop, "m00000/c02", now_ms=12.0)
        loop.run_policy(7, 14.0, confessed={"m00000/c02"})
        first, latency = loop.forensics()
        assert first == {"m00000/c02": 4}
        assert "m00000/c02" in latency
