"""Self-tests of the benchmark: tiny workloads, span arithmetic, counters.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny(name: str, seed: int = 0) -> workloads.Outcome:
    prepared = workloads.prepare(name, seed, "tiny")
    return workloads.WORKLOADS[name].measure(prepared)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks_and_repeats(name):
    first, second = _tiny(name), _tiny(name)
    assert first.errors == []
    assert first.work > 0
    assert workloads.digest(first.scorecard) == workloads.digest(
        second.scorecard
    )


def test_seeds_give_different_inputs():
    assert workloads.digest(_tiny("serve-scale", 0).scorecard) != (
        workloads.digest(_tiny("serve-scale", 1).scorecard)
    )


def test_self_time_subtracts_children_and_sums_to_root(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "_clock", lambda: float(next(ticks)))
    recorder = tracing.RECORDER
    recorder.reset()
    leaf = tracing._wrap(lambda: None, "silicon:test_leaf")

    def body():
        leaf()
        leaf()

    outer = tracing._wrap(body, "serving:test_outer")
    # clock: root 0..7, outer 1..6, leaves 2..3 and 4..5
    with recorder.root("measure", "g") as root:
        outer()
    assert root.duration == 7.0
    assert recorder.acc["silicon:test_leaf"] == [2, 2.0, 2.0]
    assert recorder.acc["serving:test_outer"] == [1, 5.0, 3.0]
    assert recorder.acc["other:measure"] == [1, 7.0, 2.0]
    layers = tracing.self_by_layer(recorder.export()["acc"])
    assert layers["silicon"] == 2.0 and layers["serving"] == 3.0
    assert sum(layers.values()) == tracing.root_seconds(
        recorder.export()["acc"]
    ) == 7.0
    assert tracing.check_self_time([]) == []
    recorder.reset()


def test_execute_calls_equal_ops_executed_on_a_healthy_core():
    tracing.install()
    from repro.silicon.core import Core
    from repro.workloads.hashing import crc64

    core = Core("test/c00")
    recorder = tracing.RECORDER
    recorder.reset()
    with recorder.root("measure", "g"):
        crc64(core, bytes(range(64)))
    assert recorder.acc["silicon:Core.execute"][0] == core.ops_executed > 0
    assert recorder.quantity["workloads:crc64"] == 64
    recorder.reset()


def _traced(name: str):
    tracing.install()
    recorder = tracing.RECORDER
    recorder.reset()
    with recorder.root("setup", "g"):
        prepared = workloads.prepare(name, 0, "tiny")
    with recorder.root("measure", "g"):
        outcome = workloads.WORKLOADS[name].measure(prepared)
    return outcome, prepared, recorder.export()


def test_traced_store_counts_equal_the_scorecard_and_outputs_match():
    untraced = _tiny("store-cee")
    outcome, _prepared, exported = _traced("store-cee")
    tracing.RECORDER.reset()
    assert workloads.digest(outcome.scorecard) == workloads.digest(
        untraced.scorecard
    )
    acc, card = exported["acc"], outcome.scorecard
    assert acc["storage:ReplicatedKVStore.put"][0] == card["writes_attempted"]
    assert acc["storage:ReplicatedKVStore.get"][0] == card["reads_attempted"]


def test_layer_metrics_are_the_declared_ones():
    import run

    outcome, _prepared, _exported = _traced("instrcheck")
    outcome.extra["golden"] = (0, 0)
    metrics = tracing.layer_metrics(
        "instrcheck", [(0.0, 1.0, outcome)],
        untraced_wall=1.0, obs_off_wall=1.0,
    )
    tracing.RECORDER.reset()
    assert list(metrics) and set(metrics) == set(run.declared_units(True))
    assert metrics["mitigation.checked_ops"] > 0


def test_traced_serve_counts_equal_the_program_and_outputs_match():
    untraced = _tiny("serve-scale")
    outcome, _prepared, exported = _traced("serve-scale")
    tracing.RECORDER.reset()
    assert workloads.digest(outcome.scorecard) == workloads.digest(
        untraced.scorecard
    )
    acc = exported["acc"]
    assert acc["serving:LoadGenerator.arrivals"][0] == outcome.scorecard["ticks"]
    assert acc["silicon:Core.execute"][0] >= outcome.sim_ops > 0
    assert tracing.check_self_time([]) == []


def test_bench_workers_never_exceed_nproc():
    for n_items in (1, 2, 3, 64):
        assert 1 <= workloads.bench_workers(n_items) <= workloads.nproc()
    assert workloads.bench_workers(1) == 1


def test_fleet_trials_are_worker_invariant():
    prepared = workloads.prepare("fleet-screen", 3, "tiny")
    serial = workloads.run_fleet_screen(prepared, 1)
    fanned = workloads.run_fleet_screen(prepared, 2)
    assert workloads.digest({"t": serial}) == workloads.digest({"t": fanned})
    assert workloads.check_fleet_trials(prepared, fanned) == []


def _child_pids() -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, NotADirectoryError):
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            children.append(int(entry.name))
    return children


def test_no_process_outlives_a_fanned_out_run():
    import run

    prepared = workloads.prepare("fleet-screen", 3, "tiny")
    workloads.run_fleet_screen(prepared, 2)
    run.stop_helper_processes()
    assert _child_pids() == []


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-scale",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
