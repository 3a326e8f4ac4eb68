"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-scale --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` times untraced runs and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` is the separate traced pass: a
warm-up run and two obs-on/obs-off pairs of untraced runs, then traced
runs that report the per-layer metrics.  Every run checks its simulated
outputs; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: obs-on / obs-off untraced run pairs in the traced pass
PARITY_PAIRS = 2

_clock = time.perf_counter


def _git_revision() -> str:
    """HEAD's commit id read from ``.git`` in the checkout, if any."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Runner:
    """Runs one workload repeatedly and keeps what the checks found."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        import workloads

        self.w = workloads
        self.name = name
        self.seed = seed
        self.size = size
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: str | None = None

    def once(self, root=None, measure=None):
        """One set-up plus measured run; returns (setup s, wall s, outcome).

        ``root(name, group)`` opens a traced root span; ``None`` runs
        untraced.  ``measure`` replaces the workload's measure function.
        A run that raises or fails its output check counts as failed,
        and returns ``None`` when it raised.
        """
        from repro import obs
        from repro.silicon.golden import golden_cache_clear, golden_cache_info

        measure = measure or self.w.WORKLOADS[self.name].measure

        golden_cache_clear()
        obs.metrics.reset()
        obs.tracer.reset()
        gc.collect()
        self.attempted += 1
        label = f"run-{self.attempted}"
        try:
            start = _clock()
            if root is None:
                prepared = self.w.prepare(self.name, self.seed, self.size)
            else:
                with root("setup", label):
                    prepared = self.w.prepare(self.name, self.seed, self.size)
            mid = _clock()
            if root is None:
                outcome = measure(prepared)
            else:
                with root("measure", label):
                    outcome = measure(prepared)
            end = _clock()
            info = golden_cache_info()
            outcome.extra["golden"] = (info.hits, info.misses)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        errors = self.w.check(
            self.name, self.seed, self.size, outcome, self.expected
        )
        got = self.w.digest(outcome.scorecard)
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            errors.append(
                f"{self.name}: scorecard {got} differs from the first "
                f"run's {self.reference}"
            )
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return mid - start, end - mid, outcome


def provenance(name: str, seed: int, size: str, outcome) -> dict:
    from repro import obs

    import workloads

    config = {"workload": name, "size": size, **workloads.SIZES[size][name]}
    return {
        "workload": name,
        "seed": seed,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()[:16],
        "git_revision": _git_revision(),
        "requested_workers": outcome.extra.get("requested_workers", 1),
        "effective_workers": outcome.extra.get("workers", 1),
        "nproc": workloads.nproc(),
        "obs": "on" if obs.enabled() else "off",
    }


def measure_end_to_end(name: str, seed: int, seconds: float,
                       size: str = "full") -> tuple[Runner, dict, dict]:
    """Untraced runs for ``seconds``; the first is a warm-up.

    A run is not started when a run of the average length so far would
    end past the deadline, so the measurement overruns ``seconds`` by
    little.
    """
    runner = Runner(name, seed, size)
    start = _clock()
    deadline = start + seconds
    setups: list[float] = []
    walls: list[float] = []
    outcome = None
    while True:
        result = runner.once()
        if result is not None:
            setup_s, wall_s, outcome = result
            setups.append(setup_s)
            walls.append(wall_s)
        if runner.attempted >= 3 and not walls:
            break
        if len(walls) >= 2:
            per_run = (_clock() - start) / runner.attempted
            if _clock() + per_run > deadline:
                break
    if outcome is None:
        raise RuntimeError("every run failed:\n" + "\n".join(runner.errors))
    if len(walls) > 2:
        setups, walls = setups[1:], walls[1:]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "work_per_s": outcome.work / wall,
    }
    detail = {
        runner.w.WORKLOADS[name].work_metric: (outcome.work / wall, "1/s"),
        "fail_frac": (runner.failed / runner.attempted, "fraction"),
        "timed_runs": (len(walls), "count"),
        "wall_s_min": (min(walls), "s"),
        "wall_s_max": (max(walls), "s"),
    }
    if outcome.sim_ops:
        detail["sim_ops_per_s"] = (outcome.sim_ops / wall, "1/s")
    detail["provenance"] = provenance(name, seed, size, outcome)
    detail["scorecard_sha256"] = runner.reference
    return runner, metrics, detail


def measure_traced(name: str, seed: int, seconds: float,
                   size: str = "full") -> tuple[Runner, dict, dict]:
    """The traced pass: obs-on/off parity pair, then traced runs."""
    import functools

    import tracing
    from repro import obs

    runner = Runner(name, seed, size)
    deadline = _clock() + seconds
    # Parity pairs after a warm-up run: obs on, then REPRO_OBS=off.
    # Each run's scorecard must equal the first (Runner.once checks).
    runner.once()
    on_walls, off_walls = [], []
    for _pair in range(PARITY_PAIRS):
        on = runner.once()
        obs.set_enabled(False)
        try:
            off = runner.once()
        finally:
            obs.set_enabled(True)
        if on is None or off is None:
            raise RuntimeError(
                "untraced run failed:\n" + "\n".join(runner.errors)
            )
        on_walls.append(on[1])
        off_walls.append(off[1])

    tracing.install()
    measure = None
    if name == "fleet-screen":
        measure = functools.partial(
            runner.w.measure_fleet_screen,
            trial_fn=tracing.traced_fleet_trial,
        )
    traced = []
    while True:
        start = _clock()
        result = runner.once(root=tracing.RECORDER.root, measure=measure)
        if result is not None:
            traced.append(result)
            if 2 * _clock() - start > deadline:
                break
        elif runner.attempted >= 3 + 2 * PARITY_PAIRS:
            break
    if not traced:
        raise RuntimeError("every traced run failed:\n"
                           + "\n".join(runner.errors))
    errors = tracing.check_self_time(traced)
    if name == "fleet-screen":
        errors += _check_worker_invariance(
            runner, runner.w.prepare(name, seed, size)
        )
    if errors:
        runner.failed += 1
        runner.errors.extend(errors)
    metrics = tracing.layer_metrics(
        name, traced,
        untraced_wall=statistics.median(on_walls),
        obs_off_wall=statistics.median(off_walls),
    )
    tracing.write_spans(ROOT / ".perfbench" / f"spans-{name}-{seed}.json",
                        traced)
    detail = {"provenance": provenance(name, seed, size, traced[-1][2])}
    return runner, metrics, detail


def _check_worker_invariance(runner: Runner, prepared) -> list[str]:
    """Trials at one worker must equal the fanned-out runs' trials."""
    trials = runner.w.run_fleet_screen(prepared, 1)
    got = runner.w.digest({"trials": trials})
    if got != runner.reference:
        return [f"fleet-screen: 1-worker trials {got} differ from "
                f"{runner.w.bench_workers(prepared.trials)}-worker "
                f"trials {runner.reference}"]
    return []


def _print_metrics(name: str, metrics: dict, units: dict, detail: dict):
    print(f"== {name}")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:16.6g} {units[key]}")
    for key, value in detail.items():
        if key in ("provenance", "scorecard_sha256"):
            print(f"  {key} " + json.dumps(value, sort_keys=True))
        else:
            print(f"  {key:32s} {value[0]:16.6g} {value[1]}")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    measure = measure_traced if trace else measure_end_to_end
    runner, metrics, detail = measure(name, seed, seconds)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} != declared {sorted(units)}"
        )
    metrics = {key: metrics[key] for key in units}
    _print_metrics(name, metrics, units, detail)
    for error in runner.errors:
        print(error, file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }


def stop_helper_processes() -> None:
    """Stop and wait for every process this run started.

    Pool workers are joined when their pool shuts down, but publishing
    a fleet snapshot to shared memory also starts ``multiprocessing``'s
    resource tracker, which would otherwise outlive this process for a
    moment after it exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    names = (
        list(workloads.WORKLOADS) if args.workload == "all"
        else [args.workload]
    )
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: "
                     + ", ".join(workloads.WORKLOADS))
    results = {
        name: run(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, result in results.items()
                for key, value in result["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
