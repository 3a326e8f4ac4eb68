"""The benchmark's four workloads, driven through public entry points.

Each workload is two phases.  ``setup(seed, size)`` builds the fleet
and the campaign (or battery) and returns a prepared object; it is
timed as ``setup_s``.  ``measure(prepared)`` runs the simulation and
returns an :class:`Outcome`; it is timed as ``wall_s``.  Every input is
a pure function of the seed, so one seed always yields the same
simulated outputs, which :func:`check` verifies exactly.

All four workloads take their sizes from :data:`SIZES` (``"full"`` for
benchmark runs, ``"tiny"`` for the self-tests).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
from typing import Any, Callable

from repro.detection.corpus import TestCorpus
from repro.detection.fleetscreen import (
    RideAlongCampaign,
    RideAlongConfig,
    RideAlongScreener,
    distill,
)
from repro.engine import run_fleet_trials
from repro.engine.runner import effective_workers
from repro.fleet.population import FleetBuilder
from repro.fleet.simulator import FleetSimulator, SimulatorConfig
from repro.mitigation.instrcheck import (
    ARMS as INSTRCHECK_ARMS,
    InstrCheckCampaign,
    InstrCheckConfig,
    build_instrcheck_fleet,
)
from repro.serving import (
    ChaosSchedule,
    ScaleConfig,
    ScaleHardening,
    ServeScaleCampaign,
    build_scale_fleet,
)
from repro.storage import (
    StorageCampaign,
    StorageCampaignConfig,
    StorageProtections,
    build_storage_fleet,
)

#: per-workload sizes; ``tiny`` keeps the self-tests to seconds
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "serve-scale": {"ticks": 600},
        "store-cee": {"ticks": 600},
        "fleet-screen": {
            "n_machines": 50_000, "trials": 2,
            "sim_days": 270.0, "ridealong_days": 120.0,
        },
        "instrcheck": {"units": 320},
    },
    "tiny": {
        "serve-scale": {"ticks": 40},
        "store-cee": {"ticks": 40},
        "fleet-screen": {
            "n_machines": 300, "trials": 2,
            "sim_days": 20.0, "ridealong_days": 10.0,
        },
        "instrcheck": {"units": 12},
    },
}


def nproc() -> int:
    """CPUs this process may run on (the affinity mask, not the host)."""
    return len(os.sched_getaffinity(0))


def bench_workers(n_items: int) -> int:
    """Pool width for a fan-out: ``nproc`` through the engine's clamp."""
    return effective_workers(nproc(), n_items=n_items)


@dataclasses.dataclass
class Outcome:
    """What one measured run produced.

    ``scorecard`` holds only simulated results (JSON-ready); host time
    never enters it, so it must be byte-identical for one seed.
    ``work`` counts the workload's unit of work (requests, client
    key-value operations, core-days, checked units).  ``sim_ops`` is
    the sum of every core's ``ops_executed`` delta over the run.
    """

    scorecard: dict
    work: int
    sim_ops: int
    errors: list[str]
    extra: dict = dataclasses.field(default_factory=dict)


def digest(scorecard: dict) -> str:
    """sha256 of a scorecard's canonical JSON (non-finite → string)."""
    return hashlib.sha256(
        json.dumps(_finite(scorecard), sort_keys=True).encode()
    ).hexdigest()


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _cores(machines) -> list:
    return [core for machine in machines for core in machine.cores]


def _ops(cores) -> tuple[int, int]:
    """(all ops, ops on healthy cores) executed so far by ``cores``."""
    total = healthy = 0
    for core in cores:
        total += core.ops_executed
        if not core.is_mercurial:
            healthy += core.ops_executed
    return total, healthy


def _ops_outcome(prepared, scorecard: dict, work: int,
                 errors: list[str]) -> "Outcome":
    total, healthy = _ops(prepared.cores)
    sim_ops = total - prepared.ops_before[0]
    _require(errors, sim_ops > 0, "no simulated ops ran")
    return Outcome(
        scorecard, work, sim_ops, errors,
        {"healthy_ops": healthy - prepared.ops_before[1]},
    )


def _require(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


# ---------------------------------------------------------------------
# serve-scale: one E17 cell, full hardening, prevalence 0.2
# ---------------------------------------------------------------------

@dataclasses.dataclass
class _Prepared:
    """Built campaign(s) plus every core they run on, with op counts."""

    campaign: Any
    cores: list
    ops_before: tuple[int, int]


def setup_serve_scale(seed: int, ticks: int) -> _Prepared:
    machines, bad_core_ids = build_scale_fleet(
        n_machines=4, cores_per_machine=4, prevalence=0.2,
        base_rate=0.05, seed=seed + 7,
    )
    campaign = ServeScaleCampaign(
        machines, ScaleConfig(ticks=ticks), ScaleHardening.full(),
        seed=seed + 3,
    )
    # The E17 chaos script: shard 0 is lost whole, two healthy cores of
    # shard 1 take the machine-check storm.
    shards = campaign.cluster.shards
    shard_loss = [r.core_id for r in shards[0].router.replicas]
    storm = [
        r.core_id for r in shards[1 % len(shards)].router.replicas
        if r.core_id not in bad_core_ids
    ][:2]
    campaign.chaos = ChaosSchedule.serve_scale(
        bad_core_ids, shard_loss, storm, ticks
    )
    cores = _cores(machines) + [campaign.client_core]
    return _Prepared(campaign, cores, _ops(cores))


def measure_serve_scale(prepared: _Prepared) -> Outcome:
    card = prepared.campaign.run()
    # Every arrival ends in exactly one outcome; a fail-closed request is
    # scored as failed too, so it is not added again.
    terminal = (
        card.ok + card.stale_served + card.timeouts + card.unavailable
        + card.failed + card.shed
    )
    errors: list[str] = []
    _require(errors, card.ticks == prepared.campaign.config.ticks,
             "serve-scale: ticks run != ticks configured")
    _require(errors, terminal == card.total_arrivals,
             f"serve-scale: {terminal} terminal outcomes != "
             f"{card.total_arrivals} arrivals")
    _require(errors, card.fail_closed <= card.failed,
             "serve-scale: more fail-closed than failed requests")
    _require(errors, card.hedges_won <= card.hedges,
             "serve-scale: more hedges won than fired")
    _require(errors, card.corrupt_escapes <= card.ok,
             "serve-scale: more escapes than fresh OK answers")
    return _ops_outcome(prepared, card.to_json(), card.total_arrivals, errors)


# ---------------------------------------------------------------------
# store-cee: one E16 protected arm, write-heavy client mix
# ---------------------------------------------------------------------

#: write-heavy: more puts than gets per tick (the E16 default is 1:2)
STORE_MIX = {"writes_per_tick": 2.0, "reads_per_tick": 1.0}
#: E16's late-onset defect age (days)
STORE_ONSET_DAYS = 400.0


def setup_store_cee(seed: int, ticks: int) -> _Prepared:
    machines, bad_core_id = build_storage_fleet(
        n_machines=4, cores_per_machine=4, base_rate=0.05,
        onset_days=STORE_ONSET_DAYS, seed=seed + 7,
    )
    campaign = StorageCampaign(
        machines,
        StorageProtections.protected(),
        StorageCampaignConfig(ticks=ticks, **STORE_MIX),
        seed=seed + 3,
    )
    victim = next(
        r.core_id for r in campaign.store.replicas
        if r.core_id != bad_core_id
    )
    campaign.chaos = ChaosSchedule.storage_standard(
        bad_core_id, victim, ticks, onset_age_days=STORE_ONSET_DAYS
    )
    cores = _cores(machines) + [campaign.client_core]
    return _Prepared(campaign, cores, _ops(cores))


def measure_store_cee(prepared: _Prepared) -> Outcome:
    card = prepared.campaign.run()
    errors: list[str] = []
    _require(errors, card.ticks == prepared.campaign.config.ticks,
             "store-cee: ticks run != ticks configured")
    _require(errors,
             card.keys_written + card.write_failures == card.writes_attempted,
             "store-cee: writes written + failed != attempted")
    _require(errors,
             card.reads_ok + card.read_failures == card.reads_attempted,
             "store-cee: reads ok + failed != attempted")
    _require(errors, card.durable_escapes <= card.reads_ok,
             "store-cee: more escapes than OK reads")
    _require(errors, card.writes_attempted > card.reads_attempted,
             "store-cee: mix is not write-heavy")
    work = card.writes_attempted + card.reads_attempted
    return _ops_outcome(prepared, card.to_json(), work, errors)


# ---------------------------------------------------------------------
# fleet-screen: ~2M-core columnar fleet, E1 simulation + E19 ride-along
# ---------------------------------------------------------------------

#: E19's middle ride-along budget (fraction of fleet machine-seconds)
RIDEALONG_BUDGET = 2e-6


@functools.lru_cache(maxsize=1)
def distilled_battery():
    """The E19 distilled battery, built once per process.

    Its tests hold local closures, so it cannot cross the pool boundary;
    each worker process builds (or, forked, inherits) its own copy.
    """
    return distill(TestCorpus.standard())


@dataclasses.dataclass
class _Fleet:
    columns: Any
    seed: int
    trials: int
    sim_days: float
    ridealong_days: float


#: the fleet's population seed (E1's): 83 mercurial cores at 50k machines.
#: The fleet is the same at every ``--seed``, which seeds the trials.
#: Fleet composition alone moves a trial's cost by 20-30% between
#: population seeds (complaint analysis scales with the worst cores),
#: which would swamp the benchmark's bounds.
FLEET_SEED = 7


def setup_fleet_screen(
    seed: int, n_machines: int, trials: int,
    sim_days: float, ridealong_days: float,
) -> _Fleet:
    columns = FleetBuilder(
        seed=FLEET_SEED, deployment_window=(-900.0, 0.0)
    ).build_columns(n_machines)
    distilled_battery.cache_clear()
    distilled_battery()
    return _Fleet(columns, seed, trials, sim_days, ridealong_days)


def fleet_trial(trial, columns, *, sim_days, ridealong_days) -> dict:
    """One fleet-screen trial; module-level so the pool can pickle it.

    Each consumer gets its own ``columns.thaw()``: the simulator and the
    ride-along campaign both mutate *writable* columns in place (and
    copy read-only ones), so sharing one writable copy between them
    would make the second see the first's quarantines, and the result
    would depend on the worker count.
    """
    simulator = FleetSimulator(
        columns.thaw(),
        config=SimulatorConfig(horizon_days=sim_days, warmup_days=0.0),
        seed=trial.seed + 1,
    )
    result = simulator.run()
    # Scored against the mercurial id set, not ``ground_truth_map()``:
    # the map holds one entry per core (seconds to build at 2M cores).
    truth = result.truth.mercurial_core_ids
    flagged = result.flagged()
    screener = RideAlongScreener(
        distilled_battery(), RideAlongConfig(budget_fraction=RIDEALONG_BUDGET)
    )
    report = RideAlongCampaign(
        columns.thaw(), screener, seed=trial.seed + 3
    ).run(ridealong_days)
    return {
        "trial": trial.index,
        "n_cores": columns.n_cores,
        "n_mercurial": columns.n_mercurial,
        "sim_events": len(result.events),
        "sim_quarantine_day": dict(sorted(result.quarantine_day.items())),
        "sim_true_positives": len(flagged & truth),
        "sim_false_positives": len(flagged - truth),
        "sim_false_negatives": len(truth - flagged),
        "sim_total_corruptions": result.total_corruptions,
        "sim_screening_ops": result.screening_ops_spent,
        "ra_n_active": report.n_active,
        "ra_detected": len(report.detected),
        "ra_escaped_corruptions": report.escaped_corruptions,
        "ra_machine_seconds": report.machine_seconds,
        "ra_budget_machine_seconds": report.budget_machine_seconds,
        "ra_skipped_slots": report.skipped_slots,
        "ra_confessions": report.n_confessions,
    }


def run_fleet_screen(prepared: _Fleet, workers: int,
                     trial_fn: Callable = fleet_trial) -> list:
    bound = functools.partial(
        trial_fn, sim_days=prepared.sim_days,
        ridealong_days=prepared.ridealong_days,
    )
    return run_fleet_trials(
        bound, prepared.columns, prepared.trials,
        seed=prepared.seed, workers=workers,
    )


def check_fleet_trials(prepared: _Fleet, trials: list[dict]) -> list[str]:
    errors: list[str] = []
    columns = prepared.columns
    _require(errors, len(trials) == prepared.trials,
             "fleet-screen: trial count mismatch")
    for row in trials:
        tag = f"fleet-screen trial {row['trial']}"
        _require(errors, row["n_cores"] == columns.n_cores,
                 f"{tag}: core count changed")
        _require(errors,
                 row["sim_true_positives"] + row["sim_false_positives"]
                 == len(row["sim_quarantine_day"]),
                 f"{tag}: TP + FP != quarantined cores")
        _require(errors,
                 row["sim_true_positives"] + row["sim_false_negatives"]
                 == columns.n_mercurial,
                 f"{tag}: TP + FN != mercurial cores")
        _require(errors, row["ra_detected"] <= row["n_mercurial"],
                 f"{tag}: ride-along detected more than the mercurial set")
        _require(errors,
                 row["ra_machine_seconds"]
                 <= row["ra_budget_machine_seconds"] * (1 + 1e-12),
                 f"{tag}: ride-along overspent its budget")
    # Trials are independent draws: the read-only fleet never changes.
    _require(errors, not columns.online.size or bool(columns.online.all()),
             "fleet-screen: a trial mutated the shared fleet")
    return errors


def measure_fleet_screen(prepared: _Fleet,
                         trial_fn: Callable = fleet_trial) -> Outcome:
    workers = bench_workers(prepared.trials)
    trials = run_fleet_screen(prepared, workers, trial_fn)
    # A traced trial function attaches its worker's trace to the row.
    trial_traces = [row.pop("_trace") for row in trials if "_trace" in row]
    errors = check_fleet_trials(prepared, trials)
    days = prepared.sim_days + prepared.ridealong_days
    core_days = int(prepared.columns.n_cores * days * prepared.trials)
    return Outcome(
        {"trials": trials}, core_days, 0, errors,
        {"workers": workers, "requested_workers": nproc(),
         "healthy_ops": 0, "trial_traces": trial_traces},
    )


# ---------------------------------------------------------------------
# instrcheck: the E18 cells at prevalence 0.25, five arms × three rates
# ---------------------------------------------------------------------

INSTRCHECK_PREVALENCE = 0.25
INSTRCHECK_RATES = (0.1, 0.33, 1.0)


def setup_instrcheck(seed: int, units: int) -> _Prepared:
    campaigns, cores = [], []
    for arm in INSTRCHECK_ARMS:
        for rate in INSTRCHECK_RATES:
            machines, _bad = build_instrcheck_fleet(
                prevalence=INSTRCHECK_PREVALENCE, seed=seed + 7
            )
            config = InstrCheckConfig(
                units=units, sample_rate=rate,
                screen_interval_ticks=max(1, round(1.0 / rate)),
            )
            campaigns.append(
                InstrCheckCampaign(machines, arm, config, seed=seed + 3)
            )
            cores.extend(_cores(machines))
    return _Prepared(campaigns, cores, _ops(cores))


def measure_instrcheck(prepared: _Prepared) -> Outcome:
    cards = [campaign.run() for campaign in prepared.campaign]
    errors: list[str] = []
    for card in cards:
        tag = f"instrcheck {card.name}@{card.sample_rate:g}"
        _require(errors,
                 card.units_delivered + card.units_crashed
                 == card.units_total,
                 f"{tag}: delivered + crashed != units")
        _require(errors, card.cees_caught + card.cees_escaped
                 <= card.units_total,
                 f"{tag}: more CEE units than units")
        _require(errors, card.ops_sampled <= card.payload_ops,
                 f"{tag}: sampled more ops than ran")
    work = sum(card.units_total for card in cards)
    scorecard = {
        f"{card.name}@{card.sample_rate:g}": card.to_json() for card in cards
    }
    return _ops_outcome(prepared, scorecard, work, errors)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in README.md and BENCHMARK.json."""

    name: str
    #: the name ``Outcome.work`` per host second is printed under
    work_metric: str
    setup: Callable[..., Any]
    measure: Callable[[Any], Outcome]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("serve-scale", "requests_per_s",
                 setup_serve_scale, measure_serve_scale),
        Workload("store-cee", "kv_ops_per_s",
                 setup_store_cee, measure_store_cee),
        Workload("fleet-screen", "core_days_per_s",
                 setup_fleet_screen, measure_fleet_screen),
        Workload("instrcheck", "units_per_s",
                 setup_instrcheck, measure_instrcheck),
    )
}


def prepare(name: str, seed: int, size: str = "full"):
    return WORKLOADS[name].setup(seed, **SIZES[size][name])


def check(name: str, seed: int, size: str, outcome: Outcome,
          expected: dict) -> list[str]:
    """Exact-output check: identities, plus the pinned digest at the
    default seed and size."""
    errors = list(outcome.errors)
    pinned = expected["sha256"].get(name)
    if seed == expected["seed"] and size == "full" and pinned is not None:
        got = digest(outcome.scorecard)
        _require(errors, got == pinned,
                 f"{name}: scorecard sha256 {got} != pinned {pinned}")
    return errors


__all__ = [
    "Outcome", "SIZES", "WORKLOADS", "Workload",
    "bench_workers", "check", "digest", "fleet_trial", "nproc", "prepare",
    "run_fleet_screen",
]
