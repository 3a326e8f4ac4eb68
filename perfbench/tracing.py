"""Per-layer tracing for the benchmark's traced pass.

:func:`install` wraps every public function, and every public method
(plus ``__init__`` and ``__call__``) of every public class, in the ten
layer packages below with a recorder.  Where another module bound a
wrapped function by name (``from repro.silicon.golden import
golden_call``), that binding is replaced too, so the caller's calls are
seen.  The program itself is not edited: the wrappers live only in the
traced process (and in pool workers, which install them on first use).

Every call is counted in a per-name accumulator (calls, total seconds,
self seconds).  A call's self time is its duration minus the time its
wrapped children took, so the self times of all calls in one tree, plus
the root's own self time, add up to the root's duration.  Calls near
the root are also kept as individual spans (name, start, end, parent,
group id); the millions of leaf calls below them, such as
``Core.execute``, are kept only in the accumulators.

Generator functions are not wrapped: a wrapper would time only the
creation of the generator, not its iteration.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import multiprocessing
import pkgutil
import sys
import time
from typing import Any, Callable

#: the layer packages, named as the per-layer metrics name them
LAYERS: tuple[str, ...] = (
    "silicon", "workloads", "serving", "storage", "detection", "core",
    "mitigation", "fleet", "engine", "obs",
)

#: time outside every wrapped call: the benchmark and unwrapped modules
OTHER = "other"

#: individual spans are kept for calls at most this deep below a root
SPAN_DEPTH = 3
#: and at most this many per process, to bound memory
MAX_SPANS = 20_000

_clock = time.perf_counter


class Recorder:
    """Accumulators, span list and call stack of one process."""

    def __init__(self) -> None:
        #: "layer:qualname" → [calls, total seconds, self seconds]; the
        #: wrappers hold their row, so rows are zeroed, never replaced
        self.acc: dict[str, list] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts here)."""
        self.active = False
        #: one entry per open call: [child seconds, span id]
        self.stack: list[list] = []
        for row in self.acc.values():
            row[:] = [0, 0.0, 0.0]
        #: "layer:qualname" → summed quantity from a probe (bytes, cores)
        self.quantity: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.group = ""
        self._next_id = 1
        self.worker_root: _Root | None = None

    def start_worker(self) -> None:
        """Fork hook: a pool worker starts clean, inside a root span
        that covers its start-up (snapshot attach) until its first
        trial."""
        self.reset()
        self.worker_root = self.root("worker", "worker")
        self.worker_root.__enter__()

    # -- roots ----------------------------------------------------------

    def root(self, name: str, group: str) -> "_Root":
        """Context manager for a root span (one iteration, cell, trial)."""
        return _Root(self, name, group)

    def export(self) -> dict:
        return {
            "acc": {k: list(v) for k, v in self.acc.items() if v[0]},
            "quantity": dict(self.quantity),
            "spans": list(self.spans),
        }


class _Root:
    def __init__(self, recorder: Recorder, name: str, group: str):
        self.recorder, self.name, self.group = recorder, name, group

    def __enter__(self) -> "_Root":
        rec = self.recorder
        if rec.stack:
            raise RuntimeError("root span opened inside another span")
        rec.active = True
        rec.group = self.group
        self.start = _clock()
        rec.stack.append([0.0, rec._next_id])
        rec._next_id += 1
        return self

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        end = _clock()
        child_s, span_id = rec.stack.pop()
        self.duration = end - self.start
        rec.active = False
        acc = rec.acc.setdefault(f"{OTHER}:{self.name}", [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += self.duration
        acc[2] += self.duration - child_s
        rec.spans.append((span_id, 0, self.name, self.start, end, self.group))


#: the recorder of this process
RECORDER = Recorder()

#: "layer:qualname" → probe(args, kwargs, result) → quantity to sum
PROBES: dict[str, Callable[[tuple, dict, Any], float]] = {
    "workloads:crc64": lambda args, kwargs, result: len(args[1]),
    "fleet:FleetBuilder.build_columns": (
        lambda args, kwargs, result: result.n_cores
    ),
    "detection:RideAlongScreener.run_pass": (
        lambda args, kwargs, result: result.screen.n_screened
    ),
}


def _wrap(fn: Callable, key: str) -> Callable:
    rec = RECORDER
    acc = rec.acc.setdefault(key, [0, 0.0, 0.0])
    probe = PROBES.get(key)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        stack = rec.stack
        frame = [0.0, rec._next_id]
        rec._next_id += 1
        parent_id = stack[-1][1]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            stack[-1][0] += duration
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - frame[0]
            if len(stack) <= SPAN_DEPTH and len(rec.spans) < MAX_SPANS:
                rec.spans.append(
                    (frame[1], parent_id, key, start, end, rec.group)
                )
        if probe is not None:
            rec.quantity[key] = rec.quantity.get(key, 0.0) + probe(
                args, kwargs, result
            )
        return result

    return traced


def _layer_modules(layer: str) -> list:
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
        modules.append(importlib.import_module(info.name))
    return modules


def _wrappable(fn: Any) -> bool:
    return (
        inspect.isfunction(fn)
        and not inspect.isgeneratorfunction(fn)
        and not inspect.iscoroutinefunction(fn)
    )


def _skip_class(cls: type) -> bool:
    return (
        issubclass(cls, (BaseException, enum.Enum, tuple))
        or getattr(cls, "_is_protocol", False)
    )


def _wrap_class(cls: type, layer: str, originals: dict) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ("__init__", "__call__"):
            continue
        key = f"{layer}:{cls.__qualname__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            if _wrappable(raw.__func__):
                setattr(cls, attr, type(raw)(_wrap(raw.__func__, key)))
        elif _wrappable(raw):
            wrapped = _wrap(raw, key)
            originals[id(raw)] = wrapped
            setattr(cls, attr, wrapped)


_installed = False


def install() -> None:
    """Wrap the layers in this process (idempotent)."""
    global _installed
    if _installed:
        return
    #: id(original function) → wrapper, for rebinding by-name imports
    originals: dict[int, Callable] = {}
    for layer in LAYERS:
        for module in _layer_modules(layer):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(
                    obj, "__module__", None
                ) != module.__name__:
                    continue
                if inspect.isclass(obj) and not _skip_class(obj):
                    _wrap_class(obj, layer, originals)
                elif _wrappable(obj):
                    wrapped = _wrap(obj, f"{layer}:{obj.__qualname__}")
                    originals[id(obj)] = wrapped
                    setattr(module, name, wrapped)
    _rebind(originals)
    os.register_at_fork(after_in_child=RECORDER.start_worker)
    _installed = True


def _rebind(originals: dict[int, Callable]) -> None:
    """Point every by-name import of a wrapped function at its wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name.startswith("repro") or module_name == "workloads"
            or module_name.startswith("perfbench")
        ):
            continue
        for name, obj in list(vars(module).items()):
            wrapped = originals.get(id(obj))
            if wrapped is not None and wrapped is not obj:
                setattr(module, name, wrapped)


def merge(into: dict, exported: dict) -> None:
    """Add one exported recorder's accumulators into ``into``."""
    acc = into.setdefault("acc", {})
    for key, (calls, total, self_s) in exported["acc"].items():
        row = acc.setdefault(key, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s
    quantity = into.setdefault("quantity", {})
    for key, value in exported["quantity"].items():
        quantity[key] = quantity.get(key, 0.0) + value
    into.setdefault("spans", []).extend(exported["spans"])


def self_by_layer(acc: dict) -> dict[str, float]:
    totals = {layer: 0.0 for layer in (*LAYERS, OTHER)}
    for key, (_calls, _total, self_s) in acc.items():
        totals[key.split(":", 1)[0]] += self_s
    return totals


def root_seconds(acc: dict) -> float:
    """Summed duration of the root spans in ``acc``."""
    return sum(
        total for key, (_calls, total, _self) in acc.items()
        if key.startswith(f"{OTHER}:")
    )


# ---------------------------------------------------------------------
# the traced fleet-screen trial (runs in pool workers)
# ---------------------------------------------------------------------

def traced_fleet_trial(trial, columns, **kwargs) -> dict:
    """:func:`workloads.fleet_trial` with the worker's trace attached.

    In a pool worker the trial is its own root span, and the worker's
    accumulators travel back in the row under ``"_trace"`` (then are
    reset, so a worker's next trial starts clean).  Inline, the trial
    is part of the caller's tree and only its duration is attached.
    """
    import workloads

    install()
    if multiprocessing.parent_process() is None:
        start = _clock()
        row = workloads.fleet_trial(trial, columns, **kwargs)
        row["_trace"] = {"trial_s": _clock() - start}
        return row
    if RECORDER.worker_root is not None:
        RECORDER.worker_root.__exit__(None, None, None)
        RECORDER.worker_root = None
    with RECORDER.root("trial", f"trial-{trial.index}") as root:
        row = workloads.fleet_trial(trial, columns, **kwargs)
    row["_trace"] = {"trial_s": root.duration, **RECORDER.export()}
    RECORDER.reset()
    return row


# ---------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------

#: bytes per ``encrypt_block``/``decrypt_block`` call (AES-128)
AES_BLOCK_BYTES = 16


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def collect(traced: list) -> tuple[dict, list[dict]]:
    """This process's export, plus each pool worker trial's export."""
    children = [
        trace
        for _setup, _wall, outcome in traced
        for trace in outcome.extra.get("trial_traces", [])
        if "acc" in trace
    ]
    return RECORDER.export(), children


def check_self_time(traced: list) -> list[str]:
    """Self times of every layer, plus ``other``, sum to the root spans."""
    parent, children = collect(traced)
    errors = []
    for label, exported in [("parent", parent)] + [
        (f"worker trial {i}", child) for i, child in enumerate(children)
    ]:
        layers = sum(self_by_layer(exported["acc"]).values())
        roots = root_seconds(exported["acc"])
        if abs(layers - roots) > 1e-9 * max(roots, 1.0) + 1e-9:
            errors.append(
                f"trace ({label}): layer self times sum to {layers!r} s, "
                f"root spans to {roots!r} s"
            )
    return errors


def layer_metrics(name: str, traced: list, *, untraced_wall: float,
                  obs_off_wall: float) -> dict[str, float]:
    """Every per-layer metric, per traced run (0 where a layer is unused)."""
    parent, children = collect(traced)
    combined: dict = {}
    merge(combined, parent)
    for child in children:
        merge(combined, child)
    acc, quantity = combined["acc"], combined["quantity"]
    n = len(traced)
    outcomes = [outcome for _setup, _wall, outcome in traced]
    cards = [outcome.scorecard for outcome in outcomes]

    def calls(*keys: str) -> float:
        return sum(acc.get(key, (0, 0.0, 0.0))[0] for key in keys)

    def total(*keys: str) -> float:
        return sum(acc.get(key, (0, 0.0, 0.0))[1] for key in keys)

    def card_sum(field: str, cells: bool = False) -> float:
        if cells:
            return sum(
                cell.get(field, 0) for card in cards for cell in card.values()
                if isinstance(cell, dict)
            )
        return sum(card.get(field, 0) for card in cards)

    layer_self = self_by_layer(acc)
    sim_ops = sum(o.sim_ops for o in outcomes)
    hits = sum(o.extra["golden"][0] for o in outcomes)
    misses = sum(o.extra["golden"][1] for o in outcomes)
    is_instrcheck = name == "instrcheck"
    pick_keys = [k for k in acc if k.startswith("serving:")
                 and k.endswith(".pick")]
    aes = ("workloads:encrypt_block", "workloads:decrypt_block")
    workers = outcomes[-1].extra.get("workers", 0)
    fanout_s = total("engine:run_fleet_trials")
    trial_s = sum(
        trace["trial_s"]
        for o in outcomes for trace in o.extra.get("trial_traces", [])
    )
    payload = card_sum("payload_ops", cells=is_instrcheck)
    traced_wall = sum(wall for _setup, wall, _o in traced) / n

    metrics = {
        "silicon.execute_calls": calls("silicon:Core.execute") / n,
        "silicon.ops": sim_ops / n,
        "silicon.healthy_ops_frac": _ratio(
            sum(o.extra["healthy_ops"] for o in outcomes), sim_ops
        ),
        "silicon.golden_hit_frac": _ratio(hits, hits + misses),
        "workloads.crc64_mb_per_s": _ratio(
            quantity.get("workloads:crc64", 0.0),
            total("workloads:crc64"),
        ) / 1e6,
        "workloads.aes_mb_per_s": _ratio(
            AES_BLOCK_BYTES * calls(*aes), total(*aes)
        ) / 1e6,
        "workloads.digest_calls": calls("workloads:digest_ints") / n,
        "serving.loadgen_s": total("serving:LoadGenerator.arrivals") / n,
        "serving.route_calls": calls(*pick_keys) / n,
        "serving.attempts_per_request": _ratio(
            calls("serving:ServerReplica.serve"),
            card_sum("total_arrivals"),
        ),
        "serving.hedge_win_frac": _ratio(
            card_sum("hedges_won"), card_sum("hedges")
        ),
        "serving.validate_reject_frac": _ratio(
            card_sum("corrupt_caught"),
            calls("serving:ResponseValidator.validate"),
        ),
        "storage.put_s": total("storage:ReplicatedKVStore.put") / n,
        "storage.get_s": total("storage:ReplicatedKVStore.get") / n,
        "storage.scrub_s": total("storage:Scrubber.scrub_round") / n,
        "storage.antientropy_s": total("storage:AntiEntropy.sync_round") / n,
        "storage.wal_appends": calls("storage:WriteAheadLog.append") / n,
        "storage.write_amplification": _ratio(
            card_sum("physical_bytes"), card_sum("logical_bytes")
        ),
        "storage.read_repair_frac": _ratio(
            card_sum("repairs_total"), card_sum("reads_attempted")
        ),
        "detection.ingest_events": calls("detection:SignalAnalyzer.ingest") / n,
        "detection.suspects_calls": (
            calls("detection:SignalAnalyzer.suspects") / n
        ),
        "detection.ridealong_s": total("detection:RideAlongCampaign.run") / n,
        "detection.screened_cores_per_s": _ratio(
            quantity.get("detection:RideAlongScreener.run_pass", 0.0),
            total("detection:RideAlongScreener.run_pass"),
        ),
        "core.policy_decisions": calls("core:QuarantinePolicy.decide") / n,
        "core.policy_s": total("core:QuarantinePolicy.decide") / n,
        "mitigation.checked_ops": card_sum("ops_sampled", cells=True) / n
        if is_instrcheck else 0.0,
        "mitigation.slowdown": _ratio(
            payload + card_sum("check_ops", cells=True), payload
        ) if is_instrcheck else 0.0,
        "mitigation.lag_drops": card_sum("lag_drops", cells=True) / n
        if is_instrcheck else 0.0,
        "mitigation.campaign_init_s": (
            total("mitigation:InstrCheckCampaign.__init__") / n
        ),
        "fleet.build_s": total("fleet:FleetBuilder.build_columns") / n,
        "fleet.cores_built_per_s": _ratio(
            quantity.get("fleet:FleetBuilder.build_columns", 0.0),
            total("fleet:FleetBuilder.build_columns"),
        ),
        "fleet.sim_init_s": total("fleet:FleetSimulator.__init__") / n,
        "fleet.sim_s": total("fleet:FleetSimulator.run") / n,
        "fleet.thaw_s": total("fleet:FleetColumns.thaw") / n,
        "engine.workers": float(workers),
        "engine.publish_s": total("fleet:publish") / n,
        "engine.attach_s": total("fleet:attach") / n,
        "engine.busy_frac": _ratio(trial_s, workers * fanout_s),
        "engine.overhead_s": (
            (fanout_s - trial_s / workers) / n if workers else 0.0
        ),
        "obs.spans": calls("obs:Tracer.span") / n,
        "obs.overhead_frac": _ratio(
            untraced_wall - obs_off_wall, obs_off_wall
        ),
        "trace.root_s": root_seconds(parent["acc"]) / n,
        "trace.overhead_frac": _ratio(
            traced_wall - untraced_wall, untraced_wall
        ),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds / n
    return {key: float(value) for key, value in metrics.items()}


def write_spans(path, traced: list) -> None:
    """Write every kept span and accumulator of the traced runs."""
    import json

    parent, children = collect(traced)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "parent", "name", "start", "end", "group")
    payload = {
        "fields": fields,
        "parent": parent,
        "workers": children,
    }
    path.write_text(json.dumps(payload))
