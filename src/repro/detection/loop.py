"""The campaign control loop shared by the E15–E18 runners (paper §6).

Every chaos campaign runs one detection pipeline: signals become
:class:`~repro.core.events.CeeEvent` entries, a
:class:`~repro.detection.signals.SignalAnalyzer` turns them into
per-core suspicion, a :class:`~repro.core.policy.QuarantinePolicy`
decides, and a condemned core goes offline — with every sibling on its
machine when the policy pulls the machine.  :class:`CampaignLoop` owns
that pipeline, the ground-truth corruption watcher behind the
scorecards' forensics fields (unconditional, so scorecards do not
depend on ``REPRO_OBS``), spare-core placement, and the core-level
chaos actions.  A runner keeps its own traffic path, its replica or
lane re-placement after :meth:`CampaignLoop.run_policy`, and its own
chaos side-effects.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from repro import obs
from repro.chaos import ChaosAction, ChaosKind
from repro.core.confidence import SuspicionTracker
from repro.core.events import CeeEvent, EventKind, EventLog, Reporter
from repro.core.policy import Action, PolicyConfig, QuarantinePolicy
from repro.detection.signals import SignalAnalyzer, SignalAnalyzerConfig
from repro.fleet.machine import Machine
from repro.fleet.scheduler import FleetScheduler, Task
from repro.obs.forensics import MS_PER_DAY, detection_latency_summary
from repro.silicon.core import Core


class CampaignLoop:
    """Signals → suspicion → policy → quarantine for one campaign.

    Args:
        machines: the campaign's fleet.
        policy: quarantine policy knobs.
        application: ``CeeEvent.application`` tag for emitted events.
        tick_ms: simulated milliseconds per campaign tick.
        quarantine_metric: counter (a :mod:`repro.obs.names` constant)
            bumped per quarantined core when observability is on.
        quarantine_help: help text of that counter.
        quarantine_span: span recorded per quarantined core, or None.
        analyzer_config: signal weights, when not the defaults.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        policy: PolicyConfig,
        *,
        application: str,
        tick_ms: float,
        quarantine_metric: str,
        quarantine_help: str,
        quarantine_span: str | None = None,
        analyzer_config: SignalAnalyzerConfig | None = None,
    ):
        self.application = application
        self.tick_ms = tick_ms
        self.events = EventLog()
        self.core_by_id: dict[str, Core] = {}
        self.machine_by_core: dict[str, str] = {}
        for machine in machines:
            for core in machine.cores:
                self.core_by_id[core.core_id] = core
                self.machine_by_core[core.core_id] = machine.machine_id
        self.analyzer = SignalAnalyzer(
            tracker=SuspicionTracker(), config=analyzer_config
        )
        self.policy = QuarantinePolicy(policy, fleet_cores=len(self.core_by_id))
        self.scheduler = FleetScheduler(machines)

        #: core id -> tick it was quarantined (the scorecard shares it)
        self.quarantine_tick: dict[str, int] = {}
        #: ground truth: first tick each core demonstrably corrupted
        self.first_corrupt_tick: dict[str, int] = {}
        self._corruption_base = {
            core_id: core.corruptions_induced
            for core_id, core in self.core_by_id.items()
        }
        self._events_seen = 0
        #: arrival-rate multiplier set by ``TRAFFIC_BURST`` chaos
        self.burst_multiplier = 1.0
        self._burst_until = -1
        self._restore_at: dict[str, int] = {}

        self._quarantine_span = quarantine_span
        self._obs_on = obs.enabled()
        if self._obs_on:
            self._m_quarantines = obs.metrics.counter(
                quarantine_metric, help=quarantine_help, unit="cores"
            )

    def emit(self, now_ms: float, core_id: str, kind: EventKind, detail: str,
             attributed: bool = True) -> None:
        """Log one automated signal; an unattributed one names no core."""
        self.events.append(
            CeeEvent(
                time_days=now_ms / MS_PER_DAY,
                machine_id=self.machine_by_core.get(
                    core_id, core_id.rsplit("/", 1)[0]
                ),
                core_id=core_id if attributed else None,
                kind=kind,
                reporter=Reporter.AUTOMATED,
                application=self.application,
                detail=detail,
            )
        )

    def run_policy(
        self, tick: int, now_ms: float, confessed: Collection[str] = ()
    ) -> None:
        """Ingest new events, then let the policy judge every suspect.

        ``confessed`` holds the cores that failed a screening battery.
        """
        new_events = self.events.tail(self._events_seen)
        self._events_seen = len(self.events)
        self.analyzer.ingest_all(new_events)
        for core_id, score in self.analyzer.suspects(
            now_ms / MS_PER_DAY, threshold=self.policy.config.retest_threshold
        ):
            if core_id not in self.core_by_id or core_id in self.quarantine_tick:
                continue
            action = self.policy.decide(
                core_id, score, confessed=core_id in confessed
            ).action
            if action is Action.QUARANTINE_CORE:
                self.quarantine(core_id, tick)
            elif action is Action.QUARANTINE_MACHINE:
                self.quarantine(core_id, tick)
                machine_id = self.machine_by_core[core_id]
                for sibling_id, owner in self.machine_by_core.items():
                    if owner == machine_id:
                        self.quarantine(sibling_id, tick)

    def quarantine(self, core_id: str, tick: int) -> None:
        """Take a core offline for good (idempotent)."""
        if core_id in self.quarantine_tick:
            return
        self.core_by_id[core_id].set_online(False)
        self.quarantine_tick[core_id] = tick
        self._restore_at.pop(core_id, None)
        if self._obs_on:
            self._m_quarantines.inc()
            if self._quarantine_span is not None:
                with obs.tracer.span(
                    self._quarantine_span, core_id=core_id, tick=tick
                ):
                    pass

    def spare_core(self, occupied: Collection[str], task: Task) -> Core | None:
        """Schedule ``task`` off the occupied and quarantined cores."""
        placements, _ = self.scheduler.schedule(
            [task], exclude_core_ids=set(occupied) | self.quarantine_tick.keys()
        )
        return self.core_by_id[placements[0].core_id] if placements else None

    def note_corruptions(self, tick: int) -> None:
        """Record the first tick each core's corruption counter moved."""
        base = self._corruption_base
        for core_id, core in self.core_by_id.items():
            induced = core.corruptions_induced
            if induced != base[core_id]:
                base[core_id] = induced
                if core_id not in self.first_corrupt_tick:
                    self.first_corrupt_tick[core_id] = tick

    def forensics(self) -> tuple[dict[str, int], dict[str, dict]]:
        """End-of-run ``(first_corrupt_tick, detection_latency_ms)``."""
        latency = detection_latency_summary(
            self.first_corrupt_tick, self.quarantine_tick,
            list(self.events), self.tick_ms,
        )
        return dict(sorted(self.first_corrupt_tick.items())), latency

    def apply_chaos(self, tick: int, actions: Iterable[ChaosAction]) -> list[str]:
        """Apply this tick's defect activations, crashes and bursts.

        Other chaos kinds are the runner's.  Returns the crashed cores
        back online this tick; a quarantined core stays down.
        """
        for action in actions:
            core = self.core_by_id.get(action.core_id) if action.core_id else None
            if action.kind is ChaosKind.TRAFFIC_BURST:
                self.burst_multiplier = action.magnitude
                self._burst_until = tick + max(1, action.duration_ticks)
            elif core is None:
                continue
            elif action.kind is ChaosKind.ACTIVATE_DEFECT:
                core.advance_age(action.magnitude)
            elif action.kind is ChaosKind.CRASH_CORE:
                core.set_online(False)
                self._restore_at[core.core_id] = tick + max(1, action.duration_ticks)

        restored = []
        for core_id, restore_tick in list(self._restore_at.items()):
            if tick >= restore_tick:
                del self._restore_at[core_id]
                if core_id not in self.quarantine_tick:
                    self.core_by_id[core_id].set_online(True)
                    restored.append(core_id)
        if tick >= self._burst_until:
            self.burst_multiplier = 1.0
        return restored


__all__ = ["CampaignLoop"]
