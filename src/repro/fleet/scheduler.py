"""Core-aware task scheduling with quarantine support.

§6.1: removing a machine is easy; "isolating a specific core could be
more challenging, because it undermines a scheduler assumption that all
machines of a specific type have identical resources."  This scheduler
models that burden explicitly: machines advertise *slots* (one per
online core); core quarantine shrinks a machine's slot count, making
the fleet heterogeneous; the scheduler tracks stranded capacity and bin
packs around the holes.

It also implements the §6.1 speculation: optionally placing tasks whose
op mix avoids a quarantined core's implicated units back onto that core
("safe tasks"), recovering capacity at a measurable residual risk.
"""

from __future__ import annotations

import dataclasses
from typing import Collection, Sequence

from repro.detection.quarantine import heuristic_safe_op_mix  # repro: noqa-ARCH001 -- the scheduler steers suspect cores onto the same safe mix the quarantine policy defines, by design
from repro.fleet.machine import Machine
from repro.silicon.core import Core


@dataclasses.dataclass(frozen=True)
class Task:
    """A schedulable unit with an operation-mix profile."""

    task_id: str
    op_mix: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Placement:
    """One task bound to one core (flagging quarantine violations)."""

    task: Task
    core_id: str
    on_quarantined_core: bool = False


@dataclasses.dataclass
class ScheduleStats:
    """Scheduler outcome tallies for one placement round."""

    placed: int = 0
    unplaceable: int = 0
    placed_on_quarantined: int = 0
    slots_total: int = 0
    slots_stranded: int = 0
    slots_excluded: int = 0

    @property
    def stranded_fraction(self) -> float:
        if self.slots_total == 0:
            return 0.0
        return self.slots_stranded / self.slots_total


class FleetScheduler:
    """Slot-per-core scheduler over a heterogeneous (post-quarantine) fleet."""

    def __init__(
        self,
        machines: Sequence[Machine],
        allow_safe_tasks: bool = False,
        implicated_units_by_core: dict[str, frozenset] | None = None,
    ):
        """
        Args:
            allow_safe_tasks: enable §6.1 safe-task placement on
                quarantined cores.
            implicated_units_by_core: which units confessions implicated
                per quarantined core (needed for safe-task decisions).
        """
        self.machines = list(machines)
        self.allow_safe_tasks = allow_safe_tasks
        self.implicated_units_by_core = implicated_units_by_core or {}

    def _all_cores(self) -> list[Core]:
        return [core for machine in self.machines for core in machine.cores]  # repro: noqa-PERF002 -- the scheduler's fleet is Machine objects

    def schedule(
        self,
        tasks: Sequence[Task],
        exclude_core_ids: Collection[str] | None = None,
    ) -> tuple[list[Placement], ScheduleStats]:
        """Place each task on a free core slot; round-robin over machines.

        Returns placements plus capacity accounting.  One task per core
        slot (the scheduler's unit of capacity).

        Args:
            exclude_core_ids: cores the caller has already committed
                elsewhere (e.g. serving replicas being re-placed after
                a quarantine, which must not land back on an occupied
                or suspect core).  Excluded slots are accounted
                separately from quarantine-stranded ones.
        """
        exclude = frozenset(exclude_core_ids or ())
        stats = ScheduleStats()
        placements: list[Placement] = []
        free_online: list[Core] = []
        free_quarantined: list[Core] = []
        for core in self._all_cores():
            stats.slots_total += 1
            if core.core_id in exclude:
                stats.slots_excluded += 1
                continue
            if core.online:
                free_online.append(core)
            else:
                stats.slots_stranded += 1
                free_quarantined.append(core)

        for task in tasks:
            if free_online:
                core = free_online.pop(0)
                placements.append(Placement(task, core.core_id))
                stats.placed += 1
                continue
            placed = False
            if self.allow_safe_tasks:
                for index, core in enumerate(free_quarantined):
                    implicated = self.implicated_units_by_core.get(
                        core.core_id, frozenset()
                    )
                    if heuristic_safe_op_mix(implicated, task.op_mix):
                        free_quarantined.pop(index)
                        placements.append(
                            Placement(task, core.core_id, on_quarantined_core=True)
                        )
                        stats.placed += 1
                        stats.placed_on_quarantined += 1
                        placed = True
                        break
            if not placed:
                stats.unplaceable += 1
        return placements, stats

    def capacity(self) -> tuple[int, int]:
        """(online slots, total slots)."""
        total = 0
        online = 0
        for core in self._all_cores():
            total += 1
            online += core.online
        return online, total
