"""Machines: a chip, an identity, an age, an operating point.

:func:`build_small_fleet` hand-places the few-machine fleets the chaos
campaigns (E15–E18) run on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.fleet.product import CpuProduct
from repro.silicon.core import Chip, Core
from repro.silicon.defects import DefectModel
from repro.silicon.environment import DvfsTable, NOMINAL, OperatingPoint


@dataclasses.dataclass(slots=True)
class Machine:
    """One server in the fleet.

    Attributes:
        machine_id: stable id, e.g. ``"m00017"``.
        product: the CPU SKU installed.
        chip: the simulated silicon.
        deploy_day: fleet time the machine entered service.
        dvfs: the DVFS ladder this machine runs.
    """

    machine_id: str
    product: CpuProduct
    chip: Chip
    deploy_day: float = 0.0
    dvfs: DvfsTable = dataclasses.field(default_factory=DvfsTable)

    @property
    def cores(self) -> list[Core]:
        return self.chip.cores

    @property
    def core_ids(self) -> list[str]:
        return [core.core_id for core in self.chip.cores]

    @property
    def mercurial_cores(self) -> list[Core]:
        return self.chip.mercurial_cores

    @property
    def is_mercurial(self) -> bool:
        return bool(self.chip.mercurial_cores)

    def age_days(self, now_days: float) -> float:
        return max(0.0, now_days - self.deploy_day)

    def online_cores(self) -> list[Core]:
        return [core for core in self.chip.cores if core.online]

    def set_environment(self, env: OperatingPoint = NOMINAL) -> None:
        self.chip.set_environment(env)

    def advance_to(self, now_days: float) -> None:
        """Advance every core's age to match fleet time."""
        target = self.age_days(now_days)
        for core in self.chip.cores:
            if core.age_days < target:
                core.advance_age(target - core.age_days)


def build_small_fleet(
    sku: str,
    n_machines: int,
    cores_per_machine: int,
    root: np.random.Generator,
    defects_for: Callable[[int, str], Sequence[DefectModel]],
    core_prevalence: float = 0.0,
) -> tuple[list[Machine], list[str]]:
    """A hand-placed campaign fleet: ``m00000/c00`` onwards.

    ``defects_for(flat_index, core_id)`` returns the defects of the
    core at that flat slot (empty for a healthy core).  Each core's rng
    seed is drawn from ``root`` in slot order, after anything the
    caller drew first.  Returns ``(machines, bad core ids)``.
    """
    product = CpuProduct(
        vendor="sim", sku=f"{sku}-{cores_per_machine}c",
        cores_per_machine=cores_per_machine, core_prevalence=core_prevalence,
    )
    machines: list[Machine] = []
    bad_core_ids: list[str] = []
    for m in range(n_machines):
        machine_id = f"m{m:05d}"
        cores = []
        for c in range(cores_per_machine):
            core_id = f"{machine_id}/c{c:02d}"
            defects = defects_for(m * cores_per_machine + c, core_id)
            if defects:
                bad_core_ids.append(core_id)
            cores.append(
                Core(
                    core_id,
                    defects=defects,
                    rng=np.random.default_rng(root.integers(2**63)),
                )
            )
        machines.append(
            Machine(machine_id=machine_id, product=product, chip=Chip(cores))
        )
    return machines, bad_core_ids
