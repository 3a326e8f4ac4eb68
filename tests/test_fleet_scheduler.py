"""Core-aware scheduler."""

from repro.fleet.population import FleetBuilder
from repro.fleet.scheduler import FleetScheduler, Task
from repro.silicon.units import FunctionalUnit, Op


def _small_fleet(n=4, seed=0):
    machines, _ = FleetBuilder(seed=seed).build_columns(n).to_machines()
    return machines


class TestScheduling:
    def test_all_tasks_placed_with_capacity(self):
        machines = _small_fleet()
        scheduler = FleetScheduler(machines)
        tasks = [Task(f"t{i}") for i in range(10)]
        placements, stats = scheduler.schedule(tasks)
        assert stats.placed == 10
        assert stats.unplaceable == 0
        assert len({p.core_id for p in placements}) == 10

    def test_quarantined_core_not_scheduled(self):
        machines = _small_fleet()
        victim = machines[0].cores[0]
        victim.set_online(False)
        scheduler = FleetScheduler(machines)
        online, total = scheduler.capacity()
        assert total - online == 1
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)]
        )
        assert stats.unplaceable == 1
        assert victim.core_id not in {p.core_id for p in placements}

    def test_stranded_fraction(self):
        machines = _small_fleet()
        total = sum(len(m.cores) for m in machines)
        for core in machines[0].cores:
            core.set_online(False)
        _, stats = FleetScheduler(machines).schedule([])
        assert stats.stranded_fraction == len(machines[0].cores) / total

    def test_exclude_core_ids_skips_those_slots(self):
        machines = _small_fleet()
        scheduler = FleetScheduler(machines)
        excluded = {machines[0].cores[0].core_id,
                    machines[0].cores[1].core_id}
        _, total = scheduler.capacity()
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)],
            exclude_core_ids=excluded,
        )
        assert excluded.isdisjoint({p.core_id for p in placements})
        assert stats.slots_excluded == len(excluded)
        assert stats.unplaceable == len(excluded)

    def test_exclusion_composes_with_quarantine(self):
        machines = _small_fleet()
        quarantined = machines[0].cores[0]
        quarantined.set_online(False)
        excluded = machines[0].cores[1].core_id
        scheduler = FleetScheduler(machines)
        _, total = scheduler.capacity()
        placements, stats = scheduler.schedule(
            [Task(f"t{i}") for i in range(total)],
            exclude_core_ids={excluded},
        )
        placed_on = {p.core_id for p in placements}
        assert quarantined.core_id not in placed_on
        assert excluded not in placed_on
        assert stats.slots_excluded == 1  # quarantine counted separately


class TestSafeTaskPlacement:
    def test_safe_task_reclaims_quarantined_core(self):
        machines = _small_fleet()
        victim = machines[0].cores[0]
        victim.set_online(False)
        scheduler = FleetScheduler(
            machines,
            allow_safe_tasks=True,
            implicated_units_by_core={
                victim.core_id: frozenset({FunctionalUnit.VECTOR})
            },
        )
        online, total = scheduler.capacity()
        scalar_mix = {Op.ADD: 1.0}
        tasks = [Task(f"t{i}", op_mix=scalar_mix) for i in range(total)]
        placements, stats = scheduler.schedule(tasks)
        assert stats.placed == total
        assert stats.placed_on_quarantined == 1
        assert any(p.on_quarantined_core for p in placements)

    def test_unsafe_task_not_placed_on_quarantined_core(self):
        machines = _small_fleet()
        victim = machines[0].cores[0]
        victim.set_online(False)
        scheduler = FleetScheduler(
            machines,
            allow_safe_tasks=True,
            implicated_units_by_core={
                victim.core_id: frozenset({FunctionalUnit.VECTOR})
            },
        )
        _, total = scheduler.capacity()
        vector_mix = {Op.VADD: 1.0}
        tasks = [Task(f"t{i}", op_mix=vector_mix) for i in range(total)]
        _, stats = scheduler.schedule(tasks)
        assert stats.placed_on_quarantined == 0
        assert stats.unplaceable == 1
