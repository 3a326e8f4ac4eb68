"""Columnar fleet substrate: materialization, adapters, simulator input.

``FleetColumns`` is the only fleet the simulator runs on.  These tests
check that the two ways out of and into the object world are lossless:
``to_machines()`` materializes exactly what the columns describe, and
``FleetColumns.from_machines`` adapts a hand-built fleet so that it
simulates event-for-event like the builder's own columns.  The outputs
recorded from the retired object-fleet paths are pinned in
``tests/test_fleet_golden.py``.
"""

import dataclasses

import pytest

from repro.fleet.columns import DEFECT_MODE_CODES, FleetColumns, defect_mode_code
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS
from repro.fleet.simulator import FleetSimulator, SimulatorConfig

N_MACHINES = 120


def _builder(seed=11, products=DEFAULT_PRODUCTS):
    return FleetBuilder(
        products=products, seed=seed, deployment_window=(-700.0, 0.0)
    )


def _boosted_products(boost=40.0):
    return tuple(
        dataclasses.replace(p, core_prevalence=p.core_prevalence * boost)
        for p in DEFAULT_PRODUCTS
    )


def _event_stream(result):
    return [
        (e.time_days, e.machine_id, e.core_id, str(e.kind), str(e.reporter),
         e.detail)
        for e in result.events
    ]


def _object_truth_map(machines):
    return {
        core.core_id: core.is_mercurial
        for machine in machines
        for core in machine.cores
    }


class TestBuildParity:
    def test_to_machines_matches_columns(self):
        columns = _builder().build_columns(N_MACHINES)
        machines, truth = columns.to_machines()
        assert [m.machine_id for m in machines] == [
            columns.machine_id(i) for i in range(columns.n_machines)
        ]
        assert [m.deploy_day for m in machines] == (
            columns.machine_deploy_day.tolist()
        )
        cores = [core for machine in machines for core in machine.cores]
        assert [c.core_id for c in cores] == [
            columns.core_id(flat) for flat in range(columns.n_cores)
        ]
        assert [c.is_mercurial for c in cores] == columns.mercurial.tolist()
        assert truth.mercurial_core_ids == columns.ground_truth().mercurial_core_ids
        assert truth.onset_days_by_core == (
            columns.ground_truth().onset_days_by_core
        )

    def test_ground_truth_map_matches_object(self):
        columns = _builder().build_columns(N_MACHINES)
        machines, _ = columns.to_machines()
        assert columns.ground_truth_map() == _object_truth_map(machines)

    def test_counts_and_sizes(self):
        columns = _builder().build_columns(N_MACHINES)
        assert columns.n_machines == N_MACHINES
        assert columns.n_cores == int(columns.core_machine.shape[0])
        assert columns.n_mercurial == int(columns.mercurial.sum())
        assert columns.nbytes > 0


class TestIndexing:
    def test_core_id_index_round_trip(self):
        columns = _builder().build_columns(30)
        for flat in (0, 17, columns.n_cores - 1):
            assert columns.core_index(columns.core_id(flat)) == flat

    def test_unknown_core_id_is_none(self):
        columns = _builder().build_columns(10)
        assert columns.core_index("m99999/c00") is None
        assert columns.core_index("garbage") is None

    def test_machine_core_range_partitions_fleet(self):
        columns = _builder().build_columns(25)
        stops = []
        for index in range(columns.n_machines):
            start, stop = columns.machine_core_range(index)
            assert (columns.core_machine[start:stop] == index).all()
            stops.append((start, stop))
        assert stops[0][0] == 0
        assert stops[-1][1] == columns.n_cores


class TestAdapters:
    def test_from_machines_round_trips_ids(self):
        machines, _ = _builder().build_columns(20).to_machines()
        columns = FleetColumns.from_machines(machines)
        assert columns.n_cores == sum(len(m.cores) for m in machines)
        assert columns.ground_truth_map() == _object_truth_map(machines)

    def test_adapted_columns_refuse_to_materialize(self):
        machines, _ = _builder().build_columns(5).to_machines()
        columns = FleetColumns.from_machines(machines)
        with pytest.raises(ValueError):
            columns.to_machines()

    def test_defect_mode_codes_distinct_and_nonzero(self):
        codes = set(DEFECT_MODE_CODES.values())
        assert len(codes) == len(DEFECT_MODE_CODES)
        assert 0 not in codes  # 0 is reserved for "healthy"
        assert defect_mode_code(()) == 0

    def test_thaw_copies_mutable_state_only(self):
        columns = _builder().build_columns(10)
        thawed = columns.thaw()
        thawed.online[0] = False
        assert bool(columns.online[0]) is True
        # immutable columns are shared, not copied
        assert thawed.core_machine is columns.core_machine


class TestSimulatorParity:
    CONFIG = SimulatorConfig(horizon_days=60.0, warmup_days=0.0)

    def _builder_result(self):
        columns = _builder(products=_boosted_products()).build_columns(150)
        return FleetSimulator(columns, self.CONFIG, seed=3).run()

    def _adapted_result(self):
        machines, _ = (
            _builder(products=_boosted_products()).build_columns(150).to_machines()
        )
        return FleetSimulator(
            FleetColumns.from_machines(machines), self.CONFIG, seed=3
        ).run()

    def test_event_streams_bit_identical(self):
        built = self._builder_result()
        adapted = self._adapted_result()
        assert _event_stream(built) == _event_stream(adapted)
        assert built.quarantine_day == adapted.quarantine_day
        assert built.detection_latency_days == adapted.detection_latency_days
        assert built.total_corruptions == adapted.total_corruptions
        assert built.app_visible_corruptions == (
            adapted.app_visible_corruptions
        )
        assert built.screening_ops_spent == adapted.screening_ops_spent

    def test_truth_derived_from_columns(self):
        columns = _builder().build_columns(40)
        sim = FleetSimulator(
            columns,
            config=SimulatorConfig(horizon_days=1.0, warmup_days=0.0),
            seed=1,
        )
        assert sim.truth.n_mercurial == columns.n_mercurial
        assert sorted(sim.truth.mercurial_core_ids) == sorted(
            columns.core_id(int(flat)) for flat in columns.merc_core
        )


class TestMercurialViews:
    def test_merc_defects_match_materialized_cores(self):
        columns = _builder(products=_boosted_products()).build_columns(60)
        machines, _ = (
            _builder(products=_boosted_products()).build_columns(60).to_machines()
        )
        core_by_id = {
            c.core_id: c for m in machines for c in m.cores
        }
        assert columns.n_mercurial > 0
        for index in range(columns.n_mercurial):
            flat = int(columns.merc_core[index])
            core = core_by_id[columns.core_id(flat)]
            assert tuple(repr(d) for d in columns.merc_defects(index)) == (
                tuple(repr(d) for d in core.defects)
            )
