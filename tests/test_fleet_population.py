"""Products, population synthesis, lifecycle."""

import numpy as np
import pytest

from repro.detection.corpus import TestCorpus
from repro.fleet.lifecycle import RmaTracker, burn_in
from repro.fleet.machine import Machine
from repro.fleet.population import FleetBuilder
from repro.fleet.product import (
    CpuProduct,
    DEFAULT_PRODUCTS,
    blended_machine_prevalence,
)
from repro.silicon.aging import WeibullOnset
from repro.silicon.catalog import named_case
from repro.silicon.core import Chip, Core


class TestProducts:
    def test_default_portfolio_sane(self):
        assert len(DEFAULT_PRODUCTS) >= 3
        for product in DEFAULT_PRODUCTS:
            assert product.cores_per_machine >= 16
            assert 0 < product.core_prevalence < 1e-3

    def test_machine_prevalence_exceeds_core_prevalence(self):
        product = DEFAULT_PRODUCTS[0]
        assert product.machine_prevalence > product.core_prevalence

    def test_newer_nodes_have_higher_prevalence(self):
        prevalences = [p.core_prevalence for p in DEFAULT_PRODUCTS]
        assert prevalences == sorted(prevalences)

    def test_blended_prevalence_in_paper_band(self):
        """'a few mercurial cores per several thousand machines'."""
        per_kmachine = blended_machine_prevalence() * 1000
        assert 0.2 <= per_kmachine <= 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuProduct("v", "s", cores_per_machine=0, core_prevalence=0.1)
        with pytest.raises(ValueError):
            CpuProduct("v", "s", cores_per_machine=4, core_prevalence=2.0)


class TestFleetBuilder:
    def test_deterministic_under_seed(self):
        a_machines, a_truth = FleetBuilder(seed=5).build_columns(200).to_machines()
        b_machines, b_truth = FleetBuilder(seed=5).build_columns(200).to_machines()
        assert a_truth.mercurial_core_ids == b_truth.mercurial_core_ids
        assert [m.product.sku for m in a_machines] == \
            [m.product.sku for m in b_machines]

    def test_ground_truth_matches_cores(self):
        machines, truth = FleetBuilder(seed=3).build_columns(300).to_machines()
        actual = {
            core.core_id
            for machine in machines
            for core in machine.cores
            if core.is_mercurial
        }
        assert actual == truth.mercurial_core_ids

    def test_incidence_scales_with_prevalence(self):
        dense = [
            CpuProduct("v", "dense", 32, core_prevalence=5e-3,
                       onset=WeibullOnset())
        ]
        truth = FleetBuilder(products=dense, seed=1).build_columns(300).ground_truth()
        assert truth.n_mercurial > 10

    def test_deployment_window(self):
        builder = FleetBuilder(seed=2, deployment_window=(-100.0, 50.0))
        deploys = builder.build_columns(100).machine_deploy_day
        assert deploys.min() >= -100.0 and deploys.max() <= 50.0

    def test_technology_refresh_orders_deployments(self):
        builder = FleetBuilder(
            seed=4, deployment_window=(0.0, 1000.0), technology_refresh=True
        )
        machines, _ = builder.build_columns(800).to_machines()
        by_product: dict[str, list[float]] = {}
        for machine in machines:
            by_product.setdefault(machine.product.sku, []).append(
                machine.deploy_day
            )
        means = [
            sum(by_product[p.sku]) / len(by_product[p.sku])
            for p in DEFAULT_PRODUCTS
            if p.sku in by_product
        ]
        assert means == sorted(means)  # newer SKUs deploy later on average

    def test_ground_truth_map(self):
        columns = FleetBuilder(seed=6).build_columns(100)
        truth_map = columns.ground_truth_map()
        assert len(truth_map) == columns.n_cores
        assert sum(truth_map.values()) == columns.ground_truth().n_mercurial

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FleetBuilder(deployment_window=(10.0, 0.0))

    def test_needs_positive_machines(self):
        with pytest.raises(ValueError):
            FleetBuilder().build_columns(0)


class TestMachine:
    def _machine(self, defective=False):
        cores = [Core(f"mx/c{i}", rng=np.random.default_rng(i)) for i in range(4)]
        if defective:
            cores[2] = Core(
                "mx/c2", defects=named_case("string_bit_flipper"),
                rng=np.random.default_rng(9),
            )
        return Machine("mx", DEFAULT_PRODUCTS[0], Chip(cores), deploy_day=-30.0)

    def test_age_days(self):
        machine = self._machine()
        assert machine.age_days(now_days=70.0) == 100.0

    def test_advance_to_syncs_core_ages(self):
        machine = self._machine()
        machine.advance_to(20.0)
        assert all(core.age_days == 50.0 for core in machine.cores)

    def test_mercurial_detection(self):
        assert not self._machine().is_mercurial
        assert self._machine(defective=True).is_mercurial

    def test_online_cores_excludes_quarantined(self):
        machine = self._machine()
        machine.cores[0].set_online(False)
        assert len(machine.online_cores()) == 3


class TestLifecycle:
    def test_burn_in_rejects_day_zero_defect(self):
        machine = self._machine_with_defect()
        report = burn_in(machine, corpus=TestCorpus.minimal(), repetitions=2)
        assert report.rejected
        assert "bi/c1" in report.confessing_cores

    def test_burn_in_passes_healthy_machine(self):
        cores = [Core(f"bh/c{i}", rng=np.random.default_rng(i)) for i in range(2)]
        machine = Machine("bh", DEFAULT_PRODUCTS[0], Chip(cores))
        report = burn_in(machine, corpus=TestCorpus.minimal())
        assert not report.rejected

    def test_burn_in_misses_latent_defect(self):
        """Late-onset defects pass burn-in: §6's reason post-deployment
        screening must exist."""
        from repro.silicon.aging import AgingProfile
        from repro.silicon.defects import StuckBitDefect
        from repro.silicon.units import FunctionalUnit

        latent = StuckBitDefect(
            "latent", bit=3, base_rate=1e-2, unit=FunctionalUnit.ALU,
            aging=AgingProfile(onset_days=500.0),
        )
        cores = [
            Core("bl/c0", defects=[latent], rng=np.random.default_rng(0)),
        ]
        machine = Machine("bl", DEFAULT_PRODUCTS[0], Chip(cores))
        report = burn_in(machine, corpus=TestCorpus.minimal())
        assert not report.rejected  # escapes into the fleet

    def test_rma_tracker(self):
        tracker = RmaTracker(machine_cost_units=2.0, lead_time_days=20.0)
        tracker.pull(3)
        assert tracker.replacement_cost == 6.0
        assert tracker.capacity_gap_machinedays == 60.0

    def _machine_with_defect(self):
        cores = [
            Core("bi/c0", rng=np.random.default_rng(0)),
            Core("bi/c1", defects=named_case("string_bit_flipper"),
                 rng=np.random.default_rng(1)),
        ]
        return Machine("bi", DEFAULT_PRODUCTS[0], Chip(cores))
