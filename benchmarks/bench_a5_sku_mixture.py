"""Ablation A5 — SKU-mixture heterogeneity (DESIGN.md §5).

§2: "the rate is not uniform across CPU products."  Compare fleets of
only-old vs only-new SKUs vs the default mixture; incidence should
track the §5 scaling argument (newer, denser nodes fail more).
"""

from benchmarks.conftest import scaled
from repro.analysis.figures import render_table
from repro.fleet.population import FleetBuilder
from repro.fleet.product import DEFAULT_PRODUCTS


def run_sku_ablation(n_machines=6000, seed=5):
    portfolios = {
        "oldest SKU only": (DEFAULT_PRODUCTS[0],),
        "default mixture": DEFAULT_PRODUCTS,
        "newest SKU only": (DEFAULT_PRODUCTS[-1],),
    }
    rows = []
    rates = {}
    for label, products in portfolios.items():
        truth = (
            FleetBuilder(products=products, seed=seed)
            .build_columns(n_machines).ground_truth()
        )
        rate = 1000.0 * truth.n_mercurial / n_machines
        rates[label] = rate
        rows.append([label, truth.n_mercurial, f"{rate:.2f}"])
    return rates, render_table(
        ["portfolio", "mercurial cores", "per 1000 machines"],
        rows,
        title=f"A5: SKU-mixture ablation ({n_machines} machines)",
    )


def test_a5_sku_mixture(benchmark, show):
    rates, rendered = benchmark.pedantic(
        run_sku_ablation, kwargs=dict(n_machines=scaled(2000, 6000)),
        rounds=1, iterations=1,
    )
    show(rendered)
    assert rates["newest SKU only"] > rates["oldest SKU only"]
    assert rates["oldest SKU only"] <= rates["default mixture"] <= \
        rates["newest SKU only"]
