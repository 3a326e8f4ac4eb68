"""Online screening: spare-cycle testing of live cores.

§6: "Online screening, when it can be done in a way that does not
impact concurrent workloads, is free (except for power costs), but
cannot always provide complete coverage of all cores or all symptoms."

The online screener runs a cheap corpus opportunistically: each
scheduling round it gets a *duty cycle* worth of spare capacity and
screens as many cores as fit, in round-robin order.  It tests at the
machine's current operating point (it cannot sweep f/V/T — that is the
offline screener's privilege), so environment-gated defects can hide
from it indefinitely.

This screener walks :class:`~repro.silicon.core.Core` objects one at a
time; its fleet-scale counterpart over columnar fleets is
:mod:`repro.detection.fleetscreen` (batched numpy passes, distilled
batteries, explicit machine-second budgets).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.detection.corpus import TestCorpus
from repro.detection.screener import (
    Automation,
    DeploymentPhase,
    Level,
    Mode,
    ScreenerAxes,
    ScreeningBudget,
    ScreenResult,
)
from repro.silicon.core import Core

AXES = ScreenerAxes(
    automation=Automation.AUTOMATED,
    phase=DeploymentPhase.POST_DEPLOYMENT,
    mode=Mode.ONLINE,
    level=Level.INFRASTRUCTURE,
)


@dataclasses.dataclass
class OnlineScreenerConfig:
    """Tunables for the spare-cycle screener.

    Attributes:
        duty_cycle: fraction of a core-day of spare capacity available
            per core per round (0.01 = 1% of cycles devoted to tests,
            the knob §4 calls "how many cycles devoted to testing").
        ops_per_coreday: calibration constant converting duty cycle to
            an op budget per round.
    """

    duty_cycle: float = 0.01
    ops_per_coreday: float = 5e6

    def ops_budget_per_core(self) -> int:
        """Ops one core may spend on tests in a single round."""
        return int(self.duty_cycle * self.ops_per_coreday)


class OnlineScreener:
    """Round-robin spare-cycle screening over a population of cores."""

    axes = AXES

    def __init__(
        self,
        corpus: TestCorpus | None = None,
        config: OnlineScreenerConfig | None = None,
    ):
        self.corpus = corpus or TestCorpus.minimal()
        self.config = config or OnlineScreenerConfig()
        self.budget = ScreeningBudget()
        self._cursor = 0

    def screen_core(self, core: Core) -> ScreenResult:
        """Screen one core within this round's op budget."""
        ops_budget = self.config.ops_budget_per_core()
        corpus_cost = max(self.corpus.total_ops(), 1)
        repetitions = max(1, ops_budget // corpus_cost)
        result = self.corpus.screen(core, repetitions=repetitions)
        self.budget.add(result)
        return result

    def round(
        self, cores: Sequence[Core], fraction: float = 1.0
    ) -> list[ScreenResult]:
        """Screen a rotating subset of ``cores``.

        ``fraction`` models contention: when the fleet is busy, fewer
        cores get spare cycles this round.  Quarantined/offline cores
        are skipped (they are the offline screener's job).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        count = max(1, int(len(cores) * fraction))
        results = []
        for offset in range(count):
            core = cores[(self._cursor + offset) % len(cores)]
            if not core.online:
                continue
            results.append(self.screen_core(core))
        self._cursor = (self._cursor + count) % max(len(cores), 1)
        return results

    def confessions(self, results: Iterable[ScreenResult]) -> list[ScreenResult]:
        """Filter a round's results down to the cores that confessed."""
        return [result for result in results if result.confessed]
