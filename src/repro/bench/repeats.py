"""Repeated-run statistics.

Section 4.2: "We repeated the same experiments multiple times and observed
more or less the same results."  The simulation is deterministic given a
seed, so repetition here means *different seeds* (sampling order, model
init); this module aggregates the spread so benches can assert the
paper's stability claim quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bench.harness import run_training_experiment


@dataclass(frozen=True)
class RepeatedStats:
    """Mean / standard deviation / coefficient of variation for one metric."""

    values: tuple

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (Bessel-corrected, N−1 denominator).

        Benches run 3–5 seed repeats; the population formula (N) would
        understate the spread at that N.  A single value carries no spread
        information, so N=1 reports 0.
        """
        n = len(self.values)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (n - 1))

    @property
    def cov(self) -> float:
        """std / |mean| (0 for a perfectly stable metric)."""
        mu = self.mean
        return self.std / abs(mu) if mu else 0.0


def run_repeated(seeds: Sequence[int], **experiment_kwargs) -> Dict[str, RepeatedStats]:
    """Run one training experiment once per seed; aggregate key metrics."""
    if not seeds:
        raise ValueError("need at least one seed")
    totals: List[float] = []
    sampling: List[float] = []
    energy: List[float] = []
    for seed in seeds:
        result = run_training_experiment(seed=seed, **experiment_kwargs)
        totals.append(result.total_time)
        sampling.append(result.phases.get("sampling", 0.0))
        energy.append(result.total_energy)
    return {
        "total_time": RepeatedStats(tuple(totals)),
        "sampling": RepeatedStats(tuple(sampling)),
        "energy": RepeatedStats(tuple(energy)),
    }
