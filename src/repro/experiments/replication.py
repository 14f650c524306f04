"""Multi-seed replication of experiments.

One simulation run gives one number; referees want error bars.  This
module re-runs any seedable experiment metric across independent seeds
(optionally in parallel processes) and reports a Student-t confidence
interval over the replications — the standard independent-replications
method, complementing the within-run batch-means tools in
:mod:`repro.metrics.statistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..metrics import MeanCI, t_quantile
from .parallel import run_grid

__all__ = ["Replication", "replicate"]


@dataclass(frozen=True)
class Replication:
    """Replicated metric: per-seed values + the CI across replications."""

    values: tuple
    seeds: tuple
    ci: MeanCI

    def __len__(self) -> int:
        return len(self.values)


def replicate(
    metric: Callable[..., float],
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    confidence: float = 0.95,
    n_workers: Optional[int] = 1,
    **fixed_kwargs,
) -> Replication:
    """Run ``metric(seed=s, **fixed_kwargs)`` for each seed; CI over seeds.

    ``metric`` must be a module-level callable returning a float (it is
    shipped to worker processes when ``n_workers > 1``).
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for a confidence interval")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    grid = {"seed": list(seeds)}
    if fixed_kwargs:
        # Fixed parameters become single-value grid axes.
        for key, value in fixed_kwargs.items():
            grid[key] = [value]
    results = run_grid(metric, grid, n_workers=n_workers)
    # run_grid expands seed-major (seed is the first key): order preserved.
    values = tuple(float(r.value) for r in results)
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = t_quantile(0.5 + confidence / 2, n - 1)
    half = t * math.sqrt(var / n)
    return Replication(
        values=values,
        seeds=tuple(seeds),
        ci=MeanCI(mean=mean, half_width=half, confidence=confidence, n=n),
    )
