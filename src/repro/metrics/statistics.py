"""Output-analysis statistics for simulation studies.

Response-time samples from one simulation run are autocorrelated (closed-
loop clients, shared queues), so naive standard errors lie.  This module
provides the standard remedies:

* :func:`mser5_truncation` — MSER-5 warm-up detection: drop the initial
  transient before estimating steady-state means;
* :func:`batch_means_ci` — non-overlapping batch means with a Student-t
  confidence interval (valid when batches are long enough to decorrelate);
* :func:`compare_runs` — Welch's t-style comparison of two alternatives
  (e.g. caching on vs. off), returning the difference CI;
* :func:`t_quantile` — the Student-t quantile those intervals use, in
  pure Python (the regularized incomplete beta function, inverted by
  bisection), so confidence intervals need no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "mser5_truncation", "batch_means_ci", "compare_runs", "MeanCI", "t_quantile",
]


@dataclass(frozen=True)
class MeanCI:
    """A point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz).

    Converges quickly for ``x < (a + 1) / (a + b + 2)``.
    """
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, h = 1.0, d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2)`` to within a few ulp for every ``a > 0``.

    ``lgamma(a) - lgamma(a + 1/2)`` cancels two numbers of size
    ``a log a``, so for large ``a`` the difference comes from Stirling's
    series with the large terms cancelled by hand instead.
    """
    half_log_pi = 0.5 * math.log(math.pi)
    if a < 20.0:
        return math.lgamma(a) + half_log_pi - math.lgamma(a + 0.5)

    def stirling_tail(z: float) -> float:
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z2)) / z2) / z2) / z

    # lgamma(a + 1/2) - lgamma(a); truncating the series costs < 1e-15.
    gap = (
        (a * math.log1p(0.5 / a) - 0.5) + 0.5 * math.log(a)
        + stirling_tail(a + 0.5) - stirling_tail(a)
    )
    return half_log_pi - gap


def _t_tails(t: float, df: float) -> Tuple[float, float]:
    """``(P(T > t), P(0 < T <= t))`` for ``t >= 0``.

    Both come from the regularized incomplete beta function at
    ``x = df / (df + t^2)``.  The one that can get small is computed
    directly and the other as ``0.5`` minus it, so neither loses
    relative precision to cancellation.
    """
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x without cancellation
    if x == 0.0 or y == 0.0:
        return 0.5 * x, 0.5 * y
    a = 0.5 * df
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        upper = 0.5 * front * _beta_cf(a, 0.5, x) / a
        return upper, 0.5 - upper
    center = front * _beta_cf(0.5, a, y)
    return 0.5 - center, center


def t_quantile(p: float, df: float) -> float:
    """The ``p`` quantile of Student's t with ``df`` degrees of freedom.

    Bisects a tail probability to the last representable bit.  For
    ``p <= 0.1`` or ``p >= 0.9`` it matches ``scipy.stats.t.ppf`` to 5e-14
    relative error for ``df`` up to 1e4.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    if not df > 0:
        raise ValueError(f"df must be positive, got {df}")
    if p == 0.5:
        return 0.0
    # Both targets are exact in floating point (Sterbenz), and the one
    # matched is the smaller, so its relative precision is what counts.
    q = 1.0 - p if p > 0.5 else p
    central = 0.5 - q

    def below(t: float) -> bool:
        upper, center = _t_tails(t, df)
        return upper > q if q <= 0.25 else center < central

    lo, hi = 0.0, 1.0
    while below(hi):
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi if p > 0.5 else -hi


def mser5_truncation(samples: Sequence[float]) -> int:
    """MSER-5 warm-up truncation point (in samples).

    Averages the series into batches of 5, then picks the truncation that
    minimizes the marginal standard error of the remaining batch means.
    Returns the number of *samples* to drop from the front.  Searches only
    the first half of the series (the standard guard against degenerate
    late minima).
    """
    samples = list(samples)
    if len(samples) < 10:
        return 0
    batch = 5
    n_batches = len(samples) // batch
    means = [
        sum(samples[i * batch:(i + 1) * batch]) / batch
        for i in range(n_batches)
    ]
    best_d, best_stat = 0, math.inf
    for d in range(n_batches // 2):
        tail = means[d:]
        m = len(tail)
        mu = sum(tail) / m
        var = sum((x - mu) ** 2 for x in tail) / m
        stat = var / m  # MSER statistic
        if stat < best_stat:
            best_stat = stat
            best_d = d
    return best_d * batch


def batch_means_ci(
    samples: Sequence[float],
    n_batches: int = 20,
    confidence: float = 0.95,
    truncate: bool = True,
) -> MeanCI:
    """Steady-state mean with a batch-means confidence interval."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    samples = list(samples)
    if truncate:
        samples = samples[mser5_truncation(samples):]
    if len(samples) < n_batches:
        raise ValueError(
            f"only {len(samples)} samples for {n_batches} batches"
        )
    size = len(samples) // n_batches
    batches = [
        sum(samples[i * size:(i + 1) * size]) / size for i in range(n_batches)
    ]
    mean = sum(batches) / n_batches
    var = sum((b - mean) ** 2 for b in batches) / (n_batches - 1)
    se = math.sqrt(var / n_batches)
    t = t_quantile(0.5 + confidence / 2, n_batches - 1)
    return MeanCI(
        mean=mean, half_width=t * se, confidence=confidence,
        n=len(samples),
    )


def compare_runs(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = 0.95,
    n_batches: int = 20,
) -> Tuple[MeanCI, MeanCI, MeanCI]:
    """Compare two alternatives: returns (mean_a, mean_b, mean_a - mean_b).

    The difference CI combines the two batch-means standard errors
    (Welch); if it excludes zero, the alternatives differ significantly.
    """
    ci_a = batch_means_ci(a, n_batches=n_batches, confidence=confidence)
    ci_b = batch_means_ci(b, n_batches=n_batches, confidence=confidence)
    t = t_quantile(0.5 + confidence / 2, n_batches - 1)
    se_a = ci_a.half_width / t
    se_b = ci_b.half_width / t
    se_diff = math.sqrt(se_a**2 + se_b**2)
    diff = MeanCI(
        mean=ci_a.mean - ci_b.mean,
        half_width=t * se_diff,
        confidence=confidence,
        n=min(ci_a.n, ci_b.n),
    )
    return ci_a, ci_b, diff
