"""Measurement helper: a streaming tally of observations."""

from __future__ import annotations

import math
from typing import List

__all__ = ["Tally"]


class Tally:
    """Streaming summary of observations (count / mean / variance / extrema).

    Uses Welford's algorithm so long runs stay numerically stable; raw
    samples are optionally retained for percentile queries.
    """

    def __init__(self, name: str = "", keep_samples: bool = True):
        self.name = name
        self.keep_samples = keep_samples
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.keep_samples:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0 if self.count == 1 else math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-safe

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not self.keep_samples:
            raise RuntimeError(f"Tally {self.name!r} does not keep samples")
        if not self.samples:
            return math.nan
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        # data[lo] + frac * delta (not the two-product lerp): exact when
        # the bracketing samples are equal, and always bounded by them --
        # the symmetric form can round denormals non-monotonically.
        return data[lo] + frac * (data[hi] - data[lo])

    def to_dict(self) -> dict:
        """JSON-safe summary: NaN fields (empty tally) become ``None``.

        ``json.dumps`` would happily emit bare ``NaN`` tokens, which are
        not valid JSON and break strict loaders — the profiler exports go
        through this instead.
        """
        def _num(value: float):
            return None if value != value else value

        out = {
            "count": self.count,
            "total": self.total,
            "mean": _num(self.mean),
            "stdev": _num(self.stdev),
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
        }
        if self.keep_samples:
            out["p50"] = _num(self.percentile(50))
            out["p99"] = _num(self.percentile(99))
        return out

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one (parallel-merge of Welford state)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
        else:
            n1, n2 = self.count, other.count
            delta = other._mean - self._mean
            total = n1 + n2
            self._mean += delta * n2 / total
            self._m2 += other._m2 + delta * delta * n1 * n2 / total
            self.count = total
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        if self.keep_samples and other.keep_samples:
            self.samples.extend(other.samples)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if not self.count:
            return f"<Tally {self.name!r} empty>"
        return (
            f"<Tally {self.name!r} n={self.count} mean={self.mean:.6g} "
            f"min={self.minimum:.6g} max={self.maximum:.6g}>"
        )
