"""Streaming telemetry: windowed rates, quantile sketches, SLO detection.

Every other observability layer here (oracle, profiler, critical path)
is post-hoc: it reports after the run ends.  This module watches the run
*as it happens* the way an operator would — fixed-width sim-time windows
of request rate, hit ratio and per-outcome latency, with the latency
distribution summarised by a small mergeable t-digest instead of
stored samples — and flags the window in which the cluster stops
keeping up.

Like the oracle and profiler it is perturbation-free: nothing here
schedules simulation events or draws random numbers.  Windows close
*lazily*, driven by the timestamps of the observations themselves (plus
one :meth:`StreamingTelemetry.finalize` call at run end), so a run with
streaming attached is bit-identical to the same seed without it — unlike
:class:`~repro.obs.timeseries.TimeSeriesSampler`, which schedules
timeout events and therefore changes the event sequence.

The saturation detector flags a closed window when any configured
:class:`SLO` bound is crossed:

* ``p99_latency`` — the window's sketched p99 response time;
* ``max_queue_growth`` — growth of the queue depth (backlog of
  in-flight requests: arrivals minus completions) across the window;
* ``max_rho`` — Little's-law utilisation ρ = λ·W / c (completions-rate
  times mean residence time over server count): ρ > 1 cannot be
  sustained by any work-conserving system.

Saturation is *declared* after ``consecutive`` flagged windows in a row
— single-window blips (a burst, one slow CGI) do not count.  ``repro
capacity`` bisects arrival rate against this predicate to find the knee.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..metrics.ascii import sparkline
from .ioutil import export_jsonl, jsonl_text, read_text

__all__ = [
    "HIT_OUTCOMES",
    "MISS_OUTCOMES",
    "TDigest",
    "EwmaRate",
    "SLO",
    "StreamingWindow",
    "StreamingTelemetry",
    "exact_percentile",
    "rank_error",
    "load_streaming",
    "render_streaming_dashboard",
    "collect_streaming",
]

#: Outcomes that count as cache hits / misses for the windowed hit
#: ratio; ``file`` (static documents) is neither — the paper's hit
#: ratios are over dynamic (CGI) requests only.
HIT_OUTCOMES = frozenset({"local-cache", "remote-cache"})
MISS_OUTCOMES = frozenset({"exec"})


def exact_percentile(sorted_data: Sequence[float], p: float) -> float:
    """Linear-interpolated quantile of pre-sorted data, ``p`` in [0, 1].

    Mirrors :meth:`repro.sim.Tally.percentile` (which takes [0, 100]) so
    sketch cross-validation compares against the exact same definition.
    """
    n = len(sorted_data)
    if n == 0:
        return math.nan
    if n == 1:
        return sorted_data[0]
    pos = p * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_data[lo] + frac * (sorted_data[hi] - sorted_data[lo])


def rank_error(samples: Sequence[float], estimate: float, p: float) -> float:
    """How far ``estimate`` sits from rank ``p`` in ``samples``, in rank units.

    The metric is *quantization-aware*: the estimate is first snapped to
    its nearest observed sample value(s), then charged the distance from
    rank ``p`` to that sample's rank interval (ties make a whole
    interval of values "exactly right"; equidistant neighbours take the
    better of the two).  Interpolating estimators — including
    :func:`exact_percentile` itself — legitimately return values that
    fall *between* samples; their realized rank would otherwise jump a
    whole tie-run for an infinitesimal value perturbation.  This is the
    metric the sketch error bounds are stated in: *value* error is
    unbounded on heavy-tailed data, rank error is not.
    """
    n = len(samples)
    if n == 0:
        return math.nan
    data = sorted(samples)
    i = bisect.bisect_left(data, estimate)
    nearest: List[float] = []
    if i < n:
        nearest.append(data[i])
    if i > 0:
        nearest.append(data[i - 1])
    best = min(abs(v - estimate) for v in nearest)
    errors: List[float] = []
    for value in nearest:
        if abs(value - estimate) > best:
            continue
        lo = bisect.bisect_left(data, value) / n
        hi = bisect.bisect_right(data, value) / n
        if lo <= p <= hi:
            errors.append(0.0)
        else:
            errors.append(p - hi if p > hi else lo - p)
    return min(errors, key=abs)


class TDigest:
    """A small merging t-digest (no RNG, deterministic, mergeable).

    Centroids are kept under Dunning's ``k1`` scale function — clusters
    are tiny near the tails and widest at the median — so tail quantiles
    stay sharp in bounded memory.  Incoming values buffer and are merged
    in sorted order; everything is a deterministic function of the
    observation sequence, so same-seed runs sketch identically.

    While the digest holds at most ``compression`` points it also keeps
    the raw samples and answers :meth:`quantile` exactly — a few points
    (a short window, heavy ties) are where centroid interpolation errs
    most, and they cost no more to store than the centroids would.

    Documented bound (validated by the property tests): with the default
    ``compression`` the quantile estimate's *rank* error is at most
    ``RANK_ERROR_BOUND`` — value error follows from the local sample
    density, which on heavy tails can be large; compare ranks, not
    values.
    """

    #: Absolute rank-error bound at the default compression, asserted by
    #: the hypothesis property tests on adversarial streams.
    RANK_ERROR_BOUND = 0.05

    __slots__ = ("compression", "_means", "_weights", "_buffer", "_count",
                 "_min", "_max", "_samples")

    def __init__(self, compression: float = 100.0):
        if compression < 20:
            raise ValueError(f"compression too small: {compression}")
        self.compression = float(compression)
        self._means: List[float] = []
        self._weights: List[float] = []
        self._buffer: List[float] = []
        self._count = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Every observation while ``count <= compression``, else None.
        self._samples: Optional[List[float]] = []

    @property
    def count(self) -> float:
        return self._count

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    def observe(self, x: float) -> None:
        x = float(x)
        self._buffer.append(x)
        self._count += 1.0
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        if self._samples is not None:
            if self._count <= self.compression:
                self._samples.append(x)
            else:
                self._samples = None
        if len(self._buffer) >= 4 * int(self.compression):
            self._compress()

    def merge(self, other: "TDigest") -> None:
        """Fold ``other`` into this digest (windows stay mergeable)."""
        if other._count == 0.0:
            return
        other._compress()
        if (self._samples is not None and other._samples is not None
                and self._count + other._count <= self.compression):
            self._samples.extend(other._samples)
        else:
            self._samples = None
        self._means.extend(other._means)
        self._weights.extend(other._weights)
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        # Force: extending may have left the centroid list unsorted, and
        # quantile() relies on sorted centroids even below the
        # compression threshold where _compress would normally no-op.
        self._compress(force=True)

    def _k(self, q: float) -> float:
        q = min(1.0, max(0.0, q))
        return self.compression * math.asin(2.0 * q - 1.0) / (2.0 * math.pi)

    def _compress(self, force: bool = False) -> None:
        if not force and not self._buffer \
                and len(self._means) <= int(self.compression):
            return
        points = sorted(
            [(m, w) for m, w in zip(self._means, self._weights)]
            + [(v, 1.0) for v in self._buffer]
        )
        self._buffer = []
        if not points:
            return
        total = sum(w for _, w in points)
        means: List[float] = []
        weights: List[float] = []
        cum = 0.0  # weight fully merged into `means`
        cur_mean, cur_weight = points[0]
        k_lo = self._k(0.0)
        for mean, weight in points[1:]:
            if self._k((cum + cur_weight + weight) / total) - k_lo <= 1.0:
                cur_weight += weight
                cur_mean += (mean - cur_mean) * (weight / cur_weight)
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                cum += cur_weight
                cur_mean, cur_weight = mean, weight
                k_lo = self._k(cum / total)
        means.append(cur_mean)
        weights.append(cur_weight)
        self._means, self._weights = means, weights

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0.0:
            return math.nan
        if self._samples is not None:
            self._samples.sort()
            return exact_percentile(self._samples, q)
        self._compress()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = q * self._count
        # Centroid i "sits" at the midpoint of its weight span.
        if target <= weights[0] / 2.0:
            span = weights[0] / 2.0
            frac = target / span if span > 0 else 1.0
            return self._min + frac * (means[0] - self._min)
        cum = 0.0
        for i in range(len(means) - 1):
            mid_i = cum + weights[i] / 2.0
            mid_j = cum + weights[i] + weights[i + 1] / 2.0
            if target <= mid_j:
                span = mid_j - mid_i
                frac = (target - mid_i) / span if span > 0 else 0.0
                return means[i] + frac * (means[i + 1] - means[i])
            cum += weights[i]
        mid_last = cum + weights[-1] / 2.0
        span = self._count - mid_last
        frac = (target - mid_last) / span if span > 0 else 1.0
        return means[-1] + min(1.0, frac) * (self._max - means[-1])

    def centroid_count(self) -> int:
        self._compress()
        return len(self._means)

    def to_state(self) -> Dict[str, Any]:
        """Exact centroid state (buffer compressed first, raw samples
        sorted), picklable.

        A :meth:`from_state` round trip reproduces the digest bit-for-bit
        — the same centroids a local :meth:`quantile` call would have
        compressed to — so exports from a shipped sketch are
        byte-identical to exports from the original.
        """
        self._compress()
        samples = self._samples
        return {
            "compression": self.compression,
            "means": list(self._means),
            "weights": list(self._weights),
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "samples": sorted(samples) if samples is not None else None,
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "TDigest":
        digest = TDigest(state["compression"])
        digest._means = list(state["means"])
        digest._weights = list(state["weights"])
        digest._count = state["count"]
        digest._min = state["min"]
        digest._max = state["max"]
        samples = state["samples"]
        digest._samples = list(samples) if samples is not None else None
        return digest

    def __repr__(self) -> str:
        return (
            f"<TDigest n={self._count:.0f} centroids={len(self._means)} "
            f"buffered={len(self._buffer)}>"
        )


class EwmaRate:
    """Exponentially weighted moving average with a half-life in sim-time.

    ``update(sample, dt)`` folds one windowed sample in; the decay per
    update is ``0.5 ** (dt / halflife)`` so irregular window widths
    still age uniformly.
    """

    __slots__ = ("halflife", "_value", "_primed")

    def __init__(self, halflife: float):
        if halflife <= 0:
            raise ValueError(f"halflife must be positive, got {halflife}")
        self.halflife = float(halflife)
        self._value = 0.0
        self._primed = False

    @property
    def value(self) -> float:
        return self._value if self._primed else math.nan

    def update(self, sample: float, dt: float) -> float:
        if not self._primed:
            self._value = float(sample)
            self._primed = True
        else:
            alpha = 0.5 ** (dt / self.halflife)
            self._value = alpha * self._value + (1.0 - alpha) * float(sample)
        return self._value


@dataclass(frozen=True)
class SLO:
    """Saturation thresholds; any crossing flags the window.

    Unset bounds (``inf``) never fire.  ``consecutive`` flagged windows
    in a row declare saturation; the first ``warmup_windows`` windows are
    exempt (a cold cache makes every early request look slow).
    """

    p99_latency: float = math.inf
    max_rho: float = math.inf
    max_queue_growth: float = math.inf
    consecutive: int = 3
    warmup_windows: int = 2

    def to_dict(self) -> Dict[str, Any]:
        def _num(x: float) -> Optional[float]:
            return None if math.isinf(x) else x

        return {
            "p99_latency": _num(self.p99_latency),
            "max_rho": _num(self.max_rho),
            "max_queue_growth": _num(self.max_queue_growth),
            "consecutive": self.consecutive,
            "warmup_windows": self.warmup_windows,
        }


def _json_num(x: float) -> Optional[float]:
    """NaN/inf → None (JSON has neither); keeps exports loadable."""
    if x != x or math.isinf(x):
        return None
    return x


class StreamingWindow:
    """One fixed-width window of windowed telemetry.

    Aggregates counts and latency sketches for completions whose finish
    time falls in ``[t0, t1)``; closed exactly once, when a later
    observation (or :meth:`StreamingTelemetry.finalize`) proves the
    window is over.
    """

    __slots__ = (
        "run", "index", "t0", "t1",
        "arrivals", "completions", "errors", "hits", "misses",
        "latency_sum", "latency_min", "latency_max",
        "digest",
        "by_outcome",
        "queue_depth", "queue_growth", "rho", "signals", "closed",
    )

    def __init__(self, run: int, index: int, t0: float, t1: float,
                 compression: float = 100.0):
        self.run = run
        self.index = index
        self.t0 = t0
        self.t1 = t1
        self.arrivals = 0
        self.completions = 0
        self.errors = 0
        self.hits = 0
        self.misses = 0
        self.latency_sum = 0.0
        self.latency_min = math.inf
        self.latency_max = -math.inf
        self.digest = TDigest(compression)
        self.by_outcome: Dict[str, List[float]] = {}
        self.queue_depth = 0.0
        self.queue_growth = 0.0
        self.rho = 0.0
        self.signals: List[str] = []
        self.closed = False

    @property
    def width(self) -> float:
        return self.t1 - self.t0

    @property
    def rate(self) -> float:
        """Completion throughput over the window, req/s."""
        return self.completions / self.width if self.width > 0 else 0.0

    @property
    def arrival_rate(self) -> float:
        return self.arrivals / self.width if self.width > 0 else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.completions if self.completions else math.nan

    @property
    def hit_ratio(self) -> float:
        cacheable = self.hits + self.misses
        return self.hits / cacheable if cacheable else math.nan

    @property
    def p50(self) -> float:
        return self.digest.quantile(0.5)

    @property
    def p99(self) -> float:
        return self.digest.quantile(0.99)

    @property
    def saturated(self) -> bool:
        return bool(self.signals)

    def observe(self, outcome: str, latency: float, ok: bool = True) -> None:
        self.completions += 1
        if not ok:
            self.errors += 1
        if outcome in HIT_OUTCOMES:
            self.hits += 1
        elif outcome in MISS_OUTCOMES:
            self.misses += 1
        self.latency_sum += latency
        if latency < self.latency_min:
            self.latency_min = latency
        if latency > self.latency_max:
            self.latency_max = latency
        self.digest.observe(latency)
        stats = self.by_outcome.get(outcome)
        if stats is None:
            self.by_outcome[outcome] = [1.0, latency]
        else:
            stats[0] += 1.0
            stats[1] += latency

    def merge(self, other: "StreamingWindow") -> "StreamingWindow":
        """Combine two windows (associative on counts, sums and sketches).

        Used to coarsen resolution after the fact — e.g. folding 100ms
        windows into 1s windows for a dashboard — without re-running.
        """
        out = StreamingWindow(
            self.run, min(self.index, other.index),
            min(self.t0, other.t0), max(self.t1, other.t1),
            compression=self.digest.compression,
        )
        for src in (self, other):
            out.arrivals += src.arrivals
            out.completions += src.completions
            out.errors += src.errors
            out.hits += src.hits
            out.misses += src.misses
            out.latency_sum += src.latency_sum
            out.latency_min = min(out.latency_min, src.latency_min)
            out.latency_max = max(out.latency_max, src.latency_max)
            out.digest.merge(src.digest)
            for outcome, (count, total) in src.by_outcome.items():
                stats = out.by_outcome.setdefault(outcome, [0.0, 0.0])
                stats[0] += count
                stats[1] += total
        out.queue_depth = other.queue_depth if other.t1 >= self.t1 else self.queue_depth
        return out

    def to_state(self) -> Dict[str, Any]:
        """Full-fidelity picklable state (unlike :meth:`to_dict`, which
        is the lossy export form): sketches round-trip exactly, so a
        window shipped across a process boundary exports byte-identically
        to the original."""
        return {
            "run": self.run,
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "errors": self.errors,
            "hits": self.hits,
            "misses": self.misses,
            "latency_sum": self.latency_sum,
            "latency_min": self.latency_min,
            "latency_max": self.latency_max,
            "digest": self.digest.to_state(),
            "by_outcome": {k: list(v) for k, v in self.by_outcome.items()},
            "queue_depth": self.queue_depth,
            "queue_growth": self.queue_growth,
            "rho": self.rho,
            "signals": list(self.signals),
            "closed": self.closed,
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "StreamingWindow":
        window = StreamingWindow(
            state["run"], state["index"], state["t0"], state["t1"],
            compression=state["digest"]["compression"],
        )
        for attr in (
            "arrivals", "completions", "errors", "hits", "misses",
            "latency_sum", "latency_min", "latency_max",
            "queue_depth", "queue_growth", "rho", "closed",
        ):
            setattr(window, attr, state[attr])
        window.digest = TDigest.from_state(state["digest"])
        window.by_outcome = {k: list(v) for k, v in state["by_outcome"].items()}
        window.signals = list(state["signals"])
        return window

    def to_dict(self) -> Dict[str, Any]:
        has_latency = self.completions > 0
        return {
            "type": "window",
            "run": self.run,
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "errors": self.errors,
            "hits": self.hits,
            "misses": self.misses,
            "rate": self.rate,
            "arrival_rate": self.arrival_rate,
            "hit_ratio": _json_num(self.hit_ratio),
            "latency": {
                "mean": _json_num(self.mean_latency),
                "min": _json_num(self.latency_min) if has_latency else None,
                "max": _json_num(self.latency_max) if has_latency else None,
                "p50": _json_num(self.p50),
                "p99": _json_num(self.p99),
            },
            "outcomes": {
                outcome: {"count": count, "mean": total / count if count else None}
                for outcome, (count, total) in sorted(self.by_outcome.items())
            },
            "queue_depth": self.queue_depth,
            "queue_growth": self.queue_growth,
            "rho": _json_num(self.rho),
            "saturated": self.saturated,
            "signals": list(self.signals),
        }

    def __repr__(self) -> str:
        return (
            f"<StreamingWindow run={self.run} [{self.t0:g},{self.t1:g}) "
            f"n={self.completions} p99={self.p99:.4g} "
            f"signals={self.signals}>"
        )


class StreamingTelemetry:
    """Windowed run telemetry with an SLO-driven saturation detector.

    Attach with ``repro.obs.attach(cluster, streaming=telemetry)`` (or
    through :class:`~repro.experiments.common.RunObserver`); servers feed each
    completed request into :meth:`record` and open-loop sources feed
    arrivals into :meth:`note_arrival`.  Both are pure bookkeeping —
    the window containing an observation closes when a *later*
    observation arrives, never via a scheduled event, so the simulated
    run is bit-identical with telemetry on or off.

    Call :meth:`finalize` after ``sim.run()`` to close the last window.
    """

    #: Cap on how many empty windows a time gap materialises; larger
    #: jumps skip ahead (the skip is counted in ``gap_windows_skipped``).
    MAX_GAP_WINDOWS = 1000

    def __init__(
        self,
        window: float = 1.0,
        slo: Optional[SLO] = None,
        compression: float = 100.0,
        max_windows: int = 200_000,
        ewma_halflife: Optional[float] = None,
    ):
        if window <= 0:
            raise ValueError(f"window width must be positive, got {window}")
        self.window = float(window)
        self.slo = slo or SLO()
        self.compression = float(compression)
        self.max_windows = max_windows
        self.windows: List[StreamingWindow] = []
        self.run = 0
        #: ρ's server count: the full cluster size of the run observed
        #: now (set at attach), and per run for windows already settled.
        self.n_servers = 1
        self.servers: Dict[int, int] = {}
        self.rate_ewma = EwmaRate(ewma_halflife or 3.0 * self.window)
        self.latency_ewma = EwmaRate(ewma_halflife or 3.0 * self.window)
        self.dropped = 0
        self.gap_windows_skipped = 0
        self._current: Optional[StreamingWindow] = None
        self._arrivals = 0
        self._completions = 0
        self._streak = 0
        self._saturated_window: Optional[int] = None
        self._last_depth = 0.0
        self._last_t = 0.0

    # -- run lifecycle -----------------------------------------------------
    def new_run(self) -> None:
        """Close out the current run and start stamping the next one."""
        if self._current is not None:
            self._close(self._current)
            self._current = None
        self.run += 1
        self.reset_saturation()
        self._arrivals = 0
        self._completions = 0
        self._last_depth = 0.0
        self._last_t = 0.0

    def reset_saturation(self) -> None:
        """Forget the flagged-window streak (used between ramp steps)."""
        self._streak = 0
        self._saturated_window = None

    # -- feed points (called from inside the simulation; pure bookkeeping) -
    def note_arrival(self, t: float) -> None:
        """An open-loop source injected a request at sim-time ``t``."""
        self._advance_to(t)
        self._arrivals += 1
        if self._current is not None:
            self._current.arrivals += 1

    def record(self, t: float, node: str, outcome: str, latency: float,
               ok: bool = True) -> None:
        """A server finished a request at ``t`` with the given outcome."""
        self._advance_to(t)
        self._completions += 1
        window = self._current
        if window is not None:
            window.observe(outcome, latency, ok)

    def advance(self, t: float) -> None:
        """Close every window that ends at or before ``t``.

        For controllers (the capacity ramp) that must read the detector
        at a point in time even when no observation has crossed the
        window boundary yet.  Pure bookkeeping, like the feed points.
        """
        self._advance_to(t)

    def finalize(self) -> None:
        """Close the in-flight window (call once, after ``sim.run()``)."""
        if self._current is not None:
            self._close(self._current)
            self._current = None

    def fresh(self) -> "StreamingTelemetry":
        """An empty telemetry with the same window, SLO and sketch settings."""
        return StreamingTelemetry(
            window=self.window, slo=self.slo, compression=self.compression,
            max_windows=self.max_windows,
            ewma_halflife=self.rate_ewma.halflife,
        )

    # -- windowing ---------------------------------------------------------
    def _open(self, index: int) -> StreamingWindow:
        w = self.window
        return StreamingWindow(
            self.run, index, index * w, (index + 1) * w,
            compression=self.compression,
        )

    def _advance_to(self, t: float) -> None:
        self._last_t = t
        current = self._current
        if current is None:
            self._current = self._open(int(t // self.window))
            return
        if t < current.t1:
            return
        target = int(t // self.window)
        while current.index < target:
            self._close(current)
            nxt = current.index + 1
            if target - nxt > self.MAX_GAP_WINDOWS:
                self.gap_windows_skipped += target - nxt
                nxt = target
            current = self._open(nxt)
        self._current = current

    def _close(self, window: StreamingWindow) -> None:
        if window.closed:
            return
        window.queue_depth = float(self._arrivals - self._completions)
        self._settle(window)

    def _settle(self, window: StreamingWindow) -> None:
        """Derive a window's growth, ρ and SLO signals from its counts
        and queue depth, advance the EWMAs and the flagged streak, and
        keep it.  The live close and the merge replay both end here, so
        a replayed window settles exactly as it did when first closed.
        """
        window.closed = True
        self.servers[window.run] = self.n_servers
        depth = window.queue_depth
        window.queue_growth = depth - self._last_depth
        self._last_depth = depth
        lam = window.rate
        mean = window.mean_latency
        servers = max(1, self.n_servers)
        window.rho = (lam * mean / servers) if window.completions else 0.0
        self.rate_ewma.update(lam, window.width)
        if window.completions:
            self.latency_ewma.update(mean, window.width)
        slo = self.slo
        signals = window.signals = []
        if window.completions and window.p99 > slo.p99_latency:
            signals.append("p99")
        if window.rho > slo.max_rho:
            signals.append("rho")
        if window.queue_growth > slo.max_queue_growth:
            signals.append("queue")
        if signals and window.index >= slo.warmup_windows:
            self._streak += 1
            if self._streak >= slo.consecutive and self._saturated_window is None:
                self._saturated_window = window.index
        else:
            self._streak = 0
        if len(self.windows) < self.max_windows:
            self.windows.append(window)
        else:
            self.dropped += 1

    # -- detector state ----------------------------------------------------
    @property
    def saturated(self) -> bool:
        """True once ``slo.consecutive`` windows in a row were flagged."""
        return self._saturated_window is not None

    @property
    def saturated_window(self) -> Optional[int]:
        """Index of the window that completed the flagged streak."""
        return self._saturated_window

    @property
    def backlog(self) -> int:
        """Requests injected but not yet completed (this run)."""
        return self._arrivals - self._completions

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable state for merging elsewhere.

        Call :meth:`finalize` first so the in-flight window is included.
        """
        return {
            "windows": [w.to_state() for w in self.windows],
            "servers": dict(self.servers),
            "run": self.run,
            "dropped": self.dropped,
            "gap_windows_skipped": self.gap_windows_skipped,
        }

    def merge(self, snaps: Sequence[Dict[str, Any]]) -> None:
        """Fold telemetries' snapshots (:meth:`snapshot`) into this one.

        Every snapshot's run ``r`` lands on ``self.run + r`` (the run
        count at call time): a ``--jobs`` cell merged alone becomes the
        next runs, and snapshots merged together share their runs.
        Same-index windows from different snapshots merge with
        :meth:`StreamingWindow.merge` (counts, sums and digests are
        associative), except queue depth, which is *summed* — each
        snapshot tracks its own backlog, and backlogs add.
        Every window is then settled again in ``(run, index)`` order
        against its run's server count, replaying the close sequence a
        serial run goes through: a lone snapshot merges into an empty
        telemetry byte-identically.  Counts are exact; merged digest
        quantiles (and hence a ``p99_latency`` SLO) are
        sketch-path-dependent and may differ slightly from the serial
        sketch.
        """
        base = self.run
        servers: Dict[int, int] = {}
        by_key: Dict[Tuple[int, int], StreamingWindow] = {}
        for snap in snaps:
            servers.update(snap["servers"])
            self.dropped += snap["dropped"]
            self.gap_windows_skipped += snap["gap_windows_skipped"]
            self.run = max(self.run, base + snap["run"])
            for state in snap["windows"]:
                window = StreamingWindow.from_state(state)
                key = (window.run, window.index)
                cur = by_key.get(key)
                if cur is not None:
                    depth = cur.queue_depth + window.queue_depth
                    window = cur.merge(window)
                    window.queue_depth = depth
                by_key[key] = window
        run = None
        for key in sorted(by_key):
            window = by_key[key]
            if window.run != run:
                run = window.run
                self.n_servers = servers[run]
                self.reset_saturation()
                self._last_depth = 0.0
            window.run += base
            self._settle(window)

    # -- summaries and export ----------------------------------------------
    def summary_digest(self, run: Optional[int] = None) -> TDigest:
        """All window digests merged — the mergeable-sketch payoff."""
        out = TDigest(self.compression)
        for window in self.windows:
            if run is None or window.run == run:
                out.merge(window.digest)
        return out

    def to_jsonl(self) -> str:
        return jsonl_text(window.to_dict() for window in self.windows)

    def write(self, path: Union[str, Path], meta=None) -> Path:
        return export_jsonl(path, self.to_jsonl(), meta)

    def __repr__(self) -> str:
        return (
            f"<StreamingTelemetry window={self.window:g} "
            f"windows={len(self.windows)} saturated={self.saturated}>"
        )


def load_streaming(path) -> List[Dict[str, Any]]:
    """Window records from a streaming JSONL export (gzip-transparent)."""
    records = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "window":
            records.append(record)
    return records


def collect_streaming(registry, telemetry: StreamingTelemetry,
                      prefix: str = "swala_streaming") -> None:
    """Publish run-level streaming totals into a metrics registry."""
    windows = registry.counter(
        f"{prefix}_windows_total", "Closed telemetry windows.",
        labelnames=("run",))
    flagged = registry.counter(
        f"{prefix}_saturated_windows_total",
        "Windows flagged by the saturation detector.", labelnames=("run",))
    completions = registry.counter(
        f"{prefix}_completions_total", "Requests observed by streaming.",
        labelnames=("run",))
    last_p99 = registry.gauge(
        f"{prefix}_last_p99_seconds",
        "Sketched p99 latency of the newest closed window.",
        labelnames=("run",))
    last_rho = registry.gauge(
        f"{prefix}_last_rho",
        "Little's-law utilisation of the newest closed window.",
        labelnames=("run",))
    for window in telemetry.windows:
        labels = {"run": str(window.run)}
        windows.labels(**labels).inc()
        if window.saturated:
            flagged.labels(**labels).inc()
        completions.labels(**labels).inc(window.completions)
    if telemetry.windows:
        newest = telemetry.windows[-1]
        labels = {"run": str(newest.run)}
        p99 = newest.p99
        if p99 == p99:
            last_p99.labels(**labels).set(p99)
        last_rho.labels(**labels).set(newest.rho)


# -- dashboard -------------------------------------------------------------
def _downsample(values: List[float], limit: int) -> List[float]:
    if len(values) <= limit:
        return values
    stride = (len(values) + limit - 1) // limit
    return [
        max(values[i:i + stride]) for i in range(0, len(values), stride)
    ]


def _window_field(record: Union[Dict[str, Any], StreamingWindow], name: str):
    if isinstance(record, StreamingWindow):
        if name == "p99":
            return record.p99
        if name == "hit_ratio":
            return record.hit_ratio
        if name == "saturated":
            return record.saturated
        return getattr(record, name)
    if name == "p99":
        value = record.get("latency", {}).get("p99")
        return math.nan if value is None else value
    value = record.get(name)
    if value is None and name in ("hit_ratio", "rho"):
        return math.nan
    return value


def render_streaming_dashboard(
    windows: Sequence[Union[Dict[str, Any], StreamingWindow]],
    max_width: int = 64,
    title: str = "streaming telemetry",
) -> str:
    """ASCII window dashboard: one sparkline row per windowed signal.

    Accepts live :class:`StreamingWindow` objects or loaded JSONL
    records; a ``!`` under a column marks a saturation-flagged window.
    """
    windows = list(windows)
    if not windows:
        return f"{title}: no closed windows"
    rows = [
        ("rate req/s", "rate"),
        ("p99 latency", "p99"),
        ("hit ratio", "hit_ratio"),
        ("queue depth", "queue_depth"),
        ("rho", "rho"),
    ]
    flags = [bool(_window_field(w, "saturated")) for w in windows]
    label_w = max(len(label) for label, _ in rows)
    t0 = _window_field(windows[0], "t0")
    t1 = _window_field(windows[-1], "t1")
    lines = [
        f"{title}: {len(windows)} windows, t=[{t0:g}, {t1:g})s, "
        f"{sum(flags)} flagged"
    ]
    for label, field in rows:
        raw = []
        for w in windows:
            value = _window_field(w, field)
            value = 0.0 if value is None or value != value else float(value)
            raw.append(value)
        sampled = _downsample(raw, max_width)
        peak = max(raw) if raw else 0.0
        lines.append(
            f"  {label.ljust(label_w)}  {sparkline(sampled, lo=0.0)}"
            f"  max={peak:.4g}"
        )
    flag_sampled = [
        1.0 if any(chunk) else 0.0
        for chunk in _chunks(flags, len(_downsample([float(f) for f in flags], max_width)))
    ]
    marks = "".join("!" if f else "." for f in flag_sampled)
    lines.append(f"  {'saturated'.ljust(label_w)}  {marks}")
    return "\n".join(lines)


def _chunks(values: Sequence, n_chunks: int) -> Iterable[Sequence]:
    if n_chunks <= 0:
        return []
    stride = (len(values) + n_chunks - 1) // n_chunks
    return [values[i:i + stride] for i in range(0, len(values), stride)]
