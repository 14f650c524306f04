"""Simulation-time telemetry: fixed-Δt snapshots of selected series.

The metrics registry (PR 1) answers *how much* — end-of-run totals —
but not *when*: a burst of false hits right after a node flush looks
identical to the same count spread over the whole run.  The
:class:`TimeSeriesSampler` closes that gap.  It is a simulation **daemon
process** that wakes every ``interval`` simulated seconds and snapshots
a set of named series — by default every node's key ``NodeStats``
counters (named exactly like their registry metrics, e.g.
``swala_false_hits_total{node=swala0}``), the cache-occupancy gauge, and
the consistency oracle's per-class counts when one is attached.

Samples accumulate in a :class:`TimeSeriesLog` (bounded, run-stamped,
deterministic JSONL — same seed, byte-identical file) and render as
per-series sparkline dashboards via :func:`render_timeseries_dashboard`.

Scheduling note: the sampler *does* add timeout events to the
simulation, but they carry no side effects and draw no random numbers,
so the simulated behaviour of every other process is unchanged.  Sampled
runs no longer force serial execution: each ``--jobs`` worker keeps its
own :class:`TimeSeriesLog` and ships a snapshot back for a deterministic
merge (:meth:`TimeSeriesLog.merge`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..metrics.ascii import sparkline

from .ioutil import export_jsonl, jsonl_text, read_text

__all__ = [
    "TimeSeriesLog",
    "TimeSeriesSampler",
    "node_stats_series",
    "cluster_series",
    "oracle_series",
    "load_timeseries",
    "render_timeseries_dashboard",
]

#: (series base name, NodeStats attribute) pairs sampled per node by
#: default — the counters the consistency story revolves around, named
#: like their ``obs.registry`` metrics.
NODE_SERIES = (
    ("swala_requests_total", "requests"),
    ("swala_local_hits_total", "local_hits"),
    ("swala_remote_hits_total", "remote_hits"),
    ("swala_cache_misses_total", "misses"),
    ("swala_false_hits_total", "false_hits"),
    ("swala_false_misses_total", "false_misses"),
    ("swala_coalesced_total", "coalesced"),
    ("swala_directory_updates_total", "updates_applied"),
    ("swala_cache_evictions_total", "evictions"),
)


class TimeSeriesLog:
    """Bounded, run-stamped accumulator of ``{t, series}`` samples."""

    def __init__(self, max_samples: int = 500_000):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self.samples: List[Dict[str, Any]] = []
        #: Samples not stored because the log was full.
        self.dropped = 0
        #: Bumped by :meth:`new_run`, stamped on every sample.
        self.run = 0

    def new_run(self) -> int:
        """Mark the start of another simulation feeding this log."""
        self.run += 1
        return self.run

    def finalize(self) -> None:
        """Nothing to flush: the sampler records whole samples."""

    def fresh(self) -> "TimeSeriesLog":
        """An empty log with the same capacity."""
        return TimeSeriesLog(self.max_samples)

    def record(self, t: float, series: Dict[str, float]) -> None:
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        self.samples.append({"run": self.run, "t": t, "series": dict(series)})

    def runs(self) -> List[int]:
        return sorted({s["run"] for s in self.samples})

    # -- snapshot / merge -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable state of this log, for merging elsewhere."""
        return {
            "samples": [dict(s) for s in self.samples],
            "dropped": self.dropped,
            "run": self.run,
        }

    def merge(self, snaps: Sequence[Dict[str, Any]]) -> None:
        """Fold logs' snapshots (:meth:`snapshot`) into this one.

        Every snapshot's run ``r`` lands on ``self.run + r`` (the run
        count at call time), so a ``--jobs`` cell merged alone becomes
        the next runs, and snapshots merged together share their runs.
        Samples taken at the same ``(run, t)`` — by different logs —
        union into one record, and the log stays in ``(run, t)`` order.
        """
        base = self.run
        index = {(s["run"], s["t"]): s for s in self.samples}
        for snap in snaps:
            for sample in snap["samples"]:
                key = (base + sample["run"], sample["t"])
                existing = index.get(key)
                if existing is not None:
                    existing["series"].update(sample["series"])
                elif len(self.samples) >= self.max_samples:
                    self.dropped += 1
                else:
                    merged = {
                        "run": key[0], "t": key[1],
                        "series": dict(sample["series"]),
                    }
                    self.samples.append(merged)
                    index[key] = merged
            self.dropped += snap["dropped"]
            self.run = max(self.run, base + snap["run"])
        self.samples.sort(key=lambda s: (s["run"], s["t"]))

    def __len__(self) -> int:
        return len(self.samples)

    # -- export -----------------------------------------------------------
    def to_jsonl(self) -> str:
        """Deterministic JSONL, one sample per line in record order."""
        return jsonl_text(self.samples)

    def write(self, path: Union[str, Path], meta=None) -> Path:
        return export_jsonl(path, self.to_jsonl(), meta)

    def __repr__(self) -> str:
        return f"<TimeSeriesLog samples={len(self.samples)} run={self.run}>"


# -- sample sources ----------------------------------------------------------

def node_stats_series(server) -> Dict[str, float]:
    """One Swala server's sampled series (counters + occupancy gauge)."""
    stats = server.stats
    node = stats.node or server.name
    out = {
        f"{name}{{node={node}}}": float(getattr(stats, attr, 0))
        for name, attr in NODE_SERIES
    }
    cacher = getattr(server, "cacher", None)
    if cacher is not None:
        out[f"swala_cached_entries{{node={node}}}"] = float(len(cacher.store))
    return out


def cluster_series(cluster) -> Callable[[], Dict[str, float]]:
    """Source closure sampling every node of a ``SwalaCluster``."""
    def sample() -> Dict[str, float]:
        out: Dict[str, float] = {}
        for server in cluster.servers:
            out.update(node_stats_series(server))
        return out
    return sample


def oracle_series(oracle) -> Callable[[], Dict[str, float]]:
    """Source closure sampling a ``ConsistencyOracle``'s live counts."""
    def sample() -> Dict[str, float]:
        return {
            f"oracle_{cls}_total": float(count)
            for cls, count in oracle.counts.items()
        }
    return sample


class TimeSeriesSampler:
    """The sampling daemon: snapshot all sources every ``interval``."""

    def __init__(self, sim, log: TimeSeriesLog, interval: float = 1.0):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.sim = sim
        self.log = log
        self.interval = interval
        self._sources: List[Tuple[str, Callable[[], Dict[str, float]]]] = []

    def add_source(self, name: str, fn: Callable[[], Dict[str, float]]) -> None:
        self._sources.append((name, fn))

    def sample(self) -> None:
        """Take one snapshot now (also called by the daemon each Δt)."""
        series: Dict[str, float] = {}
        for _, fn in self._sources:
            series.update(fn())
        self.log.record(self.sim.now, series)

    def start(self) -> None:
        """Spawn the daemon; it runs until the simulation stops."""
        self.sim.process(self._run(), name="obs.sampler")

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.sample()


# -- loading + rendering -----------------------------------------------------

def load_timeseries(path: Union[str, Path]) -> TimeSeriesLog:
    """Load a file written by :meth:`TimeSeriesLog.write`."""
    log = TimeSeriesLog()
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}:{lineno}: not a JSON object")
        if data.get("type") == "meta":
            continue  # provenance manifest, not a sample
        if not {"run", "t", "series"} <= data.keys():
            raise ValueError(f"{path}:{lineno}: not a time-series sample")
        log.samples.append(data)
        log.run = max(log.run, data.get("run", 0))
    return log


def render_timeseries_dashboard(
    log: TimeSeriesLog,
    run: Optional[int] = None,
    series: Optional[Sequence[str]] = None,
    width: int = 60,
) -> str:
    """Sparkline dashboard, one row per series.

    Cumulative counters (names ending ``_total``) are differenced to
    per-interval rates; gauges are drawn raw.  ``run=None`` picks the
    last run in the log; ``series`` filters by substring match.
    """
    if not log.samples:
        return "(no samples)"
    runs = log.runs()
    if run is None:
        run = runs[-1]
    samples = [s for s in log.samples if s["run"] == run]
    if not samples:
        return f"(no samples for run {run}; have runs {runs})"
    names = sorted({name for s in samples for name in s["series"]})
    if series:
        names = [
            n for n in names if any(want in n for want in series)
        ]
        if not names:
            return "(no series match the filter)"
    t0, t1 = samples[0]["t"], samples[-1]["t"]
    lines = [
        f"== Time series (run {run}, {len(samples)} samples over "
        f"[{t0:.3f}s, {t1:.3f}s], Δ-rates for *_total) =="
    ]
    label_w = max(len(n) for n in names)
    for name in names:
        values = [float(s["series"].get(name, 0.0)) for s in samples]
        if name.split("{", 1)[0].endswith("_total"):
            shown = [b - a for a, b in zip(values, values[1:])] or values
            summary = f"last={values[-1]:g} peakΔ={max(shown):g}"
        else:
            shown = values
            summary = f"min={min(shown):g} max={max(shown):g} last={shown[-1]:g}"
        if len(shown) > width:
            # Downsample by max within equal chunks so bursts stay visible.
            chunk = len(shown) / width
            shown = [
                max(shown[int(i * chunk): max(int((i + 1) * chunk), int(i * chunk) + 1)])
                for i in range(width)
            ]
        lines.append(f"{name.ljust(label_w)}  {sparkline(shown)}  {summary}")
    return "\n".join(lines)
