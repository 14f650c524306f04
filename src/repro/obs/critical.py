"""Critical-path extraction: per-request blame decomposition.

The latency analyzer (:mod:`repro.obs.analyze`) splits a request's time
by the *categories of the root's direct children* — good enough to say
"mostly CPU", useless for deciding *which resource speedup buys
end-to-end latency*.  This module walks each request's full span tree
(PR 1 tracer) joined with the profiler's span-linked resource intervals
(PR 5 probes, ``record_intervals=True``) and decomposes every request's
latency into **blame segments**:

=================  ========================================================
``queue-wait``     request wire + listen-mailbox + dispatch (queue spans)
``cpu-service``    CPU demand actually served (PS interval service time)
``cpu-queue``      PS queueing excess (sojourn − demand) under load
``disk-service``   disk positioning + transfer while holding the device
``disk-wait``      FCFS queueing for the disk device
``nic-transfer``   NIC serialization (``size / bandwidth``) while held
``nic-wait``       FCFS queueing for the sender NIC
``net-latency``    propagation/switching latency of traced hops
``peer-wait``      blocked on a peer's reply mailbox (remote fetch)
``lock-wait``      residual inside directory lookup/insert spans
``other``          anything no span or interval explains
=================  ========================================================

The decomposition is an **exact partition**: the root window is swept in
elementary slices, each slice is owned by the *deepest* covering span
(ties broken by latest start, then span id), and each span's owned time
is then split among segments by its linked intervals (clipped to the
span window, budget-capped so nothing is double-counted; the remainder
falls back to a per-span default).  By construction
``sum(segments) == root duration`` up to float associativity — the
property the test suite pins down — and the reported ``busy`` time
(union of child-span cover) never exceeds the makespan.

Aggregation produces a cluster-wide critical-path profile with
p50/p95/p99 per segment and per-outcome groupings; :func:`fold_aggregate`
folds it into blame-rooted flame stacks.  Export is
deterministic JSON (sorted keys, compact separators): same seed ⇒
byte-identical ``--critical-out`` files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..metrics.reporting import render_table
from .analyze import _percentile, outcome_of
from .trace import Span

from .ioutil import read_text, write_text

__all__ = [
    "BLAME_SEGMENTS",
    "RequestBlame",
    "decompose",
    "intervals_by_span",
    "aggregate_blame",
    "load_critical",
    "render_critical_report",
    "write_critical",
]

#: Every blame bucket the decomposition can produce, in report order.
BLAME_SEGMENTS = (
    "queue-wait",
    "cpu-service",
    "cpu-queue",
    "disk-service",
    "disk-wait",
    "nic-transfer",
    "nic-wait",
    "net-latency",
    "peer-wait",
    "lock-wait",
    "other",
)

#: Bump when the aggregate JSON layout changes incompatibly.
CRITICAL_VERSION = 1

#: Span names whose unexplained residual is attributed to directory
#: locking (their CPU demand shows up as linked PS intervals; whatever
#: is left is lock traffic the locks' own counters account for).
_LOCKY_SPANS = frozenset({"lookup", "insert"})


@dataclass
class RequestBlame:
    """One request's latency, exactly partitioned into blame segments."""

    trace_id: int
    url: str
    kind: str
    node: str
    outcome: str
    start: float
    #: End-to-end latency (root span duration).
    total: float
    #: Union of child-span cover inside the root window — the part of the
    #: makespan any instrumented phase explains.  ``busy <= total``.
    busy: float
    segments: Dict[str, float] = field(default_factory=dict)

    def segment(self, name: str) -> float:
        return self.segments.get(name, 0.0)


# -- interval join -----------------------------------------------------------

def intervals_by_span(
    intervals: Optional[Iterable[Dict[str, Any]]],
) -> Dict[Tuple[int, int], List[Dict[str, Any]]]:
    """Index profiler interval records by ``(trace, span)``.

    Accepts the ``intervals`` list of a profile export (or a live
    :attr:`~repro.obs.ResourceProfiler.intervals`); ``None`` or records
    without a span link are tolerated (trace-only decomposition).
    """
    index: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for record in intervals or ():
        trace, span = record.get("trace"), record.get("span")
        if trace is None or span is None:
            continue
        index.setdefault((trace, span), []).append(record)
    for records in index.values():
        records.sort(key=lambda r: (r.get("start", 0.0), r.get("resource", "")))
    return index


def _interval_buckets(record: Dict[str, Any]) -> Tuple[Optional[str], Optional[str]]:
    """(service bucket, wait bucket) for one interval record."""
    kind = record.get("kind")
    if kind == "cpu":
        return "cpu-service", "cpu-queue"
    if kind == "store":
        return None, "peer-wait"
    name = record.get("resource", "")
    if name.endswith(".nic"):
        return "nic-transfer", "nic-wait"
    if name.endswith(".disk"):
        return "disk-service", "disk-wait"
    return "other", "other"


def _fallback_bucket(span: Span, refined: bool) -> str:
    """Bucket for span-owned time no linked interval explains."""
    category = span.category
    if category == "queue":
        return "queue-wait"
    if category == "cpu":
        if refined and span.name in _LOCKY_SPANS:
            return "lock-wait"
        return "cpu-service"
    if category == "disk":
        return "disk-service"
    if category == "network":
        if span.name.startswith("hop:"):
            # With intervals the serialization is accounted; what remains
            # of a hop is the wire/switch latency.
            return "net-latency" if refined else "nic-transfer"
        return "peer-wait"
    return "other"


def _allocate(
    span: Span,
    owned: float,
    records: Sequence[Dict[str, Any]],
) -> Dict[str, float]:
    """Split ``owned`` seconds of ``span`` into blame buckets.

    Linked intervals are clipped to the span window and drawn greedily
    (in record order, service before wait) against the owned-time
    budget, so the allocation can never exceed what the sweep assigned
    to this span; the remainder goes to the span's fallback bucket.
    The amounts always sum to ``owned`` exactly.
    """
    out: Dict[str, float] = {}
    if owned <= 0.0:
        return out
    budget = owned
    for record in records:
        if budget <= 0.0:
            break
        t0 = record.get("start", span.start)
        t1 = record.get("end", span.end)
        extent = t1 - t0
        if extent > 0.0 and span.end is not None:
            overlap = min(t1, span.end) - max(t0, span.start)
            factor = max(0.0, min(1.0, overlap / extent))
        else:
            factor = 1.0
        service_bucket, wait_bucket = _interval_buckets(record)
        for bucket, amount in (
            (service_bucket, record.get("service", 0.0) * factor),
            (wait_bucket, record.get("wait", 0.0) * factor),
        ):
            if bucket is None or amount <= 0.0:
                continue
            take = amount if amount <= budget else budget
            if take > 0.0:
                out[bucket] = out.get(bucket, 0.0) + take
                budget -= take
    if budget > 0.0:
        bucket = _fallback_bucket(span, refined=bool(records))
        out[bucket] = out.get(bucket, 0.0) + budget
    return out


# -- the sweep ---------------------------------------------------------------

def _span_depths(spans: Sequence[Span]) -> Dict[int, int]:
    by_id = {s.span_id: s for s in spans}
    depths: Dict[int, int] = {}

    def depth_of(span: Span) -> int:
        cached = depths.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is None or span.parent_id not in by_id:
            depths[span.span_id] = 0
            return 0
        d = depth_of(by_id[span.parent_id]) + 1
        depths[span.span_id] = d
        return d

    for span in spans:
        depth_of(span)
    return depths


def _owned_times(root: Span, spans: Sequence[Span]) -> Dict[int, float]:
    """Deepest-cover sweep: seconds of the root window owned per span.

    Every elementary slice between consecutive span boundaries (clipped
    to the root window) is assigned to the deepest span covering it,
    ties to the latest-started (then highest id) — i.e. the most
    specific explanation wins.  The owned times partition the root
    window exactly.
    """
    window_start, window_end = root.start, root.end
    closed = [
        s for s in spans
        if s.end is not None and s.end > window_start and s.start < window_end
    ]
    depths = _span_depths(closed)
    bounds = {window_start, window_end}
    for span in closed:
        bounds.add(max(span.start, window_start))
        bounds.add(min(span.end, window_end))
    cuts = sorted(bounds)
    owned: Dict[int, float] = {}
    for a, b in zip(cuts, cuts[1:]):
        width = b - a
        if width <= 0.0:
            continue
        best = None
        best_key = None
        for span in closed:
            if span.start <= a and span.end >= b:
                key = (depths[span.span_id], span.start, span.span_id)
                if best_key is None or key > best_key:
                    best, best_key = span, key
        if best is not None:
            owned[best.span_id] = owned.get(best.span_id, 0.0) + width
    return owned


def _busy_time(root: Span, spans: Sequence[Span]) -> float:
    """Union of non-root closed-span cover inside the root window."""
    intervals = sorted(
        (max(s.start, root.start), min(s.end, root.end))
        for s in spans
        if s.span_id != root.span_id and s.end is not None
        and s.end > root.start and s.start < root.end
    )
    busy = 0.0
    cursor = root.start
    for start, end in intervals:
        if end <= cursor:
            continue
        busy += end - max(start, cursor)
        cursor = end
    return busy


def decompose(
    dump,
    intervals: Optional[Iterable[Dict[str, Any]]] = None,
) -> List[RequestBlame]:
    """One :class:`RequestBlame` per complete request trace in ``dump``.

    ``dump`` is anything with a ``traces()`` grouping (a
    :class:`~repro.obs.TraceDump` or a live
    :class:`~repro.obs.TraceCollector`); ``intervals`` the matching
    profiler interval records, or ``None`` for a trace-only
    decomposition (every segment falls back to the span category).
    Traces whose root never closed are skipped, as everywhere else.
    """
    index = intervals_by_span(intervals)
    records: List[RequestBlame] = []
    for trace_id, spans in sorted(dump.traces().items()):
        root = next((s for s in spans if s.parent_id is None), None)
        if root is None or root.end is None:
            continue
        owned = _owned_times(root, spans)
        by_id = {s.span_id: s for s in spans}
        segments: Dict[str, float] = {}
        for span_id in sorted(owned):
            span = by_id[span_id]
            linked = index.get((trace_id, span_id), ())
            for bucket, amount in sorted(
                _allocate(span, owned[span_id], linked).items()
            ):
                segments[bucket] = segments.get(bucket, 0.0) + amount
        records.append(
            RequestBlame(
                trace_id=trace_id,
                url=str(root.attrs.get("url", "")),
                kind=str(root.attrs.get("kind", "")),
                node=root.node,
                outcome=outcome_of(root),
                start=root.start,
                total=root.duration,
                busy=_busy_time(root, spans),
                segments=segments,
            )
        )
    return records


# -- aggregation / export ----------------------------------------------------

def aggregate_blame(records: Sequence[RequestBlame]) -> Dict[str, Any]:
    """Cluster-wide critical-path profile (the ``--critical-out`` JSON).

    Safe on zero requests: every mean/percentile that would divide by
    zero is emitted as 0.0, never NaN.
    """
    n = len(records)
    total_latency = sum(r.total for r in records)
    segments: Dict[str, Any] = {}
    for name in BLAME_SEGMENTS:
        values = [r.segment(name) for r in records]
        seg_total = sum(values)
        if seg_total <= 0.0 and not any(v > 0.0 for v in values):
            continue
        segments[name] = {
            "total": seg_total,
            "share": seg_total / total_latency if total_latency > 0 else 0.0,
            "mean": seg_total / n if n else 0.0,
            "p50": _percentile(values, 50) if n else 0.0,
            "p95": _percentile(values, 95) if n else 0.0,
            "p99": _percentile(values, 99) if n else 0.0,
        }
    by_outcome: Dict[str, Any] = {}
    for record in records:
        entry = by_outcome.setdefault(
            record.outcome, {"requests": 0, "latency": 0.0, "segments": {}}
        )
        entry["requests"] += 1
        entry["latency"] += record.total
        for name, value in record.segments.items():
            entry["segments"][name] = entry["segments"].get(name, 0.0) + value
    for entry in by_outcome.values():
        entry["mean_latency"] = (
            entry["latency"] / entry["requests"] if entry["requests"] else 0.0
        )
        entry["segments"] = dict(sorted(entry["segments"].items()))
    latencies = [r.total for r in records]
    return {
        "version": CRITICAL_VERSION,
        "requests": n,
        "total_latency": total_latency,
        "mean_latency": total_latency / n if n else 0.0,
        "p95_latency": _percentile(latencies, 95) if n else 0.0,
        "busy": sum(r.busy for r in records),
        "segments": segments,
        "by_outcome": dict(sorted(by_outcome.items())),
    }


def to_json(data: Dict[str, Any]) -> str:
    """Deterministic JSON for an :func:`aggregate_blame` dict."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def write_critical(data: Dict[str, Any], path: Union[str, Path],
                   meta=None) -> Path:
    if meta:
        data = dict(data, meta=dict(meta))
    return write_text(path, to_json(data))


def load_critical(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``--critical-out`` aggregate written by :func:`write_critical`."""
    data = json.loads(read_text(path))
    if not isinstance(data, dict) or "segments" not in data:
        raise ValueError(f"{path}: not a critical-path export (no 'segments')")
    return data


# -- rendering ---------------------------------------------------------------

def fold_aggregate(data: Dict[str, Any]) -> Dict[str, float]:
    """Blame-rooted folded stacks (``outcome;segment``) from an aggregate."""
    folded: Dict[str, float] = {}
    for outcome, entry in data.get("by_outcome", {}).items():
        for segment, seconds in entry.get("segments", {}).items():
            if seconds > 0.0:
                folded[f"{outcome};{segment}"] = seconds
    return folded


def render_segments(data: Dict[str, Any]) -> str:
    segments = data.get("segments", {})
    if not data.get("requests"):
        return "(no complete request traces)"
    rows = [
        (
            name,
            entry["total"],
            100.0 * entry["share"],
            entry["mean"],
            entry["p50"],
            entry["p95"],
            entry["p99"],
        )
        for name, entry in sorted(
            segments.items(), key=lambda kv: (-kv[1]["total"], kv[0])
        )
    ]
    return render_table(
        f"Critical-path blame ({data['requests']} requests, "
        f"mean latency {data.get('mean_latency', 0.0):.4f}s)",
        ["segment", "total (s)", "share %", "mean (s)", "p50", "p95", "p99"],
        rows,
        note="per-request percentiles of each segment; segments sum to the "
        "end-to-end latency exactly",
    )


def render_by_outcome(data: Dict[str, Any]) -> str:
    by_outcome = data.get("by_outcome", {})
    if not by_outcome:
        return ""
    names = [
        name for name in BLAME_SEGMENTS
        if any(name in e.get("segments", {}) for e in by_outcome.values())
    ]
    rows = []
    for outcome, entry in sorted(by_outcome.items()):
        latency = entry.get("latency", 0.0)
        row: List[Any] = [outcome, entry.get("requests", 0),
                          entry.get("mean_latency", 0.0)]
        for name in names:
            seconds = entry.get("segments", {}).get(name, 0.0)
            row.append(100.0 * seconds / latency if latency > 0 else 0.0)
        rows.append(tuple(row))
    return render_table(
        "Blame by cache outcome (% of the outcome's total latency)",
        ["outcome", "requests", "mean (s)"] + [n + " %" for n in names],
        rows,
    )


def render_critical_report(data: Dict[str, Any], width: int = 60) -> str:
    """Default ``repro critical`` output: segments + outcomes + flame."""
    if not data.get("requests"):
        return "(no complete request traces)"
    from ..metrics.ascii import flame_chart

    parts = [render_segments(data)]
    outcome_table = render_by_outcome(data)
    if outcome_table:
        parts.append(outcome_table)
    parts.append(flame_chart(fold_aggregate(data), width=width))
    return "\n\n".join(parts)
