"""Request-scoped tracing: spans and the bounded trace collector.

A **span** is a named, timed interval on the simulation clock with a
parent link, a node attribution, and a *category* (``queue`` / ``cpu`` /
``network`` / ``disk`` / ``other``) that the latency-breakdown analyzer
aggregates over.  Every request gets a fresh *trace id* when a server
accepts it; the server's request path and the cacher's fetch/insert
machinery open child spans under that root, and network message hops can
attach themselves to whichever span caused them.

The :class:`TraceCollector` is deliberately **simulator-agnostic**: spans
carry explicit sim-clock timestamps supplied by the instrumented code
(via :meth:`~repro.sim.Simulator.monotonic`), so one collector can
accumulate spans across the several back-to-back simulations an
experiment command runs.  It is bounded (``max_spans``) so an unbounded
run cannot exhaust memory; overflow is counted in ``dropped`` rather
than silently discarded.

Export is deterministic JSONL: one object per line, sorted keys, compact
separators — two runs with the same seed produce byte-identical files.

**Span ids as join keys.**  ``(trace_id, span_id)`` pairs are unique per
collector (global counters, never reset by :meth:`TraceCollector.
new_run`), so other recorders can reference spans without coordination:
the resource profiler's span-linked wait/hold intervals
(:class:`~repro.sim.probes.SpanLinker`) carry exactly these pairs, and
the critical-path analyzer (:mod:`repro.obs.critical`) joins the two
streams back together.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .ioutil import export_jsonl, jsonl_text, read_text

__all__ = [
    "Span",
    "TraceCollector",
    "TraceDump",
    "load_jsonl",
    "SPAN_CATEGORIES",
]

#: Categories the breakdown analyzer knows about.  ``queue`` covers the
#: interval between the client's send and the request thread picking the
#: connection up (request wire time + listen-mailbox wait + dispatch).
SPAN_CATEGORIES = ("queue", "cpu", "network", "disk", "other")


class Span:
    """One timed interval of one trace.  Created via the collector."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "node",
        "category",
        "start",
        "end",
        "tick",
        "attrs",
        "recorded",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        node: str,
        category: str,
        start: float,
        tick: int,
        attrs: Dict[str, Any],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.tick = tick
        self.attrs = attrs
        #: False when the collector was full and this span was not stored.
        self.recorded = True

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} not closed")
        return self.end - self.start

    def close(self, end: float, **attrs: Any) -> "Span":
        """Close the span at sim time ``end``; extra attrs are merged in."""
        if self.end is not None:
            raise RuntimeError(f"span {self.name!r} already closed")
        if end < self.start:
            raise ValueError(
                f"span {self.name!r} would end before it starts "
                f"({end} < {self.start})"
            )
        self.end = end
        if attrs:
            self.attrs.update(attrs)
        return self

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "node": self.node,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "tick": self.tick,
            "attrs": self.attrs,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Span":
        span = Span(
            trace_id=data["trace"],
            span_id=data["span"],
            parent_id=data.get("parent"),
            name=data["name"],
            node=data.get("node", ""),
            category=data.get("category", "other"),
            start=data["start"],
            tick=data.get("tick", 0),
            attrs=dict(data.get("attrs") or {}),
        )
        span.end = data.get("end")
        return span

    def __repr__(self) -> str:
        state = f"end={self.end:.6g}" if self.end is not None else "open"
        return (
            f"<Span {self.name!r} trace={self.trace_id} id={self.span_id} "
            f"cat={self.category} start={self.start:.6g} {state}>"
        )


class TraceCollector:
    """Bounded per-run accumulator of spans."""

    def __init__(self, max_spans: int = 200_000):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.spans: List[Span] = []
        #: Spans not stored because the collector was full.
        self.dropped = 0
        #: Bumped by :meth:`new_run`; stamped on every span so one
        #: collector can cover several back-to-back simulations.
        self.run = 0
        # Plain ints (not itertools.count) so snapshot/merge can read and
        # advance them when folding worker-local collectors together.
        self._next_trace = 1
        self._next_span = 1

    # -- run lifecycle ----------------------------------------------------
    def new_run(self) -> int:
        """Mark the start of another simulation feeding this collector."""
        self.run += 1
        return self.run

    def finalize(self) -> None:
        """Nothing to flush: spans are stored whole as they open."""

    def fresh(self) -> "TraceCollector":
        """An empty collector with the same capacity."""
        return TraceCollector(self.max_spans)

    # -- span creation ----------------------------------------------------
    def start_trace(
        self,
        name: str,
        *,
        node: str,
        start: float,
        tick: int = 0,
        **attrs: Any,
    ) -> Span:
        """Open a root span under a brand-new trace id."""
        trace_id = self._next_trace
        self._next_trace += 1
        return self._make(
            trace_id, None, name, node, "other", start, tick, attrs
        )

    def start_span(
        self,
        name: str,
        *,
        parent: Span,
        category: str = "other",
        node: str = "",
        start: float,
        tick: int = 0,
        **attrs: Any,
    ) -> Span:
        """Open a child span of ``parent`` (same trace)."""
        return self._make(
            parent.trace_id,
            parent.span_id,
            name,
            node or parent.node,
            category,
            start,
            tick,
            attrs,
        )

    def _make(self, trace_id, parent_id, name, node, category, start, tick, attrs):
        attrs = dict(attrs)
        if self.run:
            attrs.setdefault("run", self.run)
        span_id = self._next_span
        self._next_span += 1
        span = Span(
            trace_id, span_id, parent_id, name, node, category,
            start, tick, attrs,
        )
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            span.recorded = False
        else:
            self.spans.append(span)
        return span

    # -- queries ----------------------------------------------------------
    def traces(self) -> Dict[int, List[Span]]:
        """Spans grouped by trace id, in creation order."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is None]

    def __len__(self) -> int:
        return len(self.spans)

    # -- snapshot / merge -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable state of this collector, for merging elsewhere.

        The span list keeps creation order (not export order) so a merge
        preserves the relative interleaving the collector observed.
        """
        return {
            "spans": [span.to_dict() for span in self.spans],
            "dropped": self.dropped,
            "run": self.run,
            "next_trace": self._next_trace,
            "next_span": self._next_span,
        }

    def merge(self, snaps: Sequence[Dict[str, Any]]) -> List[Tuple[int, int]]:
        """Fold collectors' snapshots (:meth:`snapshot`) into this one.

        Every snapshot's run ``r`` lands on ``self.run + r`` (the run
        count at call time): a ``--jobs`` cell merged alone becomes the
        next runs of the sweep, and snapshots merged together share
        their runs.  Trace and span ids
        are offset past the ids already assigned, snapshot by snapshot,
        so ``(trace_id, span_id)`` join keys stay unique.  Span ``tick``
        values are kept as recorded: per-simulator event counters,
        meaningful for ordering only within one snapshot's run.

        Returns the ``(trace_offset, span_offset)`` applied to each
        snapshot; records that join on span ids (profiler intervals)
        need the same offsets (:meth:`ResourceProfiler.merge`).
        """
        base = self.run
        offsets = []
        for snap in snaps:
            trace_off = self._next_trace - 1
            span_off = self._next_span - 1
            offsets.append((trace_off, span_off))
            for data in snap["spans"]:
                span = Span.from_dict(data)
                span.trace_id += trace_off
                span.span_id += span_off
                if span.parent_id is not None:
                    span.parent_id += span_off
                if "run" in span.attrs:
                    span.attrs["run"] += base
                if len(self.spans) >= self.max_spans:
                    self.dropped += 1
                    span.recorded = False
                else:
                    self.spans.append(span)
            self.dropped += snap["dropped"]
            self._next_trace += snap["next_trace"] - 1
            self._next_span += snap["next_span"] - 1
            self.run = max(self.run, base + snap["run"])
        return offsets

    # -- export -----------------------------------------------------------
    def to_jsonl(self) -> str:
        """Deterministic JSONL: spans in (trace, span-id) order.  Identical
        seeds => byte-identical output."""
        spans = sorted(self.spans, key=lambda s: (s.trace_id, s.span_id))
        return jsonl_text(span.to_dict() for span in spans)

    def write(self, path: Union[str, Path], meta=None) -> Path:
        return export_jsonl(path, self.to_jsonl(), meta)

    def __repr__(self) -> str:
        return (
            f"<TraceCollector spans={len(self.spans)} dropped={self.dropped} "
            f"run={self.run}>"
        )


class TraceDump:
    """A loaded trace file: spans, plus the engine-event lines that
    trace files written before the event ring was removed may carry.

    ``skipped_lines`` counts malformed lines dropped by a lenient
    :func:`load_jsonl` (a truncated file's torn tail).
    """

    def __init__(
        self,
        spans: List[Span],
        events: List[Tuple[float, str, str]],
        skipped_lines: int = 0,
    ):
        self.spans = spans
        self.events = events
        self.skipped_lines = skipped_lines

    def traces(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<TraceDump spans={len(self.spans)} events={len(self.events)}>"


def load_jsonl(path: Union[str, Path], strict: bool = True) -> TraceDump:
    """Load a trace file written by :meth:`TraceCollector.write`.

    ``strict=False`` tolerates a truncated file (a run killed mid-write):
    malformed or incomplete lines are skipped and counted in the returned
    dump's ``skipped_lines`` instead of raising.
    """
    spans: List[Span] = []
    events: List[Tuple[float, str, str]] = []
    skipped = 0
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            skipped += 1
            continue
        try:
            if data.get("type") == "event":
                events.append((data["time"], data["kind"], data["detail"]))
            elif data.get("type") == "span":
                spans.append(Span.from_dict(data))
            elif data.get("type") == "meta":
                continue  # provenance manifest, not trace content
            else:
                raise KeyError(f"unknown record type {data.get('type')!r}")
        except (KeyError, TypeError, AttributeError) as exc:
            if strict:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            skipped += 1
    return TraceDump(spans, events, skipped_lines=skipped)
