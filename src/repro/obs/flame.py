"""Fold span trees into flame-graph stacks.

A trace dump (PR 1) is a forest of request span trees.  This module
collapses it into the *folded-stack* format popularized by Brendan
Gregg's ``flamegraph.pl`` and understood by speedscope: one line per
unique stack, frames joined by ``;``, followed by an integer count —
here **microseconds of self sim-time** (span duration minus the summed
durations of its closed children).

The root frame of every stack is the request's cache **outcome**
(``local-hit`` / ``remote-hit`` / ``false-hit`` / ``miss`` / …, the same
taxonomy as the latency analyzer), so the flame graph directly answers
the paper's question: *which request class burns the simulated time,
and in which phase*.  Network hop spans (``hop:src->dst``) are collapsed
to a single ``hop`` frame to keep stack cardinality independent of
cluster size.

Rendering in-terminal goes through
:func:`repro.metrics.ascii.flame_chart`; the raw folded text feeds
external tools unchanged::

    repro profile --trace trace.jsonl --folded-out stacks.folded
    flamegraph.pl stacks.folded > flame.svg
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from .analyze import outcome_of
from .trace import Span, TraceDump

from .ioutil import write_text

__all__ = [
    "fold_spans", "render_folded", "write_folded", "frame_name",
]

#: Folded counts are integers; sim seconds are scaled to microseconds.
MICROSECONDS = 1e6


def frame_name(span: Span) -> str:
    """Stack-frame label for a span (hop spans collapse to ``hop``)."""
    name = span.name
    if name.startswith("hop:"):
        return "hop"
    return name


def fold_spans(dump: TraceDump) -> Dict[str, float]:
    """Collapse every complete trace into ``stack -> self sim-seconds``.

    Unclosed spans (truncated traces) contribute nothing; a parent's
    self-time never goes negative even if overlapping children oversum
    its duration (concurrent children are attributed to themselves).
    """
    folded: Dict[str, float] = {}
    for _trace_id, spans in sorted(dump.traces().items()):
        root = next((s for s in spans if s.parent_id is None), None)
        if root is None or root.end is None:
            continue
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        # Iterative DFS in deterministic (start, span_id) order.
        stack = [(root, outcome_of(root) + ";" + frame_name(root))]
        while stack:
            span, path = stack.pop()
            kids = [c for c in children.get(span.span_id, [])
                    if c.end is not None]
            child_total = 0.0
            for child in kids:
                child_total += child.duration
            self_time = span.duration - child_total
            if self_time > 0.0:
                folded[path] = folded.get(path, 0.0) + self_time
            for child in sorted(kids, key=lambda c: (c.start, c.span_id)):
                stack.append((child, path + ";" + frame_name(child)))
    return folded


def render_folded(folded: Dict[str, float]) -> str:
    """Folded-stack text: ``frame;frame;frame <microseconds>`` per line.

    Lines are sorted by stack for determinism; zero-count stacks (self
    time under half a microsecond) are dropped, as flamegraph.pl would
    ignore them anyway.
    """
    lines = []
    for path in sorted(folded):
        count = int(round(folded[path] * MICROSECONDS))
        if count > 0:
            lines.append(f"{path} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_folded(folded: Dict[str, float], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, render_folded(folded))
    return path
