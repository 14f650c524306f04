"""The instrumentation seam of a simulation.

* :class:`Instrumentation` — ``sim.obs``: the collectors observing one
  simulation (all ``None`` when off) plus the one span helper pair the
  instrumented request path uses;
* :class:`SpanLinker` — per-process tracking of the innermost open
  request span, so resource probes can stamp acquisitions with the span
  that caused them.

Both are dependency-free (no obs imports): the collectors themselves
live in :mod:`repro.obs`, and :func:`repro.obs.attach` is what sets the
fields.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["Instrumentation", "SpanLinker"]


class Instrumentation:
    """The collectors observing one simulation: ``sim.obs``.

    Every instrumented component (servers, cachers, directory sync, the
    network) caches this object at construction and reads its fields on
    the request path; a field is ``None`` while that collector is off, so
    the default path pays one ``is None`` check per hook.  The fields are
    set by :func:`repro.obs.attach`, which may run before or after the
    simulation starts.
    """

    __slots__ = ("sim", "tracer", "oracle", "profiler", "streaming")

    def __init__(self, sim):
        self.sim = sim
        #: :class:`~repro.obs.TraceCollector` (request spans).
        self.tracer = None
        #: :class:`~repro.obs.ConsistencyOracle` (per-request audit).
        self.oracle = None
        #: :class:`~repro.obs.ResourceProfiler`; its ``linker`` (interval
        #: mode only) is fed by :meth:`open_span`/:meth:`close_span`.
        self.profiler = None
        #: :class:`~repro.obs.StreamingTelemetry` (completion windows).
        self.streaming = None

    def open_span(self, parent, name: str, category: str, node: str):
        """Child span of ``parent`` made the ambient one for resource
        probes; ``None`` when tracing is off or ``parent`` is ``None``."""
        tracer = self.tracer
        if parent is None or tracer is None:
            return None
        now, tick = self.sim.monotonic()
        span = tracer.start_span(
            name, parent=parent, category=category, node=node,
            start=now, tick=tick,
        )
        self.link(span)
        return span

    def close_span(self, span, **attrs) -> None:
        """Close a span from :meth:`open_span` (no-op for ``None``)."""
        if span is not None:
            span.close(self.sim.now, **attrs)
            self.unlink(span)

    def link(self, span) -> None:
        """Push ``span`` on the profiler's linker (interval mode only)."""
        profiler = self.profiler
        if profiler is not None and profiler.linker is not None:
            profiler.linker.push(self.sim, span)

    def unlink(self, span) -> None:
        profiler = self.profiler
        if profiler is not None and profiler.linker is not None:
            profiler.linker.pop(self.sim, span)


class SpanLinker:
    """Per-process stacks of open spans, keyed by the active process.

    The instrumented request paths (the :class:`Instrumentation` span
    helpers, network hop spans) push a span when they open it and pop it
    when they close it; a resource probe asks :meth:`current` at *submit*
    time to learn which span an acquisition belongs to.  The submit
    moment matters: grants, PS completions and store wakes later fire in
    some *other* process's execution context, where the ambient span
    would be wrong, so probes must capture the link when the claim is
    made and carry it through themselves.

    Keys are ``id(active_process)``; pushes from event-callback context
    (no active process) are ignored — the only resources claimed from
    callbacks are the network's no-contention fast paths, which link
    their hop spans explicitly before the claim.  Pops tolerate
    out-of-order closes (a span closed by a different code path than
    opened it) by removing the span wherever it sits in the stack.

    The profiler owns one only while interval recording is on, so the
    default costs nothing.
    """

    __slots__ = ("_stacks",)

    def __init__(self):
        self._stacks: Dict[int, List[object]] = {}

    def push(self, sim, span) -> None:
        process = sim._active_process
        if process is None:
            return
        self._stacks.setdefault(id(process), []).append(span)

    def pop(self, sim, span) -> None:
        process = sim._active_process
        if process is None:
            return
        key = id(process)
        stack = self._stacks.get(key)
        if not stack:
            return
        if stack[-1] is span:
            stack.pop()
        else:
            try:
                stack.remove(span)
            except ValueError:
                return
        if not stack:
            del self._stacks[key]

    def current(self, sim):
        """The innermost open span of the running process, or ``None``."""
        process = sim._active_process
        if process is None:
            return None
        stack = self._stacks.get(id(process))
        return stack[-1] if stack else None
