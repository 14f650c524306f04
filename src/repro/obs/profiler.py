"""Per-resource profiling: utilization, occupancy, waits, bottlenecks.

The tracer (PR 1) answers *where a request's time goes* and the oracle
(PR 4) *whether the caches agreed*; this module answers the remaining
question of the paper's §4 evaluation — *which hardware model is the
bottleneck*.  A :class:`ResourceProfiler` instruments the simulation
primitives (:class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.resources.Store`,
:class:`~repro.sim.resources.ProcessorSharing`, plus synthetic probes
for thread pools) with a :class:`ResourceProbe` each, accumulating:

* time-weighted **busy/queue integrals** and **occupancy histograms**
  (seconds spent at each exact in-service / queue level);
* **wait** and **hold** time tallies per acquisition;
* **provenance** — which process acquired the resource, keyed by the
  process name with trailing sequence digits stripped (``swala0.rt3``
  counts under ``swala0.rt``; grants from timeout callbacks, like the
  network's no-contention fast path, count under ``(callback)``);
* throughput counters (requests / contended / completions / cancelled).

Zero-cost-when-off discipline, same as the tracer and oracle: every
primitive carries ``probe = None`` and the hot paths pay one ``is None``
check.  Probes never schedule events, draw no random numbers, and the
:meth:`ProcessorSharing.utilization` scrape is pure, so profiled runs
are bit-identical to unprofiled ones and same-seed profiles are
byte-identical.

**Interval recording** (``record_intervals=True``) additionally links
each acquisition to the request span that caused it: the instrumented
span helpers maintain a :class:`~repro.sim.probes.SpanLinker`, probes
capture the innermost open span at *submit* time (grants and
completions fire in other processes' contexts, where the ambient span
would be wrong), and each completed acquisition appends one
``{trace, span, resource, kind, wait, service, start, end}`` record.
This is the join key the critical-path analyzer
(:mod:`repro.obs.critical`) uses to split span time into service vs
queueing blame.  Off by default: probes carry ``sink = None`` and pay
one extra ``is None`` check per hook, and the exported JSON gains the
``intervals`` key only when recording was on, so committed profile
baselines are unaffected.

The report side computes, per resource, the Little's-law cross-check
``L = λ·W`` against the measured time-average occupancy — a built-in
sanity proof that the accounting is self-consistent — and per node the
top saturated resource with an idle/busy/contended breakdown
(``repro profile``).
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..metrics.reporting import render_table
from ..sim.monitor import Tally

from .ioutil import read_text, write_text

__all__ = [
    "ResourceProbe",
    "ResourceProfiler",
    "load_profile",
    "node_of",
    "little_check",
    "render_bottlenecks",
    "render_resources",
    "render_locks",
    "render_profile_report",
]

#: Bump when the JSON layout changes incompatibly.
PROFILE_VERSION = 1

_TRAILING_DIGITS = re.compile(r"-?\d+$")


def _provenance_label(raw: str) -> str:
    """Collapse per-instance process names to their family.

    ``swala0.rt3`` → ``swala0.rt``; ``xmit-121`` → ``xmit``; the empty
    label (acquisitions from event callbacks, which run with no active
    process) becomes ``(callback)``.
    """
    label = _TRAILING_DIGITS.sub("", raw)
    return label or "(callback)"


class ResourceProbe:
    """Accumulated statistics for one instrumented resource.

    ``kind`` is one of ``resource`` (FCFS :class:`Resource`), ``store``
    (FIFO :class:`Store` — ``in_service`` counts buffered items and
    ``queued`` counts blocked getters), ``cpu``
    (:class:`ProcessorSharing` — ``in_service`` counts jobs in system),
    or ``pool`` (synthetic thread-pool probe driven by
    ``busy_begin``/``busy_end``).
    """

    __slots__ = (
        "sim", "name", "kind", "capacity", "run", "owner",
        "t0", "horizon", "_last",
        "in_service", "queued",
        "busy_time", "queue_time",
        "busy_occupancy", "queue_occupancy",
        "waits", "holds",
        "requests", "contended", "completions", "cancelled",
        "provenance", "_pending", "_held", "_item_times",
        "cpu_busy_time", "sink", "_links",
    )

    def __init__(self, sim, name: str, kind: str, capacity: int,
                 run: int = 0, owner=None):
        self.sim = sim
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self.run = run
        self.owner = owner
        self.t0 = sim.now
        self.horizon: Optional[float] = None
        self._last = sim.now
        self.in_service = 0
        self.queued = 0
        self.busy_time = 0.0
        self.queue_time = 0.0
        self.busy_occupancy: Dict[int, float] = {}
        self.queue_occupancy: Dict[int, float] = {}
        self.waits = Tally(f"{name}.wait", keep_samples=False)
        self.holds = Tally(f"{name}.hold", keep_samples=False)
        self.requests = 0
        self.contended = 0
        self.completions = 0
        self.cancelled = 0
        self.provenance: Dict[str, int] = {}
        self._pending: Dict[int, float] = {}
        self._held: Dict[int, float] = {}
        self._item_times: Deque[float] = deque()
        #: For ``cpu`` probes: the owner's true busy integral, scraped at
        #: finalize (≠ ``busy_time``, which integrates jobs *in system*).
        self.cpu_busy_time: Optional[float] = None
        #: The owning :class:`ResourceProfiler` when interval recording is
        #: on, else ``None`` (hooks pay one extra ``is None`` check).
        self.sink = None
        #: Submit-time span links, keyed by ``id(token/job/getter)``:
        #: ``(span, submit_time, grant_time_or_None)``.
        self._links: Dict[int, Any] = {}

    # -- time accounting --------------------------------------------------
    def _advance(self) -> float:
        now = self.sim.now
        dt = now - self._last
        if dt > 0.0:
            ins, q = self.in_service, self.queued
            self.busy_time += ins * dt
            self.queue_time += q * dt
            occ = self.busy_occupancy
            occ[ins] = occ.get(ins, 0.0) + dt
            occ = self.queue_occupancy
            occ[q] = occ.get(q, 0.0) + dt
            self._last = now
        return now

    def _mark(self) -> None:
        label = _provenance_label(self.sim.current_label())
        prov = self.provenance
        prov[label] = prov.get(label, 0) + 1

    def _link_submit(self, key: int, now: float, granted: bool) -> None:
        """Capture the ambient span at submit time (interval mode only)."""
        span = self.sink.linker.current(self.sim)
        if span is not None:
            self._links[key] = (span, now, now if granted else None)

    # -- Resource hooks ---------------------------------------------------
    def acquire(self, token) -> None:
        """An uncontended grant (request or try_acquire)."""
        now = self._advance()
        self.requests += 1
        self._mark()
        self.waits.observe(0.0)
        self.in_service += 1
        self._held[id(token)] = now
        if self.sink is not None:
            self._link_submit(id(token), now, granted=True)

    def enqueue(self, token) -> None:
        """A request that found every unit busy."""
        now = self._advance()
        self.requests += 1
        self.contended += 1
        self._mark()
        self.queued += 1
        self._pending[id(token)] = now
        if self.sink is not None:
            self._link_submit(id(token), now, granted=False)

    def grant(self, token) -> None:
        """A queued request promoted to holder by a release."""
        now = self._advance()
        self.waits.observe(now - self._pending.pop(id(token), now))
        self.queued -= 1
        self.in_service += 1
        self._held[id(token)] = now
        if self.sink is not None:
            # Runs in the releaser's context: only stamp the grant time,
            # never consult the linker here.
            link = self._links.get(id(token))
            if link is not None:
                self._links[id(token)] = (link[0], link[1], now)

    def release(self, token) -> None:
        now = self._advance()
        self.holds.observe(now - self._held.pop(id(token), now))
        self.in_service -= 1
        self.completions += 1
        if self.sink is not None:
            link = self._links.pop(id(token), None)
            if link is not None:
                span, submitted, granted = link
                if granted is None:
                    granted = now
                self.sink.record_interval(
                    self, span, granted - submitted, now - granted,
                    submitted, now,
                )

    def cancel(self, token) -> None:
        """A queued request withdrawn before it was granted."""
        self._advance()
        self._pending.pop(id(token), None)
        self.queued -= 1
        self.cancelled += 1
        if self.sink is not None:
            self._links.pop(id(token), None)

    # -- Store hooks ------------------------------------------------------
    def deposit(self) -> None:
        """A put buffered because no getter was waiting."""
        now = self._advance()
        self.requests += 1
        self._mark()
        self.in_service += 1
        self._item_times.append(now)

    def take(self) -> None:
        """A buffered item consumed (get or try_get)."""
        now = self._advance()
        self.in_service -= 1
        self.completions += 1
        residence = now - (self._item_times.popleft() if self._item_times else now)
        self.waits.observe(0.0)
        self.holds.observe(residence)

    def wake(self, getter) -> None:
        """A put handed straight to a blocked getter."""
        now = self._advance()
        self.requests += 1
        self._mark()
        self.waits.observe(now - self._pending.pop(id(getter), now))
        self.queued -= 1
        self.holds.observe(0.0)
        self.completions += 1
        if self.sink is not None:
            # Fires in the putter's context; the link was captured when
            # the getter blocked.  Pure wait, no service.
            link = self._links.pop(id(getter), None)
            if link is not None:
                span, submitted, _ = link
                self.sink.record_interval(
                    self, span, now - submitted, 0.0, submitted, now
                )

    def enqueue_getter(self, event) -> None:
        """A get that found the store empty and blocked."""
        now = self._advance()
        self.queued += 1
        self._pending[id(event)] = now
        if self.sink is not None:
            self._link_submit(id(event), now, granted=False)

    def cancel_getter(self, event) -> None:
        """A blocked getter withdrawn (timeout raced the item)."""
        self._advance()
        self._pending.pop(id(event), None)
        self.queued -= 1
        self.cancelled += 1
        if self.sink is not None:
            self._links.pop(id(event), None)

    # -- ProcessorSharing hooks -------------------------------------------
    def ps_submit(self, job) -> None:
        self._advance()
        self.requests += 1
        self._mark()
        if self.in_service >= self.capacity:
            self.contended += 1
        self.in_service += 1
        if self.sink is not None:
            span = self.sink.linker.current(self.sim)
            if span is not None:
                self._links[id(job)] = span

    def ps_complete(self, job, now: float) -> None:
        self._advance()
        sojourn = now - job.start_time
        # Clamped: an uncontended job's sojourn can land a float ulp
        # below its demand, and a negative "queueing excess" is noise.
        self.waits.observe(max(0.0, sojourn - job.demand))
        self.holds.observe(sojourn)
        self.completions += 1
        self.in_service -= 1
        if self.sink is not None:
            # Fires inside _advance of whatever process moved the clock;
            # the job's span was captured at submit.  wait + service ==
            # sojourn exactly, so per-span blame sums stay exact.
            span = self._links.pop(id(job), None)
            if span is not None:
                wait = max(0.0, sojourn - job.demand)
                self.sink.record_interval(
                    self, span, wait, sojourn - wait, job.start_time, now
                )

    # -- pool hooks -------------------------------------------------------
    def busy_begin(self) -> float:
        """A pool worker leaves idle; returns the start stamp."""
        now = self._advance()
        self.requests += 1
        self._mark()
        self.in_service += 1
        return now

    def busy_end(self, started: float) -> None:
        now = self._advance()
        self.holds.observe(now - started)
        self.in_service -= 1
        self.completions += 1

    # -- finalize / export ------------------------------------------------
    def finalize(self) -> None:
        """Flush the occupancy integrals and freeze the horizon.

        Idempotent; safe to call after the simulation stopped.
        """
        self.horizon = self._advance()
        if self.kind == "cpu" and self.owner is not None:
            self.cpu_busy_time = self.owner.projected_busy_time()

    @property
    def elapsed(self) -> float:
        horizon = self.horizon if self.horizon is not None else self.sim.now
        return max(0.0, horizon - self.t0)

    def utilization(self) -> Optional[float]:
        """Fraction of capacity in use over the observed window.

        ``None`` for stores (no capacity to saturate).  For CPUs this is
        the owner's true busy integral over ``ncpus``; for resources and
        pools the in-service integral over ``capacity``.
        """
        elapsed = self.elapsed
        if elapsed <= 0 or self.kind == "store":
            return None
        if self.kind == "cpu":
            busy = self.cpu_busy_time
            if busy is None and self.owner is not None:
                busy = self.owner.projected_busy_time()
            if busy is None:
                return None
            return busy / (elapsed * self.capacity)
        return self.busy_time / (elapsed * self.capacity)

    def to_dict(self) -> Dict[str, Any]:
        elapsed = self.elapsed
        out: Dict[str, Any] = {
            "run": self.run,
            "name": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "start": self.t0,
            "end": self.horizon if self.horizon is not None else self.sim.now,
            "requests": self.requests,
            "contended": self.contended,
            "completions": self.completions,
            "cancelled": self.cancelled,
            "busy_time": self.busy_time,
            "queue_time": self.queue_time,
            "utilization": self.utilization(),
            "mean_load": self.busy_time / elapsed if elapsed > 0 else None,
            "mean_queue": self.queue_time / elapsed if elapsed > 0 else None,
            "busy_occupancy": {
                str(level): secs
                for level, secs in sorted(self.busy_occupancy.items())
            },
            "queue_occupancy": {
                str(level): secs
                for level, secs in sorted(self.queue_occupancy.items())
            },
            "wait": self.waits.to_dict(),
            "hold": self.holds.to_dict(),
            "provenance": dict(sorted(self.provenance.items())),
        }
        if self.kind == "cpu":
            out["cpu_busy_time"] = self.cpu_busy_time
        return out

    def __repr__(self) -> str:
        return (
            f"<ResourceProbe {self.name!r} kind={self.kind} run={self.run} "
            f"in_service={self.in_service} queued={self.queued}>"
        )


class ResourceProfiler:
    """Owns every probe of an observed run (or sweep of runs).

    Attached with :func:`repro.obs.attach`, whose one resource walk
    calls :meth:`instrument` on the network's NICs and mailboxes and on
    each node's CPU bank and disk, :meth:`make_probe` for thread pools,
    and :meth:`watch_locks` for directory RWLocks (which keep their own
    counters — the profiler only scrapes them at finalize).
    """

    def __init__(self, max_resources: int = 4096,
                 record_intervals: bool = False,
                 max_intervals: int = 500_000):
        if max_resources < 1:
            raise ValueError(f"max_resources must be >= 1, got {max_resources}")
        if max_intervals < 1:
            raise ValueError(f"max_intervals must be >= 1, got {max_intervals}")
        self.max_resources = max_resources
        self.max_intervals = max_intervals
        self.probes: List[ResourceProbe] = []
        #: ``(run, node, lock)`` triples registered via :meth:`watch_locks`.
        self.watched_locks: List[Tuple[int, str, Any]] = []
        self._watched_ids: set = set()
        self.run = 0
        #: Probes not created because ``max_resources`` was hit.
        self.dropped = 0
        #: Per-process open-span stacks, maintained by the instrumented
        #: span helpers; ``None`` unless ``record_intervals`` was asked
        #: for, which is what keeps the default path zero-cost.
        self.linker = None
        #: Completed span-linked acquisitions, in completion order
        #: (deterministic: event order is deterministic).
        self.intervals: List[Dict[str, Any]] = []
        #: Interval records not stored because ``max_intervals`` was hit.
        self.intervals_dropped = 0
        #: Frozen resource/lock/interval records folded in from other
        #: profilers' snapshots (``--jobs`` workers); exported
        #: alongside this profiler's own live probes.
        self._merged_resources: List[Dict[str, Any]] = []
        self._merged_locks: List[Dict[str, Any]] = []
        self._merged_intervals: List[Dict[str, Any]] = []
        if record_intervals:
            from ..sim.probes import SpanLinker

            self.linker = SpanLinker()

    def new_run(self) -> int:
        """Stamp subsequent probes with the next run number."""
        self.run += 1
        return self.run

    def fresh(self) -> "ResourceProfiler":
        """An empty profiler with the same caps and interval mode."""
        return ResourceProfiler(
            max_resources=self.max_resources,
            record_intervals=self.linker is not None,
            max_intervals=self.max_intervals,
        )

    # -- attachment -------------------------------------------------------
    def instrument(self, obj) -> Optional[ResourceProbe]:
        """Attach a probe to a ``Resource``/``Store``/``ProcessorSharing``.

        Idempotent: an already-probed object keeps its probe.  Returns
        ``None`` (and counts ``dropped``) past ``max_resources``.
        """
        probe = getattr(obj, "probe", None)
        if probe is not None:
            return probe
        from ..sim.resources import ProcessorSharing, Resource, Store
        if isinstance(obj, ProcessorSharing):
            kind, capacity = "cpu", obj.ncpus
        elif isinstance(obj, Resource):
            kind, capacity = "resource", obj.capacity
        elif isinstance(obj, Store):
            kind, capacity = "store", 0
        else:
            raise TypeError(f"cannot instrument {type(obj).__name__}")
        probe = self._new_probe(obj.sim, obj.name, kind, capacity, owner=obj)
        if probe is not None:
            obj.probe = probe
        return probe

    def make_probe(self, sim, name: str, kind: str,
                   capacity: int = 1) -> Optional[ResourceProbe]:
        """A standalone probe (thread pools and other synthetic resources)."""
        return self._new_probe(sim, name, kind, capacity)

    def _new_probe(self, sim, name, kind, capacity, owner=None):
        if len(self.probes) >= self.max_resources:
            self.dropped += 1
            return None
        probe = ResourceProbe(sim, name, kind, capacity, run=self.run, owner=owner)
        if self.linker is not None:
            probe.sink = self
        self.probes.append(probe)
        return probe

    def record_interval(self, probe: ResourceProbe, span,
                        wait: float, service: float,
                        start: float, end: float) -> None:
        """One completed span-linked acquisition (interval mode only)."""
        if len(self.intervals) >= self.max_intervals:
            self.intervals_dropped += 1
            return
        self.intervals.append({
            "trace": span.trace_id,
            "span": span.span_id,
            "resource": probe.name,
            "kind": probe.kind,
            "run": probe.run,
            "wait": wait,
            "service": service,
            "start": start,
            "end": end,
        })

    def watch_locks(self, node: str, locks: Sequence[Any]) -> None:
        """Register RWLocks/Locks whose own counters we scrape at export."""
        for lock in locks:
            key = (self.run, id(lock))
            if key in self._watched_ids:
                continue
            self._watched_ids.add(key)
            self.watched_locks.append((self.run, node, lock))

    # -- lifecycle --------------------------------------------------------
    def finalize(self) -> None:
        """Flush every probe's integrals; call once per finished run."""
        for probe in self.probes:
            probe.finalize()

    # -- snapshot / merge -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable frozen state, for merging elsewhere.

        Call :meth:`finalize` first: probes are exported as plain dicts,
        and the live lock objects are scraped here — nothing in the
        snapshot references a simulator.
        """
        return {
            "run": self.run,
            "dropped": self.dropped,
            "resources": [probe.to_dict() for probe in self.probes],
            "locks": self._lock_stats(),
            "intervals": list(self.intervals),
            "intervals_dropped": self.intervals_dropped,
        }

    def merge(
        self,
        snaps: Sequence[Dict[str, Any]],
        offsets: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        """Fold profilers' snapshots (:meth:`snapshot`) into this one.

        Runs map as in :meth:`TraceCollector.merge`: snapshot run ``r``
        lands on ``self.run + r``.  ``offsets`` must be the per-snapshot
        ``(trace_offset, span_offset)`` pairs the tracer merge applied to
        the same snapshots' spans, so interval records keep joining to
        their spans in the critical-path analyzer.
        """
        base = self.run
        offsets = offsets or [(0, 0)] * len(snaps)
        for snap, (trace_off, span_off) in zip(snaps, offsets):
            for entry in snap["resources"]:
                entry = dict(entry)
                entry["run"] += base
                self._merged_resources.append(entry)
            for row in snap["locks"]:
                row = dict(row)
                row["run"] += base
                self._merged_locks.append(row)
            for record in snap["intervals"]:
                record = dict(record)
                record["run"] += base
                record["trace"] += trace_off
                record["span"] += span_off
                if len(self._merged_intervals) + len(self.intervals) \
                        >= self.max_intervals:
                    self.intervals_dropped += 1
                else:
                    self._merged_intervals.append(record)
            self.dropped += snap["dropped"]
            self.intervals_dropped += snap["intervals_dropped"]
            self.run = max(self.run, base + snap["run"])

    # -- export -----------------------------------------------------------
    def _lock_stats(self) -> List[Dict[str, Any]]:
        rows = []
        for run, node, lock in self.watched_locks:
            row: Dict[str, Any] = {
                "run": run,
                "node": node,
                "name": lock.name or type(lock).__name__,
                "contended": lock.contended_acquisitions,
                "wait_time": lock.wait_time,
            }
            if hasattr(lock, "read_acquisitions"):
                row["read_acquisitions"] = lock.read_acquisitions
                row["write_acquisitions"] = lock.write_acquisitions
            else:
                row["acquisitions"] = lock.acquisitions
            rows.append(row)
        rows.sort(key=lambda r: (r["run"], r["node"], r["name"]))
        return rows

    def resource_count(self) -> int:
        """Exported resource entries: live probes plus merged-in records
        (a ``--jobs`` run's resources arrive via worker snapshots and
        never appear in ``probes``)."""
        return len(self.probes) + len(self._merged_resources)

    def all_intervals(self) -> List[Dict[str, Any]]:
        """Merged-in plus live interval records, in export order.

        Serial appends intervals in completion order, which is
        non-decreasing in run; a stable sort by run restores exactly
        that order when merged and live runs interleave.
        """
        intervals = self._merged_intervals + list(self.intervals)
        intervals.sort(key=lambda r: r["run"])
        return intervals

    def to_dict(self) -> Dict[str, Any]:
        resources = [probe.to_dict() for probe in self.probes] \
            + self._merged_resources
        resources.sort(key=lambda e: (e["run"], e["kind"], e["name"]))
        locks = self._lock_stats() + self._merged_locks
        locks.sort(key=lambda r: (r["run"], r["node"], r["name"]))
        out = {
            "version": PROFILE_VERSION,
            "runs": self.run,
            "dropped": self.dropped,
            "resources": resources,
            "locks": locks,
        }
        if self.linker is not None:
            # Only in interval mode, so profiles written without it (and
            # the committed CI baselines diffed against them) are
            # byte-for-byte what they always were.
            out["intervals"] = self.all_intervals()
            out["intervals_dropped"] = self.intervals_dropped
        return out

    def to_json(self, meta=None) -> str:
        """Deterministic JSON (sorted keys, compact separators)."""
        data = self.to_dict()
        if meta:
            data["meta"] = dict(meta)
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"

    def write(self, path: Union[str, Path], meta=None) -> Path:
        return write_text(path, self.to_json(meta))

    def __repr__(self) -> str:
        return (
            f"<ResourceProfiler probes={len(self.probes)} "
            f"locks={len(self.watched_locks)} runs={self.run}>"
        )


# -- loading + reporting -----------------------------------------------------

def load_profile(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a file written by :meth:`ResourceProfiler.write`."""
    data = json.loads(read_text(path))
    if not isinstance(data, dict) or "resources" not in data:
        raise ValueError(f"{path}: not a profiler export (no 'resources' key)")
    return data


def node_of(name: str) -> str:
    """Owner node of a resource name: ``swala0.cpu`` / ``client1:80`` →
    ``swala0`` / ``client1``."""
    return name.split(".")[0].split(":")[0]


def little_check(entry: Dict[str, Any]) -> Dict[str, float]:
    """Little's-law cross-check for one exported resource entry.

    Returns ``lambda`` (completions per second), ``W`` (mean time in
    system per completion), ``L`` (their product) and ``L_measured``
    (the time-averaged number in system from the occupancy integrals) —
    for a probe observed over its whole life these must agree up to
    end-effects from requests still in flight at the horizon.
    """
    elapsed = entry["end"] - entry["start"]
    if elapsed <= 0:
        return {"lambda": 0.0, "W": 0.0, "L": 0.0, "L_measured": 0.0,
                "delta": 0.0}
    lam = entry["completions"] / elapsed
    wait = entry["wait"].get("mean") or 0.0
    hold = entry["hold"].get("mean") or 0.0
    if entry["kind"] == "cpu":
        # For PS, the hold tally *is* the sojourn (time in system); wait
        # is the queueing excess over pure demand and must not be added
        # on top.
        w = hold
    else:
        w = wait + hold
    l_measured = (entry["busy_time"] + entry["queue_time"]) / elapsed
    l = lam * w
    return {
        "lambda": lam,
        "W": w,
        "L": l,
        "L_measured": l_measured,
        "delta": abs(l - l_measured),
    }


def _breakdown(entry: Dict[str, Any]) -> Tuple[float, float, float]:
    """(idle%, busy%, contended%) of the observed window."""
    elapsed = entry["end"] - entry["start"]
    if elapsed <= 0:
        return (0.0, 0.0, 0.0)
    idle = entry["busy_occupancy"].get("0", 0.0) / elapsed
    contended = sum(
        secs for level, secs in entry["queue_occupancy"].items()
        if int(level) > 0
    ) / elapsed
    return (100.0 * idle, 100.0 * (1.0 - idle), 100.0 * contended)


def _entries(profile: Dict[str, Any], run: Optional[int] = None,
             node: Optional[str] = None) -> List[Dict[str, Any]]:
    entries = profile["resources"]
    runs = sorted({e["run"] for e in entries})
    if run is None and runs:
        run = runs[-1]
    out = [e for e in entries if e["run"] == run]
    if node is not None:
        out = [e for e in out if node_of(e["name"]) == node]
    return out


def _saturation(entry: Dict[str, Any]) -> float:
    """Sort key for "most saturated".

    Capacity-bound kinds rank by utilization.  Stores rank by their
    *backlog* (time-averaged buffered items, ``mean_load``) — blocked
    getters are idle consumers waiting for work, and counting them would
    crown every idle mailbox with a thread pool parked on it.
    """
    util = entry.get("utilization")
    if util is not None:
        return util
    if entry["kind"] == "store":
        return entry.get("mean_load") or 0.0
    return entry.get("mean_queue") or 0.0


def render_bottlenecks(profile: Dict[str, Any],
                       run: Optional[int] = None) -> str:
    """Per-node bottleneck table: the top saturated resource of each node."""
    entries = _entries(profile, run)
    if not entries:
        return "(no profiled resources)"
    by_node: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        by_node.setdefault(node_of(entry["name"]), []).append(entry)
    rows = []
    for node in sorted(by_node):
        top = max(by_node[node], key=_saturation)
        util = top.get("utilization")
        idle, busy, contended = _breakdown(top)
        lit = little_check(top)
        rows.append((
            node,
            top["name"],
            top["kind"],
            100.0 * util if util is not None else math.nan,
            busy,
            contended,
            lit["lambda"],
            lit["W"],
            lit["L"],
            lit["L_measured"],
        ))
    return render_table(
        "Per-node bottlenecks (top saturated resource)",
        ["node", "resource", "kind", "util %", "busy %", "contended %",
         "λ (1/s)", "W (s)", "ρ=λ·W", "L measured"],
        rows,
        note="ρ=λ·W is the Little's-law prediction; L measured is the "
        "time-averaged jobs-in-system from the occupancy integrals",
    )


def render_resources(profile: Dict[str, Any], run: Optional[int] = None,
                     node: Optional[str] = None,
                     top: Optional[int] = None) -> str:
    """Profiled resources of one run, most saturated first (``top`` caps
    the row count; the omitted tail is noted)."""
    entries = _entries(profile, run, node)
    if not entries:
        return "(no profiled resources)"
    entries = sorted(entries, key=lambda e: (-_saturation(e), e["name"]))
    omitted = 0
    if top is not None and len(entries) > top:
        omitted = len(entries) - top
        entries = entries[:top]
    rows = []
    for entry in entries:
        util = entry.get("utilization")
        wait = entry["wait"].get("mean")
        hold = entry["hold"].get("mean")
        rows.append((
            entry["name"],
            entry["kind"],
            entry["capacity"],
            entry["requests"],
            entry["contended"],
            100.0 * util if util is not None else math.nan,
            entry.get("mean_queue") if entry.get("mean_queue") is not None
            else math.nan,
            wait if wait is not None else math.nan,
            hold if hold is not None else math.nan,
        ))
    return render_table(
        f"Resources (run {entries[0]['run']})",
        ["resource", "kind", "cap", "requests", "contended", "util %",
         "mean queue", "wait mean (s)", "hold mean (s)"],
        rows,
        note=f"{omitted} quieter resource(s) omitted" if omitted else None,
    )


def render_locks(profile: Dict[str, Any], run: Optional[int] = None) -> str:
    """Directory lock contention table (empty string when none watched)."""
    locks = profile.get("locks") or []
    runs = sorted({l["run"] for l in locks})
    if run is None and runs:
        run = runs[-1]
    locks = [l for l in locks if l["run"] == run]
    if not locks:
        return ""
    rows = [
        (
            lock["node"],
            lock["name"],
            lock.get("read_acquisitions",
                     lock.get("acquisitions", 0)),
            lock.get("write_acquisitions", 0),
            lock["contended"],
            lock["wait_time"],
        )
        for lock in locks
    ]
    return render_table(
        "Directory lock contention",
        ["node", "lock", "reads", "writes", "contended", "wait total (s)"],
        rows,
    )


def render_profile_report(profile: Dict[str, Any],
                          run: Optional[int] = None,
                          node: Optional[str] = None,
                          top: Optional[int] = None) -> str:
    """Default ``repro profile`` output: bottlenecks + full resource table."""
    entries = profile.get("resources", [])
    runs = sorted({e["run"] for e in entries})
    header = (
        f"{len(entries)} probed resources across "
        f"{len(runs)} run(s); showing run "
        f"{run if run is not None else (runs[-1] if runs else '-')}"
    )
    if profile.get("dropped"):
        header += f" (warning: {profile['dropped']} probes dropped at cap)"
    parts = [header, "", render_bottlenecks(profile, run), "",
             render_resources(profile, run, node, top)]
    locks = render_locks(profile, run)
    if locks:
        parts += ["", locks]
    return "\n".join(parts)
