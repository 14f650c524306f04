"""Shared resources for the simulation engine.

* :class:`Resource` — FCFS server with fixed capacity (``request``/``release``).
* :class:`Store` — FIFO buffer for message passing between processes.
* :class:`ProcessorSharing` — a CPU model where all runnable jobs share the
  processors equally (egalitarian processor sharing), the standard model of
  a time-sliced multi-threaded host.  This is what makes "response time grows
  with concurrent load" emerge naturally in the server models.

Each primitive carries an optional ``probe`` hook (``None`` by default —
the hot path pays one ``is None`` test per transition).  The profiler's
probes observe every submit/grant/release; when interval recording is on
they additionally stamp the ambient request span (via
:class:`~repro.sim.probes.SpanLinker`) on each claim **at submit time** —
grants and PS completions fire in *other* processes' contexts, where the
ambient span would be wrong — which is what lets the critical-path
analyzer charge wait and service time to individual requests.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Callable, Deque, Dict, Optional

from .engine import Event, Simulator

__all__ = ["Request", "Resource", "Store", "ProcessorSharing", "Job"]

#: Remaining-work threshold below which a PS job counts as finished.
_EPS = 1e-12


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A FCFS resource with ``capacity`` concurrent users.

    Usage from a process::

        req = resource.request()
        yield req
        ...  # hold the resource
        resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or sim.autoname("res")
        self._users: set = set()
        #: Wait queue, made on the first wait: most resources never
        #: queue anyone, and an empty deque already holds a 64-slot block.
        self._queue: Optional[Deque[Request]] = None
        #: Optional :class:`repro.obs.profiler.ResourceProbe`; ``None``
        #: keeps every operation on the exact pre-profiler code path.
        self.probe = None

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue) if self._queue else 0

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
            if self.probe is not None:
                self.probe.acquire(req)
        else:
            if self._queue is None:
                self._queue = deque()
            self._queue.append(req)
            if self.probe is not None:
                self.probe.enqueue(req)
        return req

    def try_acquire(self) -> Optional[object]:
        """Claim a free unit *synchronously*, without creating or
        scheduling any event.

        Returns an opaque token to pass to :meth:`release`, or ``None``
        when no unit is free.  This is the no-contention fast path for
        callers that would otherwise spawn a process just to ``yield
        request()``: when the resource is idle the claim is immediate and
        event-free, and FCFS fairness is preserved because a token is
        only handed out when the wait queue is empty.
        """
        if len(self._users) < self.capacity and not self._queue:
            token = object()
            self._users.add(token)
            if self.probe is not None:
                self.probe.acquire(token)
            return token
        return None

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            if self.probe is not None:
                self.probe.release(request)
        elif self._queue and request in self._queue:
            # Released while still waiting (cancellation).
            self._queue.remove(request)
            if self.probe is not None:
                self.probe.cancel(request)
            return
        else:
            raise RuntimeError(f"{request!r} does not hold {self.name or self!r}")
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed()
            if self.probe is not None:
                self.probe.grant(nxt)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {len(self._users)}/{self.capacity} "
            f"queued={self.queue_length}>"
        )


class Store:
    """Unbounded FIFO buffer; ``get`` blocks until an item is available.

    Both queues are made on first use: a cluster builds a mailbox per
    host and port, and most of them never hold an item or a getter.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or sim.autoname("store")
        self._items: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Event]] = None
        #: Optional :class:`repro.obs.profiler.ResourceProbe`.
        self.probe = None

    def __len__(self) -> int:
        return len(self._items) if self._items else 0

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            if self.probe is not None:
                self.probe.wake(getter)
        else:
            if self._items is None:
                self._items = deque()
            self._items.append(item)
            if self.probe is not None:
                self.probe.deposit()

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
            if self.probe is not None:
                self.probe.take()
        else:
            if self._getters is None:
                self._getters = deque()
            self._getters.append(event)
            if self.probe is not None:
                self.probe.enqueue_getter(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if self._items:
            item = self._items.popleft()
            if self.probe is not None:
                self.probe.take()
            return item
        return None

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending ``get`` (e.g. after a timeout raced it).

        Returns True if the getter was still queued.  Without this, an
        abandoned getter would silently swallow the next ``put``.
        """
        if not self._getters:
            return False
        try:
            self._getters.remove(get_event)
            if self.probe is not None:
                self.probe.cancel_getter(get_event)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:
        waiting = len(self._getters) if self._getters else 0
        return f"<Store {self.name!r} items={len(self)} waiting={waiting}>"


class Job:
    """One unit of work submitted to a :class:`ProcessorSharing` CPU."""

    __slots__ = ("demand", "remaining", "done", "start_time")

    def __init__(self, demand: float, done: Event, start_time: float):
        self.demand = demand
        self.remaining = demand
        self.done = done
        self.start_time = start_time


class ProcessorSharing:
    """Egalitarian processor-sharing CPU bank.

    ``n`` runnable jobs on ``ncpus`` processors each progress at rate
    ``min(1, ncpus / n)``.

    The schedule is recomputed lazily: state advances only when a job
    arrives or the earliest completion fires, in one pass over the jobs
    that also finds the least remaining demand.  Stale completion
    wake-ups are detected with a version counter (the wake-up's value),
    so no event cancellation is needed.
    """

    def __init__(self, sim: Simulator, ncpus: int = 1, name: str = ""):
        if ncpus < 1:
            raise ValueError(f"ncpus must be >= 1, got {ncpus}")
        self.sim = sim
        self.ncpus = ncpus
        self.name = name
        self._jobs: Dict[int, Job] = {}
        self._next_id = 0
        self._last_advance = sim.now
        #: Least remaining demand over the jobs, ``inf`` when idle; kept
        #: so a same-instant submit or wake-up need not rescan the jobs.
        self._least = inf
        self._version = 0
        #: Bound once: every submit and wake-up schedules a wake-up.
        self._wakeup = self._on_wakeup
        self.busy_time = 0.0  # integral of utilised CPU-seconds
        self.total_demand_served = 0.0
        #: Optional :class:`repro.obs.profiler.ResourceProbe`.
        self.probe = None
        if not name:
            self.name = sim.autoname("cpu")

    # -- public API -------------------------------------------------------
    @property
    def load(self) -> int:
        """Number of jobs currently sharing the CPU(s)."""
        return len(self._jobs)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of CPU capacity in use since time zero.

        Includes in-flight busy time up to ``sim.now`` via
        :meth:`projected_busy_time`, so mid-run reads are exact — and the
        read is *pure*: observing utilization never advances the schedule,
        completes jobs, or fires events.
        """
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.projected_busy_time() / (horizon * self.ncpus)

    def projected_busy_time(self) -> float:
        """``busy_time`` including un-committed progress up to ``sim.now``.

        Performs the same float operations in the same order as
        :meth:`_advance` (so the projection is bit-identical to what the
        next real advance will commit) but mutates nothing: no job state,
        no events, no ``_last_advance``.
        """
        dt = self.sim.now - self._last_advance
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return self.busy_time
        served = 0.0
        quantum = dt * min(1.0, self.ncpus / float(len(jobs)))
        for job in jobs.values():
            served += quantum if quantum <= job.remaining else job.remaining
        return self.busy_time + served

    def execute(self, demand: float, weight: float = 1.0) -> Event:
        """Submit ``demand`` CPU-seconds of work; the event fires when done.

        The event value is the job's *sojourn time* (completion - submission),
        which under load exceeds ``demand``.

        ``weight`` must be ``1.0``: every job gets an equal share.  The
        parameter remains only because the benchmark's call counter in
        ``perf/rep.py`` passes it positionally; the benchmark change that
        drops that argument removes it.
        """
        if demand < 0:
            raise ValueError(f"negative demand {demand}")
        if weight != 1.0:
            raise ValueError(f"weight must be 1.0, got {weight}")
        sim = self.sim
        done = Event(sim)
        if demand <= _EPS:
            done.succeed(0.0)
            return done
        least = self._advance()
        job = Job(demand, done, sim._now)
        self._jobs[self._next_id] = job
        self._next_id += 1
        if self.probe is not None:
            self.probe.ps_submit(job)
        self._reschedule(demand if demand < least else least)
        return done

    # -- internals --------------------------------------------------------
    def _advance(self) -> float:
        """Progress all running jobs up to ``sim.now``; return the least
        remaining demand among the jobs left running (``inf`` if none).

        Every job runs at the same rate ``min(1, ncpus / n)`` at a given
        instant, so the per-job quantum is computed once, outside the loop.
        """
        now = self.sim._now
        dt = now - self._last_advance
        self._last_advance = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return self._least
        served = 0.0
        least = inf
        finished = None
        n = len(jobs)
        ncpus = self.ncpus
        quantum = dt * (ncpus / n if n > ncpus else 1.0)
        for jid, job in jobs.items():
            remaining = job.remaining
            progress = quantum if quantum <= remaining else remaining
            job.remaining = remaining = remaining - progress
            served += progress
            if remaining <= _EPS:
                if finished is None:
                    finished = [jid]
                else:
                    finished.append(jid)
            elif remaining < least:
                least = remaining
        self.busy_time += served
        self.total_demand_served += served
        if finished is not None:
            probe = self.probe
            for jid in finished:
                job = jobs.pop(jid)
                job.done.succeed(now - job.start_time)
                if probe is not None:
                    probe.ps_complete(job, now)
        return least

    def _reschedule(self, least: float) -> None:
        """Schedule a wake-up at the earliest projected completion.

        Every job runs at the same rate, so the earliest completion
        belongs to the ``least`` remaining demand: one division.
        """
        self._version += 1
        self._least = least
        n = len(self._jobs)
        if not n:
            return
        ncpus = self.ncpus
        timeout = self.sim.timeout(
            least / (ncpus / n if n > ncpus else 1.0), self._version)
        timeout.callbacks.append(self._wakeup)

    def _on_wakeup(self, timeout: Event) -> None:
        if timeout._value != self._version:
            return  # stale: the job mix changed since this was scheduled
        self._reschedule(self._advance())

    def __repr__(self) -> str:
        return f"<ProcessorSharing {self.name!r} ncpus={self.ncpus} load={self.load}>"
