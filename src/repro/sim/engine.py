"""Discrete-event simulation engine.

A small, deterministic, generator-based DES in the style of SimPy, built
from scratch so the whole reproduction is self-contained.  Processes are
Python generators that ``yield`` *events*; the simulator resumes a process
when the event it waits on is processed.

Determinism: events are ordered by ``(time, priority, sequence)`` where the
sequence number is a global monotonic counter, so two runs with the same
seed produce identical event orderings.  Events due at the current
instant wait in a FIFO lane beside the heap instead of in it; the pop
rule in :class:`Simulator` keeps the order exactly the single heap's.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Generator, Iterable, Optional

from .probes import Instrumentation

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "StopSimulation",
    "PENDING",
    "URGENT",
    "NORMAL",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Event priority for internal bookkeeping events (processed first at a tick).
URGENT = 0
#: Default event priority.
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` at ``until``."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The interrupt ``cause`` is an arbitrary object supplied by the caller of
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """An occurrence processes can wait for.

    Life cycle: *pending* -> *triggered* (``succeed``/``fail`` called and the
    event is scheduled) -> *processed* (callbacks have run).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked with this event when it is processed.  ``None``
        #: once the event has been processed.
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._lane.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process receives the exception at its ``yield``.  If no
        process waits, the failure propagates out of :meth:`Simulator.run`
        unless ``defused`` is set.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim._lane.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.sim._lane.append(self)

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation.

    A ``Timeout`` is born triggered (its value is pre-set), so its
    constructor bypasses :meth:`Event.__init__` and schedules itself in one
    shot — timeouts are the single most common event in every model, so this
    fast path is worth the duplication.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        now = sim._now
        at = now + delay
        if at == now:
            sim._lane.append(self)
        else:
            sim._qpush((at, NORMAL, sim._seq, self))
            sim._seq += 1


class _ConditionValue:
    """Mapping of events -> values for AllOf/AnyOf results."""

    def __init__(self):
        self.events: list = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of events (base for AllOf/AnyOf).

    Subclasses express their predicate as ``_needed`` — the number of
    constituent events that must happen — so the per-event check is a
    single integer comparison instead of a callback into a closure.

    Once decided, a condition lets go of its constituents (see
    :meth:`_release`): a ``get | deadline`` that fired on ``get`` must
    not stay reachable from the deadline still waiting in the heap.
    """

    __slots__ = ("_events", "_count", "_needed")

    def __init__(self, sim: "Simulator", events: Iterable[Event], needed: int):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        self._needed = needed if needed >= 0 else len(self._events)

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("events belong to different simulators")

        # Immediately check already-processed events; subscribe to the rest.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
                if self._value is not PENDING:
                    break
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._release()
        elif self._count >= self._needed:
            # Only *processed* events count as "happened": Timeouts are
            # technically triggered from birth (their value is pre-set), so
            # ``triggered`` would wrongly include pending timeouts.
            value = _ConditionValue()
            value.events = [e for e in self._events if e.callbacks is None]
            self.succeed(value)
            self._release()

    def _release(self) -> None:
        """Unsubscribe from every constituent still pending and drop them.

        The removed callbacks would have returned at their first line,
        so no event, tick or value changes; a constituent that fails
        later still propagates out of :meth:`Simulator.run` unless
        defused, exactly as when the check stayed subscribed.
        """
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass
        self._events = None


class AllOf(Condition):
    """Triggered when all of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, -1)


class AnyOf(Condition):
    """Triggered when at least one of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, 1)


class _Initialize(Event):
    """Kick-off event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        sim._urgent(self)


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event is processed the generator is resumed with the event's value (or
    the event's exception is thrown in).
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None while running).
        self._target: Optional[Event] = None
        #: Cached bound method: subscribing to a target happens once per
        #: yield, and materializing ``self._resume`` fresh each time is a
        #: per-event allocation.
        self._resume_cb = self._resume
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.sim.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume_cb)
        self.sim._urgent(event)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self

        # If we are resumed by something other than the event we were
        # waiting on (an interrupt), detach from the old target so its later
        # firing does not resume this process a second time.
        target = self._target
        if target is not None and event is not target and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

        generator = self._generator
        while True:
            if event._ok:
                try:
                    target = generator.send(event._value)
                except StopIteration as exc:
                    self._terminate(True, exc.value)
                    break
                except BaseException as exc:
                    self._terminate(False, exc)
                    break
            else:
                # Mark handled so it does not also propagate to run().
                event._defused = True
                try:
                    target = generator.throw(event._value)
                except StopIteration as exc:
                    self._terminate(True, exc.value)
                    break
                except BaseException as exc:
                    # Whether the process re-raised the failure unchanged or
                    # raised something new, it did not survive it.
                    self._terminate(False, exc)
                    break

            if isinstance(target, Event):
                callbacks = target.callbacks
                if callbacks is not None:
                    callbacks.append(self._resume_cb)
                    self._target = target
                    break
                # Already processed: loop and resume immediately with its
                # value.
                event = target
            else:
                exc = RuntimeError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                event = Event(sim)
                event._ok = False
                event._value = exc
                event._defused = True

        sim._active_process = None

    def _terminate(self, ok: bool, value: Any) -> None:
        self._target = None
        if ok:
            self.succeed(value)
        else:
            if isinstance(value, StopSimulation):
                raise value
            self._ok = False
            self._value = value
            self.sim._lane.append(self)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"


def _stop_simulation(event: Event) -> None:
    """Shared ``run(until=...)`` stop callback (one function, not a fresh
    closure pair per call)."""
    raise StopSimulation(event)


class Simulator:
    """The event loop: a binary heap of ``(time, prio, seq, event)`` plus
    a FIFO lane of NORMAL events due at the current instant.

    Events are processed in ``(time, priority, sequence)`` order, where
    the sequence is the scheduling order, so same-seed runs replay
    identically.  Most events are scheduled for ``now``
    (grants, completions, deliveries); those skip the heap.  The pop
    rule, shared by :meth:`step` and :meth:`run`, gives exactly the
    single heap's order:

    * If the heap's top is at ``now``, pop it.  It is URGENT, which
      beats every NORMAL event at this instant, or NORMAL and scheduled
      before the clock reached ``now``, so earlier than every lane entry.
    * Else take the lane's head: the lane is in scheduling order.
    * Else pop the heap and advance the clock.  The lane is empty
      whenever the clock moves.
    """

    __slots__ = (
        "_now", "_heap", "_qpush", "_lane", "_seq", "_ticks",
        "_active_process", "obs", "_anon",
    )

    def __init__(self):
        self._now: float = 0.0
        self._heap: list = []
        #: Bound push, looked up once: scheduling is the hottest call in
        #: the engine, and a partial over the C ``heappush`` adds no
        #: interpreter frame.
        self._qpush = partial(heappush, self._heap)
        #: NORMAL events due at ``now``, in scheduling order; entries are
        #: bare events (no tuple, no sequence number).
        self._lane: deque = deque()
        self._seq: int = 0
        self._ticks: int = 0
        self._active_process: Optional[Process] = None
        #: The collectors observing this simulation (all off by default);
        #: see :mod:`repro.sim.probes` and :func:`repro.obs.attach`.
        self.obs = Instrumentation(self)
        #: Per-prefix counters behind :meth:`autoname`.
        self._anon: dict = {}

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def ticks(self) -> int:
        """Number of events processed so far (a deterministic step counter)."""
        return self._ticks

    def monotonic(self) -> tuple:
        """Monotonic span clock: ``(now, ticks)``.

        ``now`` alone cannot order two spans opened at the same simulation
        instant; the tick component breaks those ties deterministically
        (tracing instrumentation records both).
        """
        return (self._now, self._ticks)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def current_label(self) -> str:
        """Name of the running process, or ``""`` in callback context.

        Provenance hook for the resource profiler: acquisitions made from
        timeout callbacks (the network fast path) have no active process.
        """
        process = self._active_process
        return process.name if process is not None else ""

    def autoname(self, prefix: str) -> str:
        """A fresh ``prefix<N>`` name, deterministic in construction order.

        Used by the resource primitives so that nothing ends up with an
        empty name — profiler keys and ``__repr__`` stay useful even for
        ad-hoc resources built without an owner-qualified name.
        """
        n = self._anon.get(prefix, 0)
        self._anon[prefix] = n + 1
        return f"{prefix}{n}"

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Build the timeout inline rather than via Timeout(...): this factory
        # runs once per simulated event, and skipping the constructor frame
        # is a measurable share of total dispatch cost.  Mirrors
        # Timeout.__init__ exactly.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        timeout.delay = delay
        now = self._now
        at = now + delay
        if at == now:
            self._lane.append(timeout)
        else:
            self._qpush((at, NORMAL, self._seq, timeout))
            self._seq += 1
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _urgent(self, event: Event) -> None:
        """Schedule ``event`` now, ahead of every NORMAL event at ``now``."""
        self._qpush((self._now, URGENT, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._lane:
            return self._now
        heap = self._heap
        return heap[0][0] if heap else inf

    def step(self) -> None:
        """Process the single next event."""
        heap = self._heap
        lane = self._lane
        if lane and (not heap or heap[0][0] != self._now):
            event = lane.popleft()
        else:
            try:
                self._now, _, _, event = heappop(heap)
            except IndexError:
                raise StopSimulation("no scheduled events") from None

        self._ticks += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: crash the simulation.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run until the queue drains, time ``until``, or event ``until``.

        If ``until`` is an :class:`Event`, returns its value when processed.
        Returns ``None`` for a time-based stop, a drained queue, or a
        :class:`StopSimulation` raised by a process (explicit teardown) —
        the latter is recognized by identity, so a process stopping the
        simulation is never mistaken for ``until`` being reached.
        """
        target_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    return until.value
                until.callbacks.append(_stop_simulation)
                target_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self._now})"
                    )
                target_event = Event(self)
                target_event._ok = True
                target_event._value = None
                target_event.callbacks.append(_stop_simulation)
                self._qpush((at, URGENT, self._seq, target_event))
                self._seq += 1

        # The step() loop, inlined with local bindings: this is the hottest
        # loop in the whole reproduction.  Must stay behaviorally identical
        # to step() — same pop rule, same callback/failure sequence.
        # ``heappop`` signals exhaustion with IndexError (cost-free in the
        # non-raising case).
        heap = self._heap
        lane = self._lane
        pop = partial(heappop, heap)
        popleft = lane.popleft
        try:
            while True:
                if lane and (not heap or heap[0][0] != self._now):
                    event = popleft()
                else:
                    try:
                        self._now, _, _, event = pop()
                    except IndexError:
                        break
                self._ticks += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # Nobody handled the failure: crash the simulation.
                    raise event._value
        except StopSimulation as exc:
            stopper = exc.args[0] if exc.args else None
            if stopper is not target_event or target_event is None:
                # Raised by a process, not by our stop callback.
                return None
            if target_event is until:
                if not stopper._ok:
                    raise stopper._value
                return stopper._value
            # Time-based stop.
            return None
        if target_event is until and until is not None and not until.triggered:
            raise RuntimeError(
                f"simulation ended with no scheduled events before {until!r} triggered"
            )
        return None
