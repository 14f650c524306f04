"""Single-heap reference for :class:`repro.sim.Simulator`'s dispatch.

The engine as it was before same-instant events got their own FIFO lane:
every scheduled event, whatever its time, is a ``(time, priority,
sequence, event)`` tuple in one binary heap.  Kept as the executable
specification of the pop order.  ``tests/sim/test_engine_lane.py``
drives this engine and the real one through the same random programs
and expects the same callbacks, in the same order, at the same ``now``
and ``ticks``.

Only dispatch lives here: the event classes that schedule themselves
(``Event``, ``Timeout``, ``Process``) and the ``Simulator`` loop.
Conditions, naming and instrumentation add no scheduling path of their
own and are left out.
"""

from heapq import heappop, heappush
from math import inf
from typing import Any, Generator, Optional

from repro.sim.engine import NORMAL, PENDING, URGENT, Interrupt, StopSimulation


class Event:
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "HeapSimulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.sim._schedule(self, NORMAL)


class Timeout(Event):
    __slots__ = ("delay",)

    def __init__(self, sim: "HeapSimulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self._value = value
        self.delay = delay
        sim._schedule(self, NORMAL, delay)


class _Initialize(Event):
    __slots__ = ()

    def __init__(self, sim: "HeapSimulator", process: "Process"):
        super().__init__(sim)
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule(self, URGENT)


class Process(Event):
    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim: "HeapSimulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self.name = name
        self._target: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.sim.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.sim._schedule(event, URGENT)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim.active_process = self
        target = self._target
        if target is not None and event is not target and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event._defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as exc:
                self._terminate(True, exc.value)
                break
            except BaseException as exc:
                self._terminate(False, exc)
                break
            if isinstance(target, Event):
                if target.callbacks is not None:
                    target.callbacks.append(self._resume)
                    self._target = target
                    break
                event = target
            else:
                event = Event(sim)
                event._ok = False
                event._value = RuntimeError(
                    f"process {self.name!r} yielded non-event {target!r}")
                event._defused = True
        sim.active_process = None

    def _terminate(self, ok: bool, value: Any) -> None:
        self._target = None
        if ok:
            self.succeed(value)
        else:
            if isinstance(value, StopSimulation):
                raise value
            self._ok = False
            self._value = value
            self.sim._schedule(self, NORMAL)


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event)


class HeapSimulator:
    """One heap of ``(time, priority, sequence, event)``; pops in that order."""

    def __init__(self):
        self.now = 0.0
        self.ticks = 0
        self.active_process: Optional[Process] = None
        self._heap: list = []
        self._seq = 0

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heappush(self._heap, (self.now + delay, priority, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else inf

    def step(self) -> None:
        try:
            self.now, _, _, event = heappop(self._heap)
        except IndexError:
            raise StopSimulation("no scheduled events") from None
        self.ticks += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        target_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    return until.value
                until.callbacks.append(_stop_simulation)
                target_event = until
            else:
                at = float(until)
                if at < self.now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self.now})")
                target_event = Event(self)
                target_event._value = None
                target_event.callbacks.append(_stop_simulation)
                heappush(self._heap, (at, URGENT, self._seq, target_event))
                self._seq += 1
        try:
            while self._heap:
                self.step()
        except StopSimulation as exc:
            stopper = exc.args[0] if exc.args else None
            if stopper is not target_event or target_event is None:
                return None
            if target_event is until:
                if not stopper._ok:
                    raise stopper._value
                return stopper._value
            return None
        if target_event is until and until is not None and not until.triggered:
            raise RuntimeError(
                f"simulation ended with no scheduled events before {until!r} triggered")
        return None
