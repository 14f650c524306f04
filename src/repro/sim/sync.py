"""Reader/writer lock for simulated multi-threaded servers.

The paper's cache directory is protected by *per-table reader/writer locks*
(its locking-granularity discussion is §4.2), so :class:`RWLock` is a first-
class citizen here, with contention counters exposed for the locking
ablation benchmark.

The lock makes its wait queue on the first wait: an N-node cluster
builds N² table locks, and most of them are never contended.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from .engine import Event, Simulator

__all__ = ["RWLock"]


def _len(queue: Optional[Deque]) -> int:
    """Length of a wait queue that may not have been made yet."""
    return len(queue) if queue else 0


class RWLock:
    """A fair reader/writer lock.

    Multiple readers may hold the lock concurrently; writers are exclusive.
    Grant order is FIFO over arrival order, with consecutive readers granted
    as a batch — this prevents both writer starvation (readers cannot
    overtake a waiting writer) and reader starvation.

    Counters (``read_acquisitions``, ``write_acquisitions``,
    ``contended_acquisitions``, ``wait_time``) feed the locking-granularity
    ablation in ``benchmarks/``.
    """

    _READ = "r"
    _WRITE = "w"

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._readers = 0
        self._writer = False
        self._waiters: Optional[Deque[Tuple[str, Event]]] = None
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.contended_acquisitions = 0
        self.wait_time = 0.0

    # -- state ------------------------------------------------------------
    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    # -- acquisition --------------------------------------------------------
    def acquire_read(self) -> Event:
        event = Event(self.sim)
        self.read_acquisitions += 1
        if not self._writer and not self._waiters:
            self._readers += 1
            event.succeed()
        else:
            self._wait(self._READ, event)
        return event

    def acquire_write(self) -> Event:
        event = Event(self.sim)
        self.write_acquisitions += 1
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            event.succeed()
        else:
            self._wait(self._WRITE, event)
        return event

    def _wait(self, kind: str, event: Event) -> None:
        self.contended_acquisitions += 1
        start = self.sim.now
        event.callbacks.append(lambda _evt: self._note_wait(self.sim.now - start))
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append((kind, event))

    def _note_wait(self, waited: float) -> None:
        self.wait_time += waited

    # -- release ------------------------------------------------------------
    def release_read(self) -> None:
        if self._readers <= 0:
            raise RuntimeError(f"read-release of {self.name or 'RWLock'} with no readers")
        self._readers -= 1
        if self._readers == 0:
            self._grant()

    def release_write(self) -> None:
        if not self._writer:
            raise RuntimeError(f"write-release of unheld {self.name or 'RWLock'}")
        self._writer = False
        self._grant()

    def _grant(self) -> None:
        """Wake the head of the queue: one writer, or a batch of readers."""
        if not self._waiters:
            return
        kind, event = self._waiters[0]
        if kind == self._WRITE:
            if self._readers == 0 and not self._writer:
                self._waiters.popleft()
                self._writer = True
                event.succeed()
        else:
            while self._waiters and self._waiters[0][0] == self._READ:
                _, evt = self._waiters.popleft()
                self._readers += 1
                evt.succeed()

    def __repr__(self) -> str:
        return (
            f"<RWLock {self.name!r} readers={self._readers} writer={self._writer} "
            f"waiters={_len(self._waiters)}>"
        )
