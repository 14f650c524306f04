"""Thread-pool server base (Swala and Netscape Enterprise share this).

A fixed pool of request threads "take turns listening on the main port for
incoming connections" (paper §4.1): each thread blocks on the listen
mailbox, owns a request from parse to completion, then returns for the
next.  Queueing beyond the pool size happens in the mailbox.
"""

from __future__ import annotations

from .base import BaseServer

__all__ = ["ThreadPoolServer"]


class ThreadPoolServer(BaseServer):
    """Pool of request threads over the shared listen mailbox."""

    def __init__(self, sim, machine, network, name=None, n_threads: int = 32):
        super().__init__(sim, machine, network, name)
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        self.n_threads = n_threads
        #: Synthetic pool probe (idle vs. handling occupancy); created by
        #: the profiler's walk in :func:`repro.obs.attach`, ``None`` keeps
        #: the loop untouched.
        self.pool_probe = None

    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        for tid in range(self.n_threads):
            self.sim.process(
                self._request_thread(tid), name=f"{self.name}.rt{tid}"
            )

    def _request_thread(self, tid: int):
        while True:
            msg = yield self.listen_box.get()
            probe = self.pool_probe
            started = probe.busy_begin() if probe is not None else 0.0
            yield self.machine.dispatch_thread()
            yield from self.handle(msg.payload)
            if probe is not None:
                probe.busy_end(started)
