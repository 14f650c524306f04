"""Conservative parallel DES: windowed synchronization over shards.

The serial engine runs one :class:`~repro.sim.Simulator` per model.  This
module runs a model split into *shards* — each shard a full Simulator
owning a subset of the hosts — under the classic conservative windowed
protocol (a barrier-synchronized cousin of Chandy–Misra–Bryant null
messages):

1.  every cross-shard interaction is a network message, and the LAN
    propagation ``latency`` is a hard lower bound on how far into the
    future a send can affect another shard — the **lookahead** ``L``;
2.  each round the coordinator collects every shard's next event time,
    sets ``horizon = min(next) + L``, and lets all shards process events
    strictly before the horizon in parallel;
3.  messages emitted during the round deliver at ``>= horizon`` (an
    executed event has time ``>= min(next)``, and delivery adds ``L``),
    so they are injected at the barrier before the next round begins —
    no shard can ever receive a message in its past.

Injection order is normalized to ``(deliver_time, source shard, emission
sequence)`` so a run is deterministic regardless of backend or worker
timing.  Two backends share one shard-side protocol: ``inline`` runs all
shards in-process (zero IPC — the reference for equivalence testing) and
``process`` fans shards out over OS processes via pipes.

What stays identical to the serial run: every message's send time, NIC
serialization order, delivery instant, and the sender-side counters —
the physics all live in :class:`~repro.net.Network`, which only swaps
the final mailbox deposit for a router handoff.  What can differ: the
global interleaving of *exactly simultaneous* events on different
shards, which float-valued timelines make vanishingly rare (the
serial-equals-parallel gates in CI check end-to-end outputs), and tail
events after the run's terminal instant, which a shard may overshoot by
at most one window.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .engine import Event, Simulator

__all__ = [
    "Router",
    "ShardSpec",
    "InlineShard",
    "ProcessShard",
    "ConservativeCoordinator",
    "DeadlockError",
    "resolve_backend",
    "sim_partitions",
    "set_sim_partitions",
    "using_partitions",
]


class DeadlockError(RuntimeError):
    """No shard can advance and the run's terminal never fired."""


class Router:
    """Per-shard outbox for messages whose destination lives elsewhere.

    Installed as ``network.router``; the network calls :meth:`emit` at
    the instant a copy leaves the sender NIC, with ``msg.deliver_time``
    already stamped (send now + latency).  The shard runtime drains the
    outbox at each window barrier.
    """

    def __init__(self, local_hosts, remote_hosts):
        self.local_hosts = frozenset(local_hosts)
        self.remote_hosts = frozenset(remote_hosts)
        self._outbox: List[Tuple[float, int, Any]] = []
        self._seq = 0

    def routes(self, dst: str) -> bool:
        return dst in self.remote_hosts

    def emit(self, msg) -> None:
        self._outbox.append((msg.deliver_time, self._seq, msg))
        self._seq += 1

    def drain(self) -> List[Tuple[float, int, Any]]:
        out, self._outbox = self._outbox, []
        return out


@dataclass
class ShardSpec:
    """What the shard-side protocol needs from a built partition."""

    sim: Simulator
    network: Any  # repro.net.Network with a Router installed
    router: Router
    hosts: Sequence[str]
    #: Event whose firing means "this shard's share of the run is done"
    #: (e.g. the AllOf over its client processes); ``None`` for a purely
    #: passive shard that just serves the others.
    terminal: Optional[Event] = None
    #: Called after the run with the coordinator's global terminal time
    #: (the latest shard-terminal fire time, or ``None`` when no shard
    #: declared a terminal); must return a *picklable* result (process
    #: backend ships it over a pipe).  Shard-local observability uses
    #: the horizon to freeze integrals at the run's true end rather than
    #: the shard's overshot local clock.
    finalize: Callable[[Optional[float]], Any] = field(
        default=lambda horizon: None
    )


def _inject(network, msg, _evt=None) -> None:
    network.inject(msg)


class InlineShard:
    """Shard driven directly in the coordinator's process."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.hosts = list(spec.hosts)
        self.has_terminal = spec.terminal is not None
        # Record the sim-time the terminal fires at: the coordinator's
        # global terminal time (max over shards) is what shard-local
        # observability freezes its integrals at, since every shard's
        # own clock overshoots the run's end by up to one window.
        self._terminal_time: List[Optional[float]] = [None]
        if spec.terminal is not None:
            cell, sim = self._terminal_time, spec.sim

            def _record(event, _cell=cell, _sim=sim) -> None:
                _cell[0] = _sim.now

            spec.terminal.callbacks.append(_record)

    def sync(self, batch) -> Tuple[float, bool, Optional[float]]:
        """Inject ``batch``; report (next event time, terminal fired,
        terminal fire time)."""
        sim = self.spec.sim
        network = self.spec.network
        for msg in batch:
            # Absolute scheduling: the delivery instant must be bit-equal
            # to the serial run's, not now + (deliver_time - now).
            sim.schedule_at(msg.deliver_time).callbacks.append(
                partial(_inject, network, msg)
            )
        terminal = self.spec.terminal
        done = terminal is not None and terminal.triggered
        return sim.peek(), done, self._terminal_time[0]

    def advance(self, horizon: float) -> list:
        self.spec.sim.run_window(horizon)
        return self.spec.router.drain()

    def finalize(self, horizon: Optional[float] = None) -> Any:
        return self.spec.finalize(horizon)

    def stop(self) -> None:
        pass


def _shard_worker(conn, builder, kwargs) -> None:
    """Worker-process main loop: build the shard, then serve commands."""
    spec = builder(**kwargs)
    shard = InlineShard(spec)
    conn.send((shard.hosts, shard.has_terminal))
    while True:
        cmd, arg = conn.recv()
        if cmd == "sync":
            conn.send(shard.sync(arg))
        elif cmd == "advance":
            conn.send(shard.advance(arg))
        elif cmd == "finalize":
            conn.send(shard.finalize(arg))
        elif cmd == "stop":
            conn.close()
            return


class ProcessShard:
    """Shard living in its own OS process, driven over a pipe.

    ``builder(**kwargs)`` must be a picklable top-level callable
    returning a :class:`ShardSpec`; it runs *in the worker*, so the spec
    itself never crosses the pipe — only messages and the finalized
    result do.
    """

    def __init__(self, builder, kwargs):
        import multiprocessing as mp

        ctx = mp.get_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker,
            args=(child, builder, kwargs),
            daemon=True,
        )
        self._proc.start()
        child.close()
        self.hosts, self.has_terminal = self._conn.recv()

    def sync_send(self, batch) -> None:
        self._conn.send(("sync", batch))

    def advance_send(self, horizon: float) -> None:
        self._conn.send(("advance", horizon))

    def recv(self):
        return self._conn.recv()

    # Synchronous variants so Inline and Process shards share call sites
    # when overlap is not needed.
    def sync(self, batch):
        self.sync_send(batch)
        return self.recv()

    def advance(self, horizon: float):
        self.advance_send(horizon)
        return self.recv()

    def finalize(self, horizon: Optional[float] = None):
        self._conn.send(("finalize", horizon))
        return self.recv()

    def stop(self) -> None:
        try:
            self._conn.send(("stop", None))
            self._conn.close()
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():  # pragma: no cover - defensive
            self._proc.terminate()


class ConservativeCoordinator:
    """Drives shards through lookahead-wide windows until the run ends.

    Termination: when any shard declared a terminal event, the run stops
    as soon as every such terminal has fired (mirroring the serial
    ``sim.run(until=done)``; undelivered tail messages are dropped just
    as a serial run leaves post-``until`` events unprocessed).  With no
    terminals anywhere, the run stops at global quiescence — every queue
    empty and nothing in flight.
    """

    def __init__(self, shards, lookahead: float):
        if lookahead <= 0:
            raise ValueError(
                f"conservative sync needs positive lookahead, got {lookahead}"
            )
        if not shards:
            raise ValueError("no shards")
        self.shards = list(shards)
        self.lookahead = lookahead
        self.rounds = 0
        #: Latest shard-terminal fire time once :meth:`run` returns — the
        #: run's true end, matching the serial ``sim.run(until=...)``
        #: stop instant; ``None`` for quiescence-terminated runs.
        self.terminal_time: Optional[float] = None
        self._host_shard: Dict[str, int] = {}
        for idx, shard in enumerate(self.shards):
            for host in shard.hosts:
                if host in self._host_shard:
                    raise ValueError(f"host {host!r} on two shards")
                self._host_shard[host] = idx
        self._terminals = [s.has_terminal for s in self.shards]

    def run(self) -> None:
        shards = self.shards
        overlap = all(isinstance(s, ProcessShard) for s in shards)
        pending: List[Tuple[float, int, int, Any]] = []
        while True:
            batches = [[] for _ in shards]
            if pending:
                # Deterministic injection order; keys are unique before
                # the message element is ever compared.
                pending.sort(key=lambda e: (e[0], e[1], e[2]))
                for _, _, _, msg in pending:
                    batches[self._host_shard[msg.dst]].append(msg)
                pending = []
            if overlap:
                for shard, batch in zip(shards, batches):
                    shard.sync_send(batch)
                statuses = [shard.recv() for shard in shards]
            else:
                statuses = [
                    shard.sync(batch) for shard, batch in zip(shards, batches)
                ]
            if self._finished(statuses):
                times = [t for _, _, t in statuses if t is not None]
                self.terminal_time = max(times) if times else None
                return
            horizon = min(t for t, _, _ in statuses) + self.lookahead
            if horizon == inf:
                raise DeadlockError(
                    "all shards idle but a terminal event never fired"
                )
            if overlap:
                for shard in shards:
                    shard.advance_send(horizon)
                emitted = [shard.recv() for shard in shards]
            else:
                emitted = [shard.advance(horizon) for shard in shards]
            for src, emissions in enumerate(emitted):
                for deliver_time, seq, msg in emissions:
                    pending.append((deliver_time, src, seq, msg))
            self.rounds += 1

    def _finished(self, statuses) -> bool:
        if any(self._terminals):
            return all(
                done
                for (_, done, _), has_term in zip(statuses, self._terminals)
                if has_term
            )
        return all(t == inf for t, _, _ in statuses)

    def finalize(self) -> list:
        """Collect every shard's finalized result, handing each the
        global terminal time (see :attr:`terminal_time`)."""
        return [shard.finalize(self.terminal_time) for shard in self.shards]

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()


# -- process-global partitioning config --------------------------------------
#
# The CLI sets it once from --parallel-sim/--sim-backend, and run helpers
# deep inside experiment code consult it without threading parameters
# through every call chain.

_partitions: int = 1
_backend: str = "auto"

_BACKENDS = ("auto", "inline", "process")


def sim_partitions() -> Tuple[int, str]:
    """Current ``(shard count, backend)``; ``(1, _)`` means serial."""
    return _partitions, _backend


def set_sim_partitions(n: int, backend: str = "auto") -> Tuple[int, str]:
    """Set the process-global partitioning; returns the previous setting."""
    global _partitions, _backend
    if n < 1:
        raise ValueError(f"partitions must be >= 1, got {n}")
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {list(_BACKENDS)}"
        )
    previous = (_partitions, _backend)
    _partitions, _backend = n, backend
    return previous


class using_partitions:
    """Context manager: partition cluster runs inside the block."""

    def __init__(self, n: int, backend: str = "auto"):
        self._setting = (n, backend)
        self._previous: Optional[Tuple[int, str]] = None

    def __enter__(self):
        self._previous = set_sim_partitions(*self._setting)
        return self

    def __exit__(self, *exc):
        set_sim_partitions(*self._previous)
        return False


def resolve_backend(backend: str, n_shards: int) -> str:
    """Map ``auto`` to a concrete backend for this machine.

    Worker processes only pay off with real cores to put them on; on a
    single-CPU box ``auto`` picks the inline backend, which runs the
    identical protocol without the IPC overhead.
    """
    if backend != "auto":
        return backend
    cores = os.cpu_count() or 1
    return "process" if cores >= 2 and n_shards > 1 else "inline"
