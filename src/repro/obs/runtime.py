"""How collectors reach a run: :func:`attach` and the active observer.

:func:`attach` is the one way a collector starts observing a cluster or
a single server: it sets the fields of the simulation's ``sim.obs``
(:class:`~repro.sim.probes.Instrumentation`), which every instrumented
component reads, and walks the target's resources once for the profiler.

Experiment harnesses build their simulators and clusters several layers
below the CLI, so ``--trace-out``/``--metrics-out`` cannot thread a
collector down every call chain.  Instead this module holds one active
observer slot: the CLI installs an observer with :func:`observing`, and
the places that construct servers/clusters (``SwalaCluster.start``, the
run helpers in :mod:`repro.experiments.common`) look it up with
:func:`current_observer` and call its ``attach(target)``.

The module is dependency-free (duck-typed targets) so the core layers
can import it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

__all__ = ["attach", "current_observer", "observing"]


def attach(target, tracer=None, oracle=None, profiler=None,
           streaming=None) -> None:
    """Observe ``target`` with the given collectors from now on.

    ``target`` is a cluster (``servers`` sharing one ``network``) or a
    single server.  Collectors passed as ``None`` keep their current
    setting, so separate calls compose.  A cluster's LAN joins the
    simulation's instrumentation (hop spans, dropped-update audits, NIC
    and mailbox probes); a single server's LAN stays unobserved.

    The profiler gets one walk over the resources that exist now: the
    LAN's NICs then mailboxes (clusters only), then per server its CPU
    bank, disk, thread-pool probe and directory locks.  The LAN probes
    NICs and mailboxes it creates later itself.
    """
    sim = target.sim
    obs = sim.obs
    servers = getattr(target, "servers", None)
    network = None
    if servers is None:
        servers = [target]
    else:
        network = target.network
        network.obs = obs
    if tracer is not None:
        obs.tracer = tracer
    if oracle is not None:
        obs.oracle = oracle
        for server in servers:
            cacher = getattr(server, "cacher", None)
            if cacher is not None:
                cacher.sync.oracle_attached(oracle)
    if profiler is not None:
        obs.profiler = profiler
        if network is not None:
            for resource in network.resources():
                profiler.instrument(resource)
        for server in servers:
            machine = server.machine
            profiler.instrument(machine.cpu)
            profiler.instrument(machine.disk.device)
            # Thread-pool servers carry a ``pool_probe`` slot; keep the
            # first profiler's probe if several attach.
            if getattr(server, "pool_probe", False) is None:
                server.pool_probe = profiler.make_probe(
                    sim, f"{server.name}.pool", "pool",
                    capacity=server.n_threads,
                )
            cacher = getattr(server, "cacher", None)
            if cacher is not None:
                profiler.watch_locks(server.name, cacher.directory.locks())
    if streaming is not None:
        obs.streaming = streaming
        if network is not None:
            streaming.n_servers = len(servers)

_OBSERVER: Optional[object] = None


def current_observer() -> Optional[object]:
    """The active observer, or ``None`` when observability is off."""
    return _OBSERVER


@contextmanager
def observing(observer: Optional[object]):
    """Make ``observer`` the active one for runs started inside the block."""
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    try:
        yield observer
    finally:
        _OBSERVER = previous
