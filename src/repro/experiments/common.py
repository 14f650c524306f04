"""Shared helpers for the per-table/figure experiment harnesses."""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..clients import ClientFleet, ClientThread
from ..core import CacheMode, SwalaCluster, SwalaConfig
from ..hosts import Machine, MachineCosts
from ..net import Network
from ..obs import runtime
from ..sim import Simulator, Tally
from ..workload import Trace

__all__ = [
    "RunObserver",
    "observe_runs",
    "current_observer",
    "oracle_forces_serial",
    "run_single_server_fleet",
    "run_cluster_trace",
    "warm_cluster",
]


class RunObserver:
    """Observability hookup for experiment runs.

    Experiment commands build their simulators/clusters several layers
    below the CLI, so ``--trace-out`` / ``--metrics-out`` can't just pass
    a collector down every call chain.  Instead the CLI installs an
    observer with :func:`observe_runs`; ``SwalaCluster.start`` and the
    run helpers here look it up via :func:`current_observer` and call
    :meth:`attach` before running.  Metrics are scraped either eagerly
    with :meth:`collect` or once at command end with :meth:`collect_all`
    — both are idempotent per target, so the paths compose.

    The collectors switched on live in :attr:`collectors` (name →
    collector, in :data:`COLLECTORS` order); ``observer.tracer`` and its
    siblings read that mapping and are ``None`` for a collector left off.
    Every collector has the same lifecycle — ``new_run()`` per attached
    target, ``finalize()`` per collected one, ``snapshot()``/``merge()``
    across processes (all but the serial-only oracle), ``write()`` and
    ``fresh()`` — so the methods here are loops over the mapping.
    """

    #: The collector keyword arguments, in export order (the tracer
    #: merges before the profiler, whose intervals take its span offsets).
    #: ``oracle`` is a :class:`~repro.obs.ConsistencyOracle`
    #: (``--audit-out``); ``timeseries`` gets a sampler daemon per attached
    #: simulation, every ``timeseries_dt`` sim-seconds; ``streaming``
    #: schedules nothing.
    COLLECTORS = (
        "tracer", "registry", "oracle", "timeseries", "profiler", "streaming",
    )

    def __init__(self, timeseries_dt: float = 1.0, **collectors):
        unknown = sorted(set(collectors) - set(self.COLLECTORS))
        if unknown:
            raise TypeError(f"unknown collector(s): {', '.join(unknown)}")
        self.collectors: Dict[str, Any] = {
            name: collectors[name] for name in self.COLLECTORS
            if collectors.get(name) is not None
        }
        self.timeseries_dt = timeseries_dt
        self.targets: list = []
        self._attached: set = set()
        self._collected: set = set()

    def __getattr__(self, name: str):
        if name in RunObserver.COLLECTORS:
            return self.collectors.get(name)
        raise AttributeError(name)

    def fresh(self) -> "RunObserver":
        """An observer with empty collectors of the same settings.

        What a ``--jobs`` worker runs its cell under: no data, runs or
        targets carry over, only capacities and modes.
        """
        return RunObserver(
            timeseries_dt=self.timeseries_dt,
            **{name: c.fresh() for name, c in self.collectors.items()},
        )

    def attach(self, target) -> None:
        """Observe ``target`` (a cluster or a server) from now on.

        Each *new* target marks a new run on the collectors, so spans
        from the several back-to-back simulations one experiment command
        runs stay distinguishable in the dump.  Re-attaching the same
        target (e.g. a helper attached it and ``start()`` attaches
        again) is a no-op.  Only Swala nodes and clusters are audited.
        """
        if id(target) in self._attached:
            return
        self._attached.add(id(target))
        self.targets.append(target)  # keeps target (and its id) alive
        active = dict(self.collectors)
        if not (hasattr(target, "servers") or hasattr(target, "cacher")):
            active.pop("oracle", None)
        for collector in active.values():
            collector.new_run()
        runtime.attach(
            target, tracer=active.get("tracer"), oracle=active.get("oracle"),
            profiler=active.get("profiler"), streaming=active.get("streaming"),
        )
        if self.timeseries is not None:
            self._start_sampler(target)

    def _start_sampler(self, target) -> None:
        """Spawn one sampling daemon in ``target``'s simulation."""
        from ..obs.timeseries import (
            TimeSeriesSampler,
            cluster_series,
            node_stats_series,
            oracle_series,
        )

        sampler = TimeSeriesSampler(
            target.sim, self.timeseries, self.timeseries_dt
        )
        if hasattr(target, "servers"):
            sampler.add_source("cluster", cluster_series(target))
        elif hasattr(target, "stats"):
            sampler.add_source(
                "node", lambda server=target: node_stats_series(server)
            )
        if self.oracle is not None:
            sampler.add_source("oracle", oracle_series(self.oracle))
        sampler.start()

    def collect(self, target) -> None:
        """Finalize the collectors on a finished server/cluster and
        scrape it into the registry."""
        if id(target) in self._collected:
            return
        self._collected.add(id(target))
        # Flushes the profiler's integrals up to the run's final sim time
        # and closes the streaming window still open; both idempotent, so
        # finalizing after earlier (stopped) runs again is harmless.
        for collector in self.collectors.values():
            collector.finalize()
        if self.registry is None:
            return
        from ..obs import collect_network, collect_node_stats

        servers = getattr(target, "servers", None) or [target]
        for server in servers:
            stats = getattr(server, "stats", None)
            if stats is not None:
                collect_node_stats(self.registry, stats)
        network = getattr(target, "network", None)
        if network is not None:
            collect_network(self.registry, network)

    def collect_all(self) -> None:
        """Scrape every attached-but-not-yet-collected target.

        Stats objects are cumulative, so scraping once when the command
        finishes is equivalent to scraping right after each run.
        """
        for target in list(self.targets):
            self.collect(target)

    def finish(self) -> None:
        """The command's one collect step, before its exports are written.

        Scrapes every target, then publishes the streaming totals into
        the registry when both are on.  Call once, in the process that
        writes: after a ``--jobs`` merge the telemetry holds every run.
        """
        self.collect_all()
        if self.registry is not None and self.streaming is not None:
            from ..obs import collect_streaming

            collect_streaming(self.registry, self.streaming)

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable snapshots of every mergeable collector.

        Collects first (:meth:`collect_all`), so a ``--jobs`` worker can
        run to completion, snapshot, and ship the bundle back for
        :meth:`merge`.  The oracle is deliberately absent: it audits
        global event order and cannot be merged.
        """
        self.collect_all()
        return {
            name: collector.snapshot()
            for name, collector in self.collectors.items()
            if name != "oracle"
        }

    def merge(self, snaps: Sequence[Dict[str, Any]]) -> None:
        """Fold :meth:`snapshot` bundles onto this observer.

        The bundles start at this observer's current runs: ``--jobs``
        merges each worker cell alone, in cell order, so its runs become
        the next runs (reproducing the serial sweep's numbering).  Span
        ids are offset past those already assigned, and profiler
        intervals get the same offsets as their spans.
        """
        offsets = None
        for name, collector in self.collectors.items():
            parts = [snap[name] for snap in snaps if name in snap]
            if name == "tracer":
                offsets = collector.merge(parts)
            elif name == "profiler":
                collector.merge(parts, offsets)
            elif name != "oracle":
                collector.merge(parts)

    def critical_records(self):
        """Per-request blame decompositions (``--critical-out``).

        Joins the collected span trees with the profiler's span-linked
        resource intervals; needs a tracer and a profiler built with
        ``record_intervals=True`` (the CLI arranges both when
        ``--critical-out`` is given).  Returns ``[]`` when tracing was
        off — never raises on an unobserved or empty run.
        """
        if self.tracer is None:
            return []
        from ..obs import decompose

        intervals = (
            self.profiler.all_intervals()
            if self.profiler is not None and self.profiler.linker is not None
            else None
        )
        return decompose(self.tracer, intervals)


def oracle_forces_serial(observer: Optional[object]) -> bool:
    """True (with a loud warning) when ``observer`` carries the
    consistency oracle, which audits *global* event order and therefore
    cannot be split over worker processes."""
    if observer is None or getattr(observer, "oracle", None) is None:
        return False
    warnings.warn(
        "--audit-out keeps the run serial: the consistency oracle needs "
        "the global event order and cannot be merged from workers; "
        "drop --audit-out or --jobs to silence this",
        RuntimeWarning,
        stacklevel=3,
    )
    return True


# The active-observer slot lives in ``repro.obs.runtime`` so that core
# layers (``SwalaCluster.start``) can consult it without importing the
# experiments package; these are the same objects, re-exported.
current_observer = runtime.current_observer


@contextmanager
def observe_runs(observer: Optional[RunObserver]):
    """Make ``observer`` the active one for runs started inside the block."""
    with runtime.observing(observer):
        yield observer


def run_single_server_fleet(
    make_server: Callable[[Simulator, Network, Machine], object],
    trace: Trace,
    n_threads: int,
    n_hosts: int = 3,
    costs: Optional[MachineCosts] = None,
) -> Tuple[Tally, object]:
    """Build one server of any kind, run a closed-loop fleet against it.

    ``make_server`` receives ``(sim, network, machine)`` and returns a
    started-able server named/located at machine.name.
    """
    sim = Simulator()
    network = Network(sim)
    machine = Machine(sim, "srv", costs)
    server = make_server(sim, network, machine)
    server.install_files(trace)
    observer = current_observer()
    if observer is not None:
        observer.attach(server)
    server.start()
    fleet = ClientFleet(
        sim, network, trace, servers=["srv"], n_threads=n_threads, n_hosts=n_hosts
    )
    times = fleet.run()
    if observer is not None:
        observer.collect(server)
    return times, server


def run_cluster_trace(
    n_nodes: int,
    mode: CacheMode,
    trace: Trace,
    n_threads: int = 16,
    n_hosts: int = 2,
    config_kw: Optional[dict] = None,
    costs: Optional[MachineCosts] = None,
) -> Tuple[Tally, SwalaCluster]:
    """Run ``trace`` against an ``n_nodes`` cluster in the given mode.

    Client threads are dealt round-robin over nodes, each pinned to one
    node (the paper's client arrangement).
    """
    config = SwalaConfig(mode=mode, **(config_kw or {}))
    observer = current_observer()
    sim = Simulator()
    cluster = SwalaCluster(sim, n_nodes, config, costs=costs)
    cluster.install_files(trace)
    if observer is not None:
        observer.attach(cluster)
    cluster.start()
    fleet = ClientFleet(
        sim,
        cluster.network,
        trace,
        servers=cluster.node_names,
        n_threads=n_threads,
        n_hosts=n_hosts,
    )
    times = fleet.run()
    if observer is not None:
        observer.collect(cluster)
    return times, cluster


def warm_cluster(cluster: SwalaCluster, trace: Trace, node: str) -> None:
    """Replay ``trace`` once against ``node`` to populate its cache, then
    let the broadcasts settle."""
    sim = cluster.sim
    warmer = ClientThread(
        sim, cluster.network, "warmer", node, list(trace), name="warmer"
    )
    sim.run(until=warmer.start())
