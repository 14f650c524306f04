"""Shared helpers for the per-table/figure experiment harnesses."""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
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
    "ObserverSpec",
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
    """

    def __init__(
        self,
        tracer=None,
        registry=None,
        oracle=None,
        timeseries=None,
        timeseries_dt: float = 1.0,
        profiler=None,
        streaming=None,
    ):
        self.tracer = tracer
        self.registry = registry
        #: Optional :class:`~repro.obs.ConsistencyOracle` (``--audit-out``).
        self.oracle = oracle
        #: Optional :class:`~repro.obs.TimeSeriesLog` (``--timeseries-out``);
        #: a sampler daemon is spawned per attached simulation.
        self.timeseries = timeseries
        self.timeseries_dt = timeseries_dt
        #: Optional :class:`~repro.obs.ResourceProfiler` (``--profile-out``).
        self.profiler = profiler
        #: Optional :class:`~repro.obs.StreamingTelemetry`
        #: (``--streaming-out``); unlike the sampler it schedules nothing.
        self.streaming = streaming
        self.targets: list = []
        self._attached: set = set()
        self._collected: set = set()

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
        oracle = self.oracle
        if not (hasattr(target, "servers") or hasattr(target, "cacher")):
            oracle = None
        for collector in (self.tracer, oracle, self.profiler, self.streaming):
            if collector is not None:
                collector.new_run()
        runtime.attach(
            target, tracer=self.tracer, oracle=oracle,
            profiler=self.profiler, streaming=self.streaming,
        )
        if self.timeseries is not None:
            self._start_sampler(target)

    def _start_sampler(self, target) -> None:
        """Spawn one sampling daemon in ``target``'s simulation."""
        sim = getattr(target, "sim", None)
        if sim is None:
            return
        from ..obs.timeseries import (
            TimeSeriesSampler,
            cluster_series,
            node_stats_series,
            oracle_series,
        )

        self.timeseries.new_run()
        sampler = TimeSeriesSampler(sim, self.timeseries, self.timeseries_dt)
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
        """Scrape a finished server/cluster into the registry/profiler."""
        if id(target) in self._collected:
            return
        self._collected.add(id(target))
        if self.profiler is not None:
            # Flush integrals up to the run's final sim time; idempotent,
            # so finalizing earlier (stopped) runs again is harmless.
            self.profiler.finalize()
        if self.streaming is not None:
            # Close the window still open at end of run (idempotent too).
            self.streaming.finalize()
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

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable snapshots of every mergeable collector.

        Collects first (:meth:`collect_all`), so a ``--jobs`` worker can
        run to completion, snapshot, and ship the bundle back for
        :meth:`merge`.  The oracle is deliberately absent: it audits
        global event order and cannot be merged.
        """
        self.collect_all()
        collectors = {
            "tracer": self.tracer,
            "registry": self.registry,
            "timeseries": self.timeseries,
            "profiler": self.profiler,
            "streaming": self.streaming,
        }
        return {
            name: collector.snapshot() if collector is not None else None
            for name, collector in collectors.items()
        }

    def merge(self, snaps: Sequence[Optional[Dict[str, Any]]]) -> None:
        """Fold :meth:`snapshot` bundles onto this observer.

        The bundles start at this observer's current runs: ``--jobs``
        merges each worker cell alone, in cell order, so its runs become
        the next runs (reproducing the serial sweep's numbering).  Span
        ids are offset past those already assigned, and profiler
        intervals get the same offsets as their spans.
        """
        snaps = [snap for snap in snaps if snap is not None]

        def parts(name):
            return [snap[name] for snap in snaps if snap[name] is not None]

        offsets = None
        if self.tracer is not None:
            offsets = self.tracer.merge(parts("tracer"))
        if self.registry is not None:
            self.registry.merge(parts("registry"))
        if self.timeseries is not None:
            self.timeseries.merge(parts("timeseries"))
        if self.profiler is not None:
            self.profiler.merge(parts("profiler"), offsets)
        if self.streaming is not None:
            self.streaming.merge(parts("streaming"))

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


@dataclass(frozen=True)
class ObserverSpec:
    """Picklable recipe for rebuilding a :class:`RunObserver` elsewhere.

    ``--jobs`` workers cannot share the parent's live collectors, so
    the parent ships this spec across the process boundary, each worker
    builds its own observer from it, runs, and ships a
    :meth:`RunObserver.snapshot` back for merging.  Each field
    holds the collector's constructor kwargs, or ``None`` when that
    collector is off; the oracle has no field — it is serial-only.
    """

    tracer: Optional[Dict[str, Any]] = None
    registry: bool = False
    timeseries: Optional[Dict[str, Any]] = None
    timeseries_dt: float = 1.0
    profiler: Optional[Dict[str, Any]] = None
    streaming: Optional[Dict[str, Any]] = None

    @classmethod
    def from_observer(cls, observer: "RunObserver") -> "ObserverSpec":
        """Capture the observer's collector configuration (not its data)."""
        tracer = timeseries = profiler = streaming = None
        registry = observer.registry is not None
        if observer.tracer is not None:
            tracer = {"max_spans": observer.tracer.max_spans}
        if observer.timeseries is not None:
            timeseries = {"max_samples": observer.timeseries.max_samples}
        if observer.profiler is not None:
            profiler = {
                "max_resources": observer.profiler.max_resources,
                "record_intervals": observer.profiler.linker is not None,
                "max_intervals": observer.profiler.max_intervals,
            }
        if observer.streaming is not None:
            s = observer.streaming
            streaming = {
                "window": s.window,
                "slo": s.slo,  # frozen dataclass, picklable
                "compression": s.compression,
                "keep_exact": s.keep_exact,
                "max_windows": s.max_windows,
                "ewma_halflife": s.rate_ewma.halflife,
            }
        return cls(
            tracer=tracer,
            registry=registry,
            timeseries=timeseries,
            timeseries_dt=observer.timeseries_dt,
            profiler=profiler,
            streaming=streaming,
        )

    def build(self) -> "RunObserver":
        """Construct a fresh observer with empty collectors."""
        from ..obs import (
            MetricsRegistry,
            ResourceProfiler,
            StreamingTelemetry,
            TimeSeriesLog,
            TraceCollector,
        )

        return RunObserver(
            tracer=TraceCollector(**self.tracer)
                if self.tracer is not None else None,
            registry=MetricsRegistry() if self.registry else None,
            timeseries=TimeSeriesLog(**self.timeseries)
                if self.timeseries is not None else None,
            timeseries_dt=self.timeseries_dt,
            profiler=ResourceProfiler(**self.profiler)
                if self.profiler is not None else None,
            streaming=StreamingTelemetry(**self.streaming)
                if self.streaming is not None else None,
        )


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
