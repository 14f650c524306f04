"""Partitioned (conservative parallel) execution of cluster fleet runs.

:func:`run_partitioned_fleet` is the intra-run parallel twin of
:func:`~repro.experiments.common.run_cluster_trace`: the same cluster,
fleet, and workload, but the hosts are partitioned over shards — each a
full :class:`~repro.sim.Simulator` — synchronized by the conservative
windowed coordinator in :mod:`repro.sim.pdes` with the LAN latency as
lookahead.

Partition layout: server node ``i`` lives on shard ``i % n_shards``;
client host ``h`` (which carries *all* the client threads pinned to it,
since they share a NIC) lives on shard ``h % n_shards``.  Every
cross-shard interaction is then a network message with at least one
latency of lookahead, which is exactly what the conservative protocol
needs.  Build order inside each shard mirrors the serial build (servers
in node order, then client threads in fleet order), so per-host behavior
is reproduced exactly; the serial-equals-parallel gates compare whole
table outputs to prove it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from ..clients import ClientThread
from ..core import SwalaCluster, SwalaConfig
from ..core.stats import ClusterStats
from ..net import DEFAULT_LATENCY, Network
from ..obs import runtime as obs_runtime
from ..sim import AllOf, Simulator, Tally
from ..sim.pdes import (
    ConservativeCoordinator,
    InlineShard,
    ProcessShard,
    Router,
    ShardSpec,
    resolve_backend,
)

__all__ = ["build_fleet_shard", "run_partitioned_fleet", "PartitionedClusterResult"]


def _client_hosts(n_hosts: int, host_prefix: str) -> List[str]:
    return [f"{host_prefix}{h}" for h in range(n_hosts)]


def build_fleet_shard(
    shard: int,
    n_shards: int,
    n_nodes: int,
    config: SwalaConfig,
    trace,
    n_threads: int,
    n_hosts: int,
    costs=None,
    think_time: float = 0.0,
    install: bool = True,
    host_prefix: str = "wsclient",
    obs_spec=None,
) -> ShardSpec:
    """Build shard ``shard`` of the partitioned fleet run.

    Top-level and driven purely by picklable arguments so the process
    backend can run it inside a worker.  Every shard derives the same
    global layout (node names, host list, trace split) and keeps only
    its own slice.

    ``obs_spec`` (an :class:`~repro.experiments.common.ObserverSpec`)
    asks for a shard-local observer: the shard builds its own collectors
    from the spec, attaches them to its slice of the cluster, and ships
    their snapshots back inside the finalize payload (under ``"obs"``)
    for the parent to merge.  The ambient process-global observer is
    deliberately shadowed during the build — with the inline backend the
    parent's live observer would otherwise attach itself to every shard.
    """
    sim = Simulator()
    network = Network(sim)
    if network.latency <= 0:
        raise ValueError("partitioned runs need positive LAN latency")

    local_nodes = [i for i in range(n_nodes) if i % n_shards == shard]
    local_hosts_c = [
        h for h in range(n_hosts) if h % n_shards == shard
    ]
    node_names = [f"swala{i}" for i in range(n_nodes)]
    client_hosts = _client_hosts(n_hosts, host_prefix)
    local_hosts = [node_names[i] for i in local_nodes] + [
        client_hosts[h] for h in local_hosts_c
    ]
    all_hosts = node_names + client_hosts
    router = Router(
        local_hosts, [h for h in all_hosts if h not in set(local_hosts)]
    )
    network.router = router

    cluster = None
    if local_nodes:
        cluster = SwalaCluster(
            sim, n_nodes, config, network=network, costs=costs,
            nodes=local_nodes,
        )
        if install:
            cluster.install_files(trace)

    parts = trace.split(n_threads)
    # Thread names must share the serial fleet's ``client...`` family:
    # resource probes aggregate provenance by process-name family, so a
    # different prefix would drift an observed profile export.
    threads = [
        (i, ClientThread(
            sim=sim,
            network=network,
            host=client_hosts[i % n_hosts],
            server=node_names[i % n_nodes],
            requests=parts[i],
            think_time=think_time,
            name=f"client{i}",
        ))
        for i in range(n_threads)
        if (i % n_hosts) % n_shards == shard
    ]

    observer = obs_spec.build() if obs_spec is not None else None
    with obs_runtime.observing(observer):
        if cluster is not None:
            cluster.start()
        procs = [t.start() for _, t in threads]
    terminal = AllOf(sim, procs) if procs else None

    def finalize(horizon: Optional[float] = None) -> Dict[str, Any]:
        return {
            "obs": (
                observer.snapshot(horizon)
                if observer is not None else None
            ),
            "threads": [(i, t.response_times) for i, t in threads],
            "stats": [
                (i, server.stats)
                for i, server in zip(local_nodes, cluster.servers)
            ] if cluster is not None else [],
            "cached": [
                (i, len(server.cacher.store))
                for i, server in zip(local_nodes, cluster.servers)
            ] if cluster is not None else [],
            "lock_waits": [
                (i, server.cacher.directory.total_lock_waits())
                for i, server in zip(local_nodes, cluster.servers)
            ] if cluster is not None else [],
            "network": (
                network.messages_sent,
                network.messages_dropped,
                network.bytes_sent,
                network.transit_times,
                network.port_traffic,
            ),
        }

    return ShardSpec(
        sim=sim,
        network=network,
        router=router,
        hosts=local_hosts,
        terminal=terminal,
        finalize=finalize,
    )


class PartitionedClusterResult:
    """Duck-typed stand-in for :class:`~repro.core.SwalaCluster` results.

    Exposes what experiment code reads off the cluster after a run —
    ``stats()``, ``total_cached_entries()``, ``node_names``, ``servers``
    (as lightweight views carrying per-node stats and directory lock
    waits), and merged ``network`` counters — assembled from the shards'
    finalized, picklable summaries.
    """

    def __init__(self, n_nodes: int, n_shards: int, backend: str,
                 rounds: int, summaries: List[dict]):
        self.node_names = [f"swala{i}" for i in range(n_nodes)]
        self.n_shards = n_shards
        self.backend = backend
        self.rounds = rounds
        #: Per-shard observer snapshots (shard-id order) and the global
        #: terminal time; filled in by :func:`run_partitioned_fleet`.
        self.obs_snapshots: List[Optional[dict]] = []
        self.terminal_time: Optional[float] = None
        by_node: Dict[int, Any] = {}
        cached: Dict[int, int] = {}
        waits: Dict[int, float] = {}
        messages_sent = dropped = bytes_sent = 0
        transit = Tally("lan.transit", keep_samples=False)
        port_traffic: Dict[str, List[int]] = {}
        self._threads: List[tuple] = []
        for summary in summaries:
            self._threads.extend(summary["threads"])
            for i, stats in summary["stats"]:
                by_node[i] = stats
            for i, n in summary["cached"]:
                cached[i] = n
            for i, w in summary["lock_waits"]:
                waits[i] = w
            sent, drop, nbytes, tally, ports = summary["network"]
            messages_sent += sent
            dropped += drop
            bytes_sent += nbytes
            transit.merge(tally)
            for port, (n_msgs, n_bytes) in ports.items():
                entry = port_traffic.setdefault(port, [0, 0])
                entry[0] += n_msgs
                entry[1] += n_bytes
        self._node_stats = [by_node[i] for i in sorted(by_node)]
        self._cached = sum(cached.values())
        self.network = SimpleNamespace(
            name="lan",
            messages_sent=messages_sent,
            messages_dropped=dropped,
            bytes_sent=bytes_sent,
            transit_times=transit,
            port_traffic=port_traffic,
        )
        self.servers = [
            SimpleNamespace(
                stats=stats,
                cacher=SimpleNamespace(
                    directory=SimpleNamespace(
                        total_lock_waits=lambda w=waits.get(i, 0.0): w
                    )
                ),
            )
            for i, stats in zip(sorted(by_node), self._node_stats)
        ]

    def __len__(self) -> int:
        return len(self.node_names)

    def stats(self) -> ClusterStats:
        return ClusterStats.aggregate(self._node_stats)

    def total_cached_entries(self) -> int:
        return self._cached

    def merged_response_times(self) -> Tally:
        merged = Tally("fleet.rt")
        for _, tally in sorted(self._threads, key=lambda item: item[0]):
            merged.merge(tally)
        return merged

    def __repr__(self) -> str:
        return (
            f"<PartitionedClusterResult n={len(self.node_names)} "
            f"shards={self.n_shards} backend={self.backend!r}>"
        )


def run_partitioned_fleet(
    n_nodes: int,
    config: SwalaConfig,
    trace,
    n_threads: int = 16,
    n_hosts: int = 2,
    costs=None,
    think_time: float = 0.0,
    install: bool = True,
    n_shards: int = 2,
    backend: str = "auto",
    obs_spec=None,
    host_prefix: str = "wsclient",
):
    """Partitioned twin of ``run_cluster_trace``: returns ``(times, view)``.

    ``n_shards`` is clamped to the node count (an empty shard would add
    synchronization cost for nothing).  Backend ``auto`` resolves per
    machine (see :func:`repro.sim.pdes.resolve_backend`).

    With ``obs_spec`` set, each shard runs its own collectors; the view
    carries the raw per-shard snapshots as ``view.obs_snapshots`` (in
    shard-id order) plus the coordinator's global terminal time as
    ``view.terminal_time`` — the caller folds them into its live
    observer with :meth:`RunObserver.merge`.
    """
    if n_nodes < 2:
        raise ValueError("partitioned runs need at least 2 nodes")
    n_shards = max(2, min(n_shards, n_nodes))
    backend = resolve_backend(backend, n_shards)
    kwargs = dict(
        n_shards=n_shards,
        n_nodes=n_nodes,
        config=config,
        trace=trace,
        n_threads=n_threads,
        n_hosts=n_hosts,
        costs=costs,
        think_time=think_time,
        install=install,
        obs_spec=obs_spec,
        host_prefix=host_prefix,
    )
    if backend == "process":
        shards = [
            ProcessShard(build_fleet_shard, dict(kwargs, shard=s))
            for s in range(n_shards)
        ]
    else:
        shards = [
            InlineShard(build_fleet_shard(shard=s, **kwargs))
            for s in range(n_shards)
        ]
    coordinator = ConservativeCoordinator(shards, lookahead=DEFAULT_LATENCY)
    try:
        coordinator.run()
        summaries = coordinator.finalize()
    finally:
        coordinator.stop()
    obs_snapshots = [summary.pop("obs", None) for summary in summaries]
    view = PartitionedClusterResult(
        n_nodes, n_shards, backend, coordinator.rounds, summaries
    )
    view.obs_snapshots = obs_snapshots
    view.terminal_time = coordinator.terminal_time
    return view.merged_response_times(), view
