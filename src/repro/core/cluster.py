"""Cluster builder: N Swala nodes on one LAN."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..hosts import Machine, MachineCosts
from ..net import Network
from ..sim import Simulator
from ..workload import Trace
from .config import SwalaConfig
from .server import SwalaServer
from .stats import ClusterStats

__all__ = ["SwalaCluster"]


class SwalaCluster:
    """N identically configured Swala nodes sharing a switched LAN."""

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        config: Optional[SwalaConfig] = None,
        network: Optional[Network] = None,
        costs: Optional[MachineCosts] = None,
        costs_per_node: Optional[Sequence[Optional[MachineCosts]]] = None,
        name_prefix: str = "swala",
    ):
        """``costs`` applies one machine profile to every node;
        ``costs_per_node`` builds a heterogeneous cluster (the paper's
        testbed mixed Ultra 1s and dual-CPU Ultra 2s).
        """
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if costs_per_node is not None and len(costs_per_node) != n_nodes:
            raise ValueError(
                f"costs_per_node has {len(costs_per_node)} entries for "
                f"{n_nodes} nodes"
            )
        self.sim = sim
        self.config = config or SwalaConfig()
        self.network = network or Network(sim)
        self.node_names: List[str] = [f"{name_prefix}{i}" for i in range(n_nodes)]
        node_costs = (
            list(costs_per_node) if costs_per_node is not None
            else [costs] * n_nodes
        )
        self.machines: List[Machine] = [
            Machine(sim, name, node_cost)
            for name, node_cost in zip(self.node_names, node_costs)
        ]
        self.servers: List[SwalaServer] = [
            SwalaServer(
                sim=sim,
                machine=machine,
                network=self.network,
                node_names=self.node_names,
                config=self.config,
            )
            for machine in self.machines
        ]

    def __len__(self) -> int:
        return len(self.servers)

    def __getitem__(self, idx: int) -> SwalaServer:
        return self.servers[idx]

    def start(self) -> None:
        # Late import: the active-observer slot is how CLI --trace-out /
        # --metrics-out reach clusters built inline by experiment runners.
        from ..obs.runtime import current_observer

        observer = current_observer()
        if observer is not None and hasattr(observer, "attach"):
            observer.attach(self)
        for server in self.servers:
            server.start()

    def attach_streaming(self, streaming) -> None:
        """Stream every node's completions into windowed telemetry
        (shorthand for ``repro.obs.attach(cluster, streaming=...)``)."""
        from ..obs.runtime import attach

        attach(self, streaming=streaming)

    def install_files(self, trace: Trace) -> None:
        """Give every node a copy of the static documents (shared docroot)."""
        for server in self.servers:
            server.install_files(trace)

    def stats(self) -> ClusterStats:
        return ClusterStats.aggregate(server.stats for server in self.servers)

    def total_cached_entries(self) -> int:
        return sum(len(server.cacher.store) for server in self.servers)

    def __repr__(self) -> str:
        return f"<SwalaCluster n={len(self.servers)} mode={self.config.mode.value}>"
