"""Table 3 — response-time overhead of insertion + broadcast (§5.2).

180 unique, cacheable, 1-second requests are sent to one node of a 2..8
node cluster: every request misses, inserts, and broadcasts.  The paper
finds the increase over non-caching mode insignificant and independent of
the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..clients import ClientThread
from ..core import CacheMode, SwalaCluster, SwalaConfig
from ..hosts import MachineCosts
from ..metrics import render_table
from ..sim import Simulator
from ..workload import unique_cgi_trace

__all__ = ["Table3Row", "run_table3", "render_table3"]


@dataclass(frozen=True)
class Table3Row:
    nodes: int
    no_cache: float
    coop_cache: float

    @property
    def increase(self) -> float:
        return self.coop_cache - self.no_cache


def _run_one(n_nodes: int, mode: CacheMode, n_requests: int, cpu_time: float,
             costs: Optional[MachineCosts], directory: str = "broadcast") -> float:
    trace = unique_cgi_trace(n_requests, cpu_time=cpu_time)
    config = SwalaConfig(mode=mode, directory_protocol=directory)
    sim = Simulator()
    cluster = SwalaCluster(sim, n_nodes, config, costs=costs)
    cluster.start()
    # Explicit name (not the process-global auto counter): probe and
    # reply-port names derive from it, so the exported resource names
    # match the committed `repro diff` baselines in any process.
    client = ClientThread(
        sim, cluster.network, "client0", cluster.node_names[0], list(trace),
        name="client0",
    )
    sim.run(until=client.start())
    return client.response_times.mean


def run_table3(
    node_counts: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    n_requests: int = 180,
    cpu_time: float = 1.0,
    costs: Optional[MachineCosts] = None,
    directory: str = "broadcast",
) -> List[Table3Row]:
    """``directory`` selects the cooperative runs' dirsync protocol; the
    default reproduces the paper's broadcast exactly (same config, same
    code path), which the CI bit-identity gate relies on."""
    rows = []
    for n in node_counts:
        rows.append(
            Table3Row(
                nodes=n,
                no_cache=_run_one(n, CacheMode.NONE, n_requests, cpu_time, costs),
                coop_cache=_run_one(
                    n, CacheMode.COOPERATIVE, n_requests, cpu_time, costs,
                    directory=directory,
                ),
            )
        )
    return rows


def render_table3(rows: List[Table3Row]) -> str:
    return render_table(
        "Table 3: response-time overhead of insertion + broadcast",
        ["# nodes", "no cache (s)", "coop cache (s)", "increase (s)"],
        [(r.nodes, r.no_cache, r.coop_cache, r.increase) for r in rows],
        note="paper: increase insignificant and independent of node count",
    )
