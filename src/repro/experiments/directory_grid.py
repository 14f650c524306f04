"""Directory-protocol grid — broadcast vs summary indicators at scale.

The paper's replicated directory (§4.1) broadcasts every cache insert
and delete to every peer: with ``U`` updates on an ``N``-node cluster
that is ``U x (N-1)`` messages, and the per-request directory traffic
grows linearly with the cluster.  The :mod:`repro.core.dirsync` seam
adds two summary-indicator protocols — periodic cache digests and
batched Bloom-filter deltas — that trade a bounded window of staleness
(false misses, and for Bloom a configured false-hit probability) for
update coalescing.

This grid quantifies that trade: ``protocol x cluster size`` on two
workload mixes (the WebStone-derived Tables 5/6 mix and the ADL logs),
reporting directory messages and bytes per request, hit ratio, mean
latency, and the false-hit / false-miss rates.  The coalescing factor —
updates folded into each summary — is what the grid is calibrated to
expose: each mix's indicator periods are sized so several updates
accumulate per refresh (see :data:`GRID_MIXES`), which is exactly the
regime where indicators beat the broadcast by an order of magnitude.

Every cell is one serial simulation; the largest, 1024-node broadcast,
takes a few minutes and under 1 GB of memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import CacheMode
from ..core.dirsync import DIRECTORY_PROTOCOLS
from ..hosts import MachineCosts
from ..metrics import render_table
from ..workload import PAPER_ADL, Trace, generate_adl_trace, hit_ratio_trace
from .common import run_cluster_trace

__all__ = [
    "GridMix",
    "GridCell",
    "GRID_MIXES",
    "run_directory_grid",
    "render_directory_grid",
    "grid_to_dicts",
]


@dataclass(frozen=True)
class GridMix:
    """One workload column of the grid, with its indicator calibration.

    The indicator periods are per-mix because coalescing is what makes a
    summary protocol pay off: a refresh period must span several inserts
    per node (insert rate x period >> 1), and the mixes differ in
    per-node insert rate.  Periods far beyond the run length would be
    degenerate the other way — summaries that never fire.
    """

    name: str
    #: Digest refresh period, seconds.
    digest_interval: float
    #: Bloom delta-batch size (flush when this many deltas queue).
    indicator_batch: int
    #: Bloom flush timer, seconds (flush pending deltas at least this often).
    indicator_max_delay: float

    def trace(self, scale: float, seed: int) -> Trace:
        raise NotImplementedError

    def config_kw(self, protocol: str) -> dict:
        return dict(
            directory_protocol=protocol,
            digest_interval=self.digest_interval,
            indicator_batch=self.indicator_batch,
            indicator_max_delay=self.indicator_max_delay,
        )


class _WebstoneMix(GridMix):
    """3x the Tables 5/6 WebStone-derived mix (~1 insert/s per node)."""

    def trace(self, scale: float, seed: int) -> Trace:
        return hit_ratio_trace(
            total=max(2, int(round(4800 * scale))),
            unique=max(1, int(round(3366 * scale))),
            seed=seed,
        )


class _AdlMix(GridMix):
    """The ADL log's CGI mix (longer scripts, ~0.6 inserts/s per node)."""

    def trace(self, scale: float, seed: int) -> Trace:
        return generate_adl_trace(
            PAPER_ADL.scaled(0.07 * scale), seed=seed
        ).cgi_only()


#: The grid's workload columns, indicator periods pre-calibrated so a
#: refresh coalesces ~10+ updates at the default scale.
GRID_MIXES: Dict[str, GridMix] = {
    "webstone": _WebstoneMix(
        name="webstone",
        digest_interval=15.0,
        indicator_batch=32,
        indicator_max_delay=15.0,
    ),
    "adl": _AdlMix(
        name="adl",
        digest_interval=20.0,
        indicator_batch=32,
        indicator_max_delay=25.0,
    ),
}


@dataclass(frozen=True)
class GridCell:
    mix: str
    protocol: str
    nodes: int
    requests: int
    dir_msgs: int
    dir_bytes: int
    hits: int
    misses: int
    false_hits: int
    false_misses: int
    inserts: int
    hit_ratio: float
    mean_rt: float

    @property
    def msgs_per_request(self) -> float:
        return self.dir_msgs / max(1, self.requests)

    @property
    def bytes_per_request(self) -> float:
        return self.dir_bytes / max(1, self.requests)

    @property
    def false_hit_rate(self) -> float:
        """False hits over lookups whose URL was cached nowhere.

        ``misses + false_hits`` counts the lookups that (eventually) had
        to execute; ``false_hits`` is how many of those were first sent
        on a futile remote fetch.  For the Bloom protocol this is the
        empirical counterpart of ``indicator_fp_rate`` (plus staleness).
        """
        return self.false_hits / max(1, self.misses + self.false_hits)

    @property
    def false_miss_rate(self) -> float:
        """Duplicate executions (of work a peer already had) per request."""
        return self.false_misses / max(1, self.requests)


def run_directory_grid(
    node_counts: Sequence[int] = (8, 64, 256, 1024),
    protocols: Sequence[str] = DIRECTORY_PROTOCOLS,
    mixes: Sequence[str] = ("webstone", "adl"),
    n_threads: int = 64,
    n_hosts: int = 8,
    scale: float = 1.0,
    seed: int = 0,
    costs: Optional[MachineCosts] = None,
) -> List[GridCell]:
    """Run the full ``mix x protocol x nodes`` grid.

    ``n_threads`` caps the number of *active* nodes: client threads are
    dealt round-robin over the cluster, so sizes beyond ``n_threads``
    add passive peers — nodes that receive directory traffic but serve
    no requests, which is precisely how a large cluster hurts the
    broadcast.  ``scale`` shrinks both traces proportionally for smoke
    runs.
    """
    for mix in mixes:
        if mix not in GRID_MIXES:
            raise ValueError(
                f"unknown mix {mix!r}; expected one of {sorted(GRID_MIXES)}"
            )
    for protocol in protocols:
        if protocol not in DIRECTORY_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; "
                f"expected one of {DIRECTORY_PROTOCOLS}"
            )
    cells: List[GridCell] = []
    for mix in mixes:
        spec = GRID_MIXES[mix]
        for n_nodes in node_counts:
            for protocol in protocols:
                trace = spec.trace(scale, seed)
                times, cluster = run_cluster_trace(
                    n_nodes,
                    CacheMode.COOPERATIVE,
                    trace,
                    n_threads=min(n_threads, max(1, len(trace))),
                    n_hosts=n_hosts,
                    config_kw=spec.config_kw(protocol),
                    costs=costs,
                )
                stats = cluster.stats()
                cells.append(
                    GridCell(
                        mix=mix,
                        protocol=protocol,
                        nodes=n_nodes,
                        requests=stats.requests,
                        dir_msgs=stats.dir_msgs_sent,
                        dir_bytes=stats.dir_bytes_sent,
                        hits=stats.local_hits + stats.remote_hits,
                        misses=stats.misses,
                        false_hits=stats.false_hits,
                        false_misses=stats.false_misses,
                        inserts=stats.inserts,
                        hit_ratio=stats.hit_ratio,
                        mean_rt=times.mean,
                    )
                )
    return cells


def _reduction(cell: GridCell, baseline: Optional[GridCell]) -> str:
    if (
        baseline is None
        or cell.protocol == "broadcast"
        or cell.msgs_per_request <= 0
    ):
        return "-"
    return f"{baseline.msgs_per_request / cell.msgs_per_request:.1f}x"


def render_directory_grid(cells: Sequence[GridCell]) -> str:
    """One table per mix; ``reduction`` is broadcast msgs/req over own."""
    blocks = []
    for mix in dict.fromkeys(cell.mix for cell in cells):
        rows = []
        mix_cells = [c for c in cells if c.mix == mix]
        for n_nodes in dict.fromkeys(c.nodes for c in mix_cells):
            group = [c for c in mix_cells if c.nodes == n_nodes]
            baseline = next(
                (c for c in group if c.protocol == "broadcast"), None
            )
            for cell in group:
                rows.append(
                    (
                        cell.nodes,
                        cell.protocol,
                        round(cell.msgs_per_request, 2),
                        round(cell.bytes_per_request, 1),
                        _reduction(cell, baseline),
                        round(cell.hit_ratio, 4),
                        round(cell.mean_rt, 4),
                        round(cell.false_hit_rate, 4),
                        round(cell.false_miss_rate, 4),
                    )
                )
        blocks.append(
            render_table(
                f"Directory-protocol grid — {mix} mix",
                [
                    "nodes",
                    "protocol",
                    "dir msgs/req",
                    "dir bytes/req",
                    "reduction",
                    "hit ratio",
                    "mean rt (s)",
                    "false-hit rate",
                    "false-miss rate",
                ],
                rows,
                note=(
                    "reduction = broadcast dir-msgs/req over this "
                    "protocol's, same mix and size"
                ),
            )
        )
    return "\n\n".join(blocks)


def grid_to_dicts(cells: Sequence[GridCell]) -> List[dict]:
    """JSON-ready cell records (derived rates included for auditability)."""
    return [
        {
            "mix": c.mix,
            "protocol": c.protocol,
            "nodes": c.nodes,
            "requests": c.requests,
            "dir_msgs": c.dir_msgs,
            "dir_bytes": c.dir_bytes,
            "msgs_per_request": round(c.msgs_per_request, 6),
            "bytes_per_request": round(c.bytes_per_request, 6),
            "hits": c.hits,
            "misses": c.misses,
            "inserts": c.inserts,
            "false_hits": c.false_hits,
            "false_misses": c.false_misses,
            "hit_ratio": round(c.hit_ratio, 6),
            "mean_rt": round(c.mean_rt, 6),
            "false_hit_rate": round(c.false_hit_rate, 6),
            "false_miss_rate": round(c.false_miss_rate, 6),
        }
        for c in cells
    ]
