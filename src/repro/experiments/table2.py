"""Table 2 — WebStone file-fetch response time vs. number of clients.

Paper shape: Swala is 2–7x faster than NCSA HTTPd; Netscape Enterprise is
slightly faster than Swala at few clients and slightly slower at many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import CacheMode, SwalaConfig, SwalaServer
from ..hosts import MachineCosts
from ..metrics import render_table
from ..servers import EnterpriseServer, NcsaHttpd
from ..workload import webstone_file_trace
from .common import run_single_server_fleet
from .parallel import fanout

__all__ = ["Table2Row", "run_table2", "render_table2", "DEFAULT_CLIENT_COUNTS"]

DEFAULT_CLIENT_COUNTS = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Table2Row:
    clients: int
    httpd: float
    enterprise: float
    swala: float

    @property
    def httpd_over_swala(self) -> float:
        return self.httpd / self.swala


def _swala_factory(sim, network, machine):
    return SwalaServer(
        sim, machine, network, [machine.name],
        SwalaConfig(mode=CacheMode.NONE), name=machine.name,
    )


def _table2_cell(
    clients: int,
    requests_per_client: int,
    seed: int,
    costs: Optional[MachineCosts],
) -> Table2Row:
    """One client-count data point (three server models back to back)."""
    trace = webstone_file_trace(clients * requests_per_client, seed=seed)
    httpd, _ = run_single_server_fleet(
        lambda s, net, m: NcsaHttpd(s, m, net), trace, clients, costs=costs
    )
    ent, _ = run_single_server_fleet(
        lambda s, net, m: EnterpriseServer(s, m, net), trace, clients, costs=costs
    )
    swala, _ = run_single_server_fleet(_swala_factory, trace, clients, costs=costs)
    return Table2Row(
        clients=clients, httpd=httpd.mean, enterprise=ent.mean, swala=swala.mean
    )


def run_table2(
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    requests_per_client: int = 25,
    seed: int = 0,
    costs: Optional[MachineCosts] = None,
    jobs: Optional[int] = None,
) -> List[Table2Row]:
    cells = [
        dict(
            clients=n,
            requests_per_client=requests_per_client,
            seed=seed,
            costs=costs,
        )
        for n in client_counts
    ]
    return fanout(_table2_cell, cells, jobs=jobs)


def render_table2(rows: List[Table2Row]) -> str:
    return render_table(
        "Table 2: WebStone file-fetch average response time (s)",
        ["# clients", "HTTPd", "Enterprise", "Swala", "HTTPd/Swala"],
        [(r.clients, r.httpd, r.enterprise, r.swala, r.httpd_over_swala) for r in rows],
        note="paper: Swala 2-7x faster than HTTPd; Enterprise faster at few "
        "clients, slower at many",
    )
