"""Netscape Enterprise Server baseline model.

The paper observes (Table 2, Fig. 3):

* on static files Enterprise is *slightly faster than Swala for few
  clients and slightly slower for many* — we model its leaner accept path
  (a long-lived optimized acceptor, cheaper than Swala's parse-plus-cache-
  classification) together with a ``select()``-style readiness scan whose
  CPU cost grows with the number of concurrently open connections, the
  classic scalability tax of select-based servers;
* on CGI it is slower than both Swala and HTTPd — its CGI engine funnels
  requests through an internal NSAPI dispatch layer before fork/exec, which
  we model as a multiplier on the fork/exec cost.
"""

from __future__ import annotations

from .threaded import ThreadPoolServer

__all__ = ["EnterpriseServer"]


class EnterpriseServer(ThreadPoolServer):
    """Threaded commercial server with a select()-scan cost model."""

    cgi_overhead_factor = 2.2

    #: Accept path cheaper than Swala's (no cacheability classification).
    accept_discount = 0.65
    #: CPU per open connection scanned by select() per request.
    select_scan_cpu_per_conn = 6e-5

    def __init__(self, sim, machine, network, name=None, n_threads: int = 32):
        super().__init__(sim, machine, network, name, n_threads=n_threads)
        self._open_connections = 0

    def accept_cost(self, span=None):
        child = self.obs.open_span(span, "accept", "cpu", self.name)
        try:
            yield self.machine.compute(
                self.machine.costs.accept_parse_cpu * self.accept_discount
                + self.select_scan_cpu_per_conn * self._open_connections
            )
        finally:
            self.obs.close_span(child)

    def handle(self, conn):
        self._open_connections += 1
        try:
            yield from super().handle(conn)
        finally:
            self._open_connections -= 1
