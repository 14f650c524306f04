"""The Swala server node: HTTP module + Cacher module (paper Figure 1/2).

A :class:`SwalaServer` is a thread-pool web server whose CGI path runs the
control flow of the paper's Figure 2:

    cacheable? -> cached? -> local/remote fetch, or execute + tee + insert
    + broadcast.

Caching mode (off / stand-alone / cooperative) comes from the
:class:`~repro.core.config.SwalaConfig`.
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional

from ..hosts import Machine
from ..net import Network
from ..servers.threaded import ThreadPoolServer
from ..sim import Simulator, Store
from ..workload import RequestKind
from .cacher import CacherModule
from .config import SwalaConfig
from .protocol import HttpConnection

__all__ = ["SwalaServer"]

_adhoc_ports = itertools.count()


class SwalaServer(ThreadPoolServer):
    """One Swala node."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        network: Network,
        node_names: List[str],
        config: Optional[SwalaConfig] = None,
        name: Optional[str] = None,
    ):
        self.config = config or SwalaConfig()
        super().__init__(
            sim, machine, network, name, n_threads=self.config.n_threads
        )
        # Stand-alone nodes are "unaware of any other node" (§5.3): their
        # directory holds only their own table.
        directory_nodes = (
            list(node_names) if self.config.cooperative else [self.name]
        )
        if self.name not in directory_nodes:
            directory_nodes.append(self.name)
        self.cacher = CacherModule(
            sim=sim,
            machine=machine,
            network=network,
            name=self.name,
            node_names=directory_nodes,
            config=self.config,
            stats=self.stats,
        )

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        super().start()
        if self.config.caching_enabled:
            self.cacher.start()

    def _request_thread(self, tid: int):
        # Each request thread owns a private reply mailbox for its remote
        # fetches (one outstanding fetch per thread, like one socket each).
        reply_port = f"fetch-reply-rt{tid}"
        reply_box = self.network.register(self.name, reply_port)
        while True:
            msg = yield self.listen_box.get()
            probe = self.pool_probe
            started = probe.busy_begin() if probe is not None else 0.0
            yield self.machine.dispatch_thread()
            yield from self.handle(msg.payload, reply_box, reply_port)
            if probe is not None:
                probe.busy_end(started)

    # -- request path (Figure 2) ---------------------------------------------
    def handle(
        self,
        conn: HttpConnection,
        reply_box: Optional[Store] = None,
        reply_port: Optional[str] = None,
    ) -> Generator:
        request = conn.request
        span = self._trace_request(conn)
        oracle = self.obs.oracle
        audit = (
            oracle.begin(self.name, request, self.sim.now)
            if oracle is not None
            else None
        )
        yield from self.accept_cost(span)
        if request.kind is RequestKind.FILE:
            yield from self.serve_static(request, span)
            source = "file"
        elif not self.cacher.classify(request, span):
            # "An uncacheable request is executed without any more
            # communication with the cache manager."
            self.stats.uncacheable += 1
            if audit is not None:
                audit.uncacheable = True
            if span is not None:
                span.annotate(uncacheable=True)
            yield from self.execute_cgi(request, span)
            source = "exec"
        else:
            source = yield from self._handle_cacheable(
                request, reply_box, reply_port, span, audit
            )
        yield from self.send_cpu(request, span)
        self.finish(conn, source, span=span)
        if audit is not None:
            oracle.finish(audit, self.sim.now, source)

    def _handle_cacheable(
        self, request, reply_box, reply_port, span=None, audit=None
    ) -> Generator:
        lookup_started = self.sim.now
        false_hit_retries = 0
        coalesced = 0
        oracle = self.obs.oracle
        if audit is not None:
            oracle.ideal_check(audit, self.sim.now, self.config.cooperative)
        try:
            while True:
                entry = yield from self.cacher.lookup(request.url, span)

                if entry is not None and entry.owner == self.name:
                    served = yield from self.cacher.fetch_local(request.url, span)
                    if served is not None:
                        self.stats.local_hits += 1
                        self.stats.hit_times.observe(self.sim.now - lookup_started)
                        if audit is not None:
                            audit.local_hit = True
                        return "local-cache"
                    entry = None  # purged between lookup and fetch: fall to miss

                if entry is not None:
                    # Cached at a peer: request/reply session with its fetch
                    # server.
                    if reply_box is None:
                        reply_port = f"fetch-reply-adhoc{next(_adhoc_ports)}"
                        reply_box = self.network.register(self.name, reply_port)
                    if audit is not None:
                        fetch_started = self.sim.now
                    reply = yield from self.cacher.fetch_remote(
                        entry, reply_box, reply_port, span
                    )
                    if reply.hit:
                        self.stats.remote_hits += 1
                        self.stats.hit_times.observe(self.sim.now - lookup_started)
                        if audit is not None:
                            audit.remote_hit = True
                        return "remote-cache"
                    # False hit: the owner dropped it; execute locally (Fig. 2).
                    self.stats.false_hits += 1
                    false_hit_retries += 1
                    if audit is not None:
                        oracle.false_hit(
                            audit, request.url, entry.owner,
                            self.sim.now - fetch_started, self.sim.now,
                        )

                # Miss.  With coalescing enabled (an extension the paper chose
                # against), wait for an in-progress identical execution and
                # retry the lookup instead of re-running the CGI.
                if self.config.coalesce_duplicates and self.cacher.in_progress(
                    request.url
                ):
                    wait_span = self.obs.open_span(span, "wait-coalesced", "queue", self.name)
                    try:
                        waited = yield from self.cacher.wait_for_execution(
                            request.url
                        )
                    finally:
                        self.obs.close_span(wait_span)
                    if waited:
                        self.stats.coalesced += 1
                        coalesced += 1
                        if audit is not None:
                            oracle.coalesced(audit)
                        continue

                # Execute the CGI, tee the output, maybe insert + broadcast.
                # The in-progress marker is held until after the insert so that
                # coalesced waiters find the entry when they retry.
                duplicate = self.cacher.execution_starting(request.url)
                if duplicate:
                    self.stats.false_misses += 1
                if audit is not None:
                    oracle.execution_started(
                        audit, request.url, duplicate, self.sim.now
                    )
                    exec_started = self.sim.now
                try:
                    yield from self.execute_cgi(request, span)
                    self.stats.misses += 1
                    if audit is not None:
                        oracle.execution_cost(
                            audit, self.sim.now - exec_started
                        )
                    if self.cacher.should_cache_result(
                        request, request.cpu_time, ok=True
                    ):
                        yield from self.cacher.insert_result(
                            request, request.cpu_time, span, audit
                        )
                    else:
                        self.stats.discards += 1
                        if audit is not None:
                            audit.discarded = True
                finally:
                    self.cacher.execution_finished(request.url)
                    if audit is not None:
                        oracle.execution_finished(self.name, request.url)
                return "exec"
        finally:
            if span is not None and (false_hit_retries or coalesced):
                span.annotate(
                    false_hit_retries=false_hit_retries, coalesced=coalesced
                )
