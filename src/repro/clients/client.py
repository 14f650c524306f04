"""Closed-loop HTTP clients (the WebStone model).

A client *thread* issues one request at a time: send, wait for the full
response, record the response time, optionally think, repeat.  Client
machines host several threads and share a NIC, like the paper's testbed
where "each of two clients starts eight threads".
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..core.protocol import HTTP_REQUEST_BYTES, HttpConnection, HttpResponse
from ..net import Network
from ..servers.base import HTTP_PORT
from ..sim import AllOf, Event, Process, Simulator, Tally
from ..workload import Request, Trace

__all__ = ["ClientThread", "ClientFleet"]

_client_ids = itertools.count()


class ClientThread:
    """One request-at-a-time client thread pinned to one server node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: str,
        server: str,
        requests: Sequence[Request],
        think_time: float = 0.0,
        name: str = "",
    ):
        if think_time < 0:
            raise ValueError(f"negative think time {think_time}")
        self.sim = sim
        self.network = network
        self.host = host
        self.server = server
        self.requests = list(requests)
        self.think_time = think_time
        self.name = name or f"client{next(_client_ids)}"
        self.reply_port = f"reply-{self.name}"
        self.reply_box = network.register(host, self.reply_port)
        self.response_times = Tally(f"{self.name}.rt")
        self.responses: List[HttpResponse] = []
        self._process: Optional[Process] = None

    def start(self) -> Process:
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self._process = self.sim.process(self._run(), name=self.name)
        return self._process

    @property
    def done(self) -> Process:
        if self._process is None:
            raise RuntimeError(f"{self.name} not started")
        return self._process

    def _run(self):
        for request in self.requests:
            sent_at = self.sim.now
            conn = HttpConnection(
                request=request,
                client=self.host,
                reply_port=self.reply_port,
                sent_at=sent_at,
            )
            self.network.send(
                self.host, self.server, HTTP_PORT, conn, HTTP_REQUEST_BYTES
            )
            msg = yield self.reply_box.get()
            self.response_times.observe(self.sim.now - sent_at)
            self.responses.append(msg.payload)
            if self.think_time:
                yield self.sim.timeout(self.think_time)
        return self.response_times


class ClientFleet:
    """A set of client threads spread over client hosts and server nodes.

    ``trace`` is dealt round-robin over the threads; thread *i* runs on
    client host ``i % n_hosts`` and targets server ``servers[i %
    len(servers)]`` — each thread "launches requests to a single server
    node", as in the paper's multi-node runs.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        trace: Trace,
        servers: Sequence[str],
        n_threads: int,
        n_hosts: int = 1,
        think_time: float = 0.0,
    ):
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        if n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        if not servers:
            raise ValueError("need at least one server")
        self.sim = sim
        self.network = network
        parts = trace.split(n_threads)
        # Deterministic per-fleet names (not the process-global client-id
        # counter): probe/resource names derive from them, and exports
        # must come out identical whether a sweep runs serially or across
        # ``--jobs`` workers.
        self.threads: List[ClientThread] = [
            ClientThread(
                sim=sim,
                network=network,
                host=f"wsclient{i % n_hosts}",
                server=servers[i % len(servers)],
                requests=parts[i],
                think_time=think_time,
                name=f"client{i}",
            )
            for i in range(n_threads)
        ]

    def start(self) -> Event:
        """Start every thread; returns the all-done event."""
        procs = [t.start() for t in self.threads]
        return AllOf(self.sim, procs)

    def run(self) -> Tally:
        """Start, run the simulation to completion, return merged times."""
        done = self.start()
        self.sim.run(until=done)
        return self.merged_response_times()

    def merged_response_times(self) -> Tally:
        merged = Tally("fleet.rt")
        for t in self.threads:
            merged.merge(t.response_times)
        return merged

    def responses(self) -> List[HttpResponse]:
        out: List[HttpResponse] = []
        for t in self.threads:
            out.extend(t.responses)
        return out

    def __repr__(self) -> str:
        return f"<ClientFleet threads={len(self.threads)}>"
