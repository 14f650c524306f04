"""Shared HTTP-serving machinery for all server models.

The concrete servers differ in their concurrency architecture and per-
request costs, but share: a listen mailbox on the network, static-file
serving through the machine's filesystem, CGI execution via fork/exec on
the machine's CPU, and response transmission over the LAN.

Every building block accepts an optional parent *span* so a
:class:`~repro.obs.TraceCollector` attached to the simulation (see
:func:`repro.obs.attach`) sees the whole request anatomy; with no tracer
attached (the default) the span arguments stay ``None`` and the path is
untouched.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from ..core.protocol import HTTP_RESPONSE_HEADER_BYTES, HttpConnection, HttpResponse
from ..core.stats import NodeStats
from ..hosts import Machine
from ..net import Network
from ..sim import Simulator
from ..workload import Request, RequestKind, Trace

__all__ = ["BaseServer", "HTTP_PORT"]

#: Port name all servers listen on.
HTTP_PORT = "http"


class BaseServer:
    """Abstract web server node.

    Subclasses choose the concurrency model by overriding :meth:`start`
    (thread pool vs. fork-per-request) and the request path by overriding
    :meth:`handle`.
    """

    #: Whether the send path uses memory-mapped I/O (Swala/Enterprise do;
    #: NCSA HTTPd pays the read()/write() double copy).
    use_mmap = True
    #: Multiplier on the machine's fork/exec CGI cost (Enterprise's CGI
    #: engine is slower; see its class doc).
    cgi_overhead_factor = 1.0

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        network: Network,
        name: Optional[str] = None,
    ):
        self.sim = sim
        self.machine = machine
        self.network = network
        self.name = name or machine.name
        self.listen_box = network.register(self.name, HTTP_PORT)
        self.stats = NodeStats(node=self.name)
        #: Optional CLF access log (see :meth:`enable_access_log`).
        self.access_log = None
        #: The simulation's collectors (:class:`~repro.sim.probes.
        #: Instrumentation`); each is ``None`` while off.
        self.obs = sim.obs
        self._started = False

    def enable_access_log(self) -> "AccessLog":
        """Attach (and return) a Common-Log-Format access log."""
        from .accesslog import AccessLog

        if self.access_log is None:
            self.access_log = AccessLog(server=self.name)
        return self.access_log

    # -- root span (no-op while no tracer is attached) ----------------------
    def _trace_request(self, conn: HttpConnection):
        """Root span for one request, plus its queue-time child.

        The root starts at the client's send time, so its duration equals
        the response time :meth:`finish` records; the ``queue`` child
        covers everything up to this thread picking the connection up
        (request wire time + listen-mailbox wait + dispatch).
        """
        tracer = self.obs.tracer
        if tracer is None:
            return None
        now, tick = self.sim.monotonic()
        request = conn.request
        root = tracer.start_trace(
            "request",
            node=self.name,
            start=conn.sent_at,
            tick=tick,
            url=request.url,
            kind=request.kind.value,
            client=conn.client,
        )
        tracer.start_span(
            "queue", parent=root, category="queue", node=self.name,
            start=conn.sent_at, tick=tick,
        ).close(now)
        self.obs.link(root)
        return root

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Begin accepting requests.  Subclasses spawn their workers here."""
        raise NotImplementedError

    def install_files(self, trace: Trace) -> None:
        """Create (and pre-warm nothing) every static file a trace needs."""
        for request in trace:
            if request.kind is RequestKind.FILE and not self.machine.fs.exists(
                request.url
            ):
                self.machine.fs.create(request.url, request.response_size)

    # -- request-path building blocks ---------------------------------------
    # Each block takes a bare fast path when no span is being recorded
    # (``span is None`` whenever tracing is off): the try/finally frame and
    # the ``open_span`` call are pure overhead on the per-request hot path.
    def accept_cost(self, span=None) -> Generator:
        """Per-connection accept + parse CPU."""
        if span is None:
            yield self.machine.accept_and_parse()
            return
        child = self.obs.open_span(span, "accept", "cpu", self.name)
        try:
            yield self.machine.accept_and_parse()
        finally:
            self.obs.close_span(child)

    def serve_static(self, request: Request, span=None) -> Generator:
        """Open/read/prepare a static file for sending."""
        if span is None:
            yield from self.machine.serve_file(request.url, mmap=self.use_mmap)
            self.stats.files_served += 1
            return
        child = self.obs.open_span(span, "read-file", "disk", self.name)
        try:
            yield from self.machine.serve_file(request.url, mmap=self.use_mmap)
            self.stats.files_served += 1
        finally:
            self.obs.close_span(child)

    def execute_cgi(self, request: Request, span=None) -> Generator:
        """fork()+exec() the CGI and run its body on this machine's CPU."""
        if span is None:
            yield self.machine.compute(
                self.machine.costs.cgi_fork_exec_cpu * self.cgi_overhead_factor
            )
            if request.cpu_time:
                yield self.machine.compute(request.cpu_time)
            self.stats.cgi_executed += 1
            self.stats.exec_times.observe(request.cpu_time)
            return
        child = self.obs.open_span(span, "execute", "cpu", self.name)
        try:
            yield self.machine.compute(
                self.machine.costs.cgi_fork_exec_cpu * self.cgi_overhead_factor
            )
            if request.cpu_time:
                yield self.machine.compute(request.cpu_time)
            self.stats.cgi_executed += 1
            self.stats.exec_times.observe(request.cpu_time)
        finally:
            self.obs.close_span(child)

    def respond(self, conn: HttpConnection, source: str, ok: bool = True) -> HttpResponse:
        """Transmit the response body back to the client (fire-and-forget —
        the NIC model serializes it; the client measures delivery)."""
        response = HttpResponse(
            request=conn.request, server=self.name, source=source, ok=ok,
            sent_at=conn.sent_at,
        )
        self.network.send(
            self.name, conn.client, conn.reply_port, response, response.size
        )
        return response

    def send_cpu(self, request: Request, span=None) -> Generator:
        """TCP-stack CPU for pushing the response out."""
        if span is None:
            yield self.machine.send_bytes_cpu(
                request.response_size + HTTP_RESPONSE_HEADER_BYTES
            )
            return
        child = self.obs.open_span(span, "send", "cpu", self.name)
        try:
            yield self.machine.send_bytes_cpu(
                request.response_size + HTTP_RESPONSE_HEADER_BYTES
            )
        finally:
            self.obs.close_span(child)

    # -- the per-request workflow --------------------------------------------
    def handle(self, conn: HttpConnection) -> Generator:
        """Default request path: static files + uncached CGI execution."""
        span = self._trace_request(conn)
        yield from self.accept_cost(span)
        if conn.request.kind is RequestKind.FILE:
            yield from self.serve_static(conn.request, span)
            source = "file"
        else:
            yield from self.execute_cgi(conn.request, span)
            source = "exec"
        yield from self.send_cpu(conn.request, span)
        self.finish(conn, source, span=span)

    def finish(
        self, conn: HttpConnection, source: str, ok: bool = True, span=None
    ) -> None:
        """Send the response and do all completion accounting."""
        self.respond(conn, source, ok)
        self.stats.requests += 1
        elapsed = self.sim.now - conn.sent_at
        self.stats.observe_response(source, elapsed)
        streaming = self.obs.streaming
        if streaming is not None:
            streaming.record(self.sim.now, self.name, source, elapsed, ok)
        self.obs.close_span(span, outcome=source, ok=ok)
        if self.access_log is not None:
            self.access_log.record(
                conn.client, conn.sent_at, conn.request, elapsed, ok
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} served={self.stats.requests}>"
