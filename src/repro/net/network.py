"""Switched-LAN model.

The paper's testbed is a 100 Mbit switched Ethernet, so the contention
points are the per-host NICs, not a shared bus: a message holds its
sender's transmit link for ``size / bandwidth`` seconds, then arrives after
a propagation/switching ``latency``.  Delivery is reliable and ordered per
sender-NIC (the paper assumes a reliable low-latency LAN; §4.2 leans on
that for the broadcast protocol).

Hosts expose named *ports*; each registered port is a :class:`~repro.sim.
Store` mailbox a daemon process can block on.

Hot-path structure: NIC claims happen *synchronously* at :meth:`send` /
:meth:`broadcast` call time, so acquisition order is call order — exactly
the FCFS order the original process-per-message implementation produced.
An uncontended ``send`` completes without spawning a simulator process at
all (two timeout events end to end), and ``broadcast`` serializes all its
copies from a single fan-out process instead of one process per
destination.  Per-destination delivery instants, NIC serialization order,
loss draws, and the ``messages_sent``/``bytes_sent`` accounting points
are identical to replicated unicast (the test suite keeps that original
implementation as its executable reference).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim import Event, Instrumentation, Resource, Simulator, Store, Tally
from .message import Message

__all__ = ["Network", "UnknownPort", "LAN_100MBIT", "DEFAULT_LATENCY"]

#: 100 Mbit/s Ethernet in bytes/second.
LAN_100MBIT = 100e6 / 8

#: Default propagation/switching latency (seconds).
DEFAULT_LATENCY = 0.0001


class UnknownPort(KeyError):
    """Raised when sending to a host/port nobody registered."""


class Network:
    """Reliable switched LAN connecting named hosts."""

    def __init__(
        self,
        sim: Simulator,
        latency: float = DEFAULT_LATENCY,
        bandwidth: float = LAN_100MBIT,
        name: str = "lan",
        loss_rate: float = 0.0,
        lossy_ports: Optional[Iterable[str]] = None,
        loss_seed: int = 0,
    ):
        """``loss_rate`` drops that fraction of messages sent to ports in
        ``lossy_ports`` (failure injection for the datagram-style directory
        broadcasts; TCP-like flows stay reliable, as the paper assumes)."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self.loss_rate = loss_rate
        self.lossy_ports = frozenset(lossy_ports or ())
        self._loss_rng = random.Random(loss_seed)
        self._nics: Dict[str, Resource] = {}
        self._ports: Dict[Tuple[str, str], Store] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        #: Per-port traffic: port name -> [messages, bytes].  Gives an
        #: accounting of the wire independent of the senders' own
        #: counters (e.g. the directory-sync traffic on "cache-update"
        #: vs the ``NodeStats.dir_msgs_sent`` the strategies maintain).
        self.port_traffic: Dict[str, List[int]] = {}
        self.transit_times = Tally(f"{name}.transit", keep_samples=False)
        #: The collectors observing this LAN.  A bare network keeps a
        #: private, all-off :class:`~repro.sim.probes.Instrumentation`;
        #: attaching a cluster (:func:`repro.obs.attach`) swaps in its
        #: simulation's ``sim.obs``, so single-server runs never trace
        #: hops or probe NICs.  Hops are traced only when the sender
        #: passes a parent span; the oracle hears only of *dropped*
        #: directory updates; the profiler also probes NICs and
        #: mailboxes created later by :meth:`attach`/:meth:`register`.
        self.obs = Instrumentation(sim)

    # -- topology -----------------------------------------------------------
    def attach(self, host: str) -> None:
        """Give ``host`` a NIC (idempotent)."""
        if host not in self._nics:
            nic = Resource(self.sim, capacity=1, name=f"{host}.nic")
            self._nics[host] = nic
            if self.obs.profiler is not None:
                self.obs.profiler.instrument(nic)

    def register(self, host: str, port: str) -> Store:
        """Open a mailbox for ``port`` on ``host`` and return it."""
        self.attach(host)
        key = (host, port)
        if key not in self._ports:
            mailbox = Store(self.sim, name=f"{host}:{port}")
            self._ports[key] = mailbox
            if self.obs.profiler is not None:
                self.obs.profiler.instrument(mailbox)
        return self._ports[key]

    def resources(self) -> list:
        """Every NIC, then every port mailbox, in creation order."""
        return [*self._nics.values(), *self._ports.values()]

    def mailbox(self, host: str, port: str) -> Store:
        try:
            return self._ports[(host, port)]
        except KeyError:
            raise UnknownPort(f"{host}:{port}") from None

    def _unreachable(self, dst: str, port: str) -> bool:
        """True when no mailbox is registered for ``port`` on ``dst``."""
        return (dst, port) not in self._ports

    # -- tracing --------------------------------------------------------------
    def _hop_span(self, parent, src: str, dst: str, port: str, size: int):
        tracer = self.obs.tracer
        if tracer is None or parent is None:
            return None
        now, tick = self.sim.monotonic()
        return tracer.start_span(
            f"hop:{src}->{dst}", parent=parent, category="network",
            node=src, start=now, tick=tick, port=port, bytes=size,
        )

    # -- transmission ---------------------------------------------------------
    def send(
        self, src: str, dst: str, port: str, payload: Any, size: int,
        parent=None,
    ) -> Event:
        """Transmit; the returned event fires at *delivery* with the Message.

        Fire-and-forget senders may simply ignore the returned event.
        ``parent`` optionally attaches the hop as a child span of the
        request span that caused it (only with a tracer attached).
        """
        if size < 0:
            raise ValueError(f"negative message size {size}")
        if self._unreachable(dst, port):
            raise UnknownPort(f"{dst}:{port}")
        self.attach(src)
        msg = Message(
            src=src, dst=dst, port=port, payload=payload, size=size,
            send_time=self.sim.now,
        )
        span = self._hop_span(parent, src, dst, port, size)
        delivered = Event(self.sim)
        nic = self._nics[src]
        # NIC claims are synchronous at call time, so linking the hop span
        # around the claim attributes the serialization to the hop rather
        # than to whatever request span the caller had open.
        if span is not None:
            self.obs.link(span)
        token = nic.try_acquire()
        req = None
        if token is None:
            # Contended: queue on the NIC now (claim order = call order).
            req = nic.request()
        if span is not None:
            self.obs.unlink(span)
        if token is not None:
            # Fast path: the NIC is idle, so the whole transmission can be
            # driven by timeout callbacks — no process, no request event.
            if size:
                self.sim.timeout(size / self.bandwidth).callbacks.append(
                    partial(self._serialized, nic, token, msg, delivered, span)
                )
            else:
                self._serialized(nic, token, msg, delivered, span)
            return delivered
        # Let a transmit process wait out the grant.
        self.sim.process(
            self._transmit(nic, req, msg, delivered, span),
            name=f"xmit-{msg.msg_id}",
        )
        return delivered

    def _transmit(self, nic: Resource, req, msg: Message, delivered: Event, span):
        yield req
        try:
            if msg.size:
                yield self.sim.timeout(msg.size / self.bandwidth)
        finally:
            nic.release(req)
        self._launch(msg, delivered, span)

    def _serialized(self, nic, token, msg, delivered, span, _evt=None) -> None:
        """Fast-path tail: the sender NIC finished serializing ``msg``."""
        nic.release(token)
        self._launch(msg, delivered, span)

    def _launch(self, msg: Message, delivered: Event, span) -> None:
        """The copy left the NIC: draw loss, then ride the wire latency."""
        if (
            self.loss_rate
            and msg.port in self.lossy_ports
            and self._loss_rng.random() < self.loss_rate
        ):
            self.messages_dropped += 1
            if span is not None:
                span.close(self.sim.now, dropped=True)
            if self.obs.oracle is not None:
                self.obs.oracle.message_dropped(msg)
            delivered.succeed(None)  # dropped: delivery event reports None
            return
        self.sim.timeout(self.latency).callbacks.append(
            partial(self._deliver, msg, delivered, span)
        )

    def _deliver(self, msg: Message, delivered: Event, span, _evt=None) -> None:
        msg.deliver_time = self.sim.now
        self.messages_sent += 1
        self.bytes_sent += msg.size
        entry = self.port_traffic.get(msg.port)
        if entry is None:
            entry = self.port_traffic[msg.port] = [0, 0]
        entry[0] += 1
        entry[1] += msg.size
        self.transit_times.observe(msg.in_flight_time)
        if span is not None:
            span.close(self.sim.now)
        self._ports[(msg.dst, msg.port)].put(msg)
        delivered.succeed(msg)

    # -- broadcast ------------------------------------------------------------
    def broadcast(
        self, src: str, dsts, port: str, payload: Any, size: int, parent=None,
    ) -> List[Event]:
        """LAN broadcast: one copy per host in ``dsts``, serialized back to
        back on the sender NIC.

        Modelled exactly like replicated unicast (each copy holds the NIC
        for ``size / bandwidth`` and arrives ``latency`` later) but driven
        by a *single* fan-out process that claims the NIC once, so an
        N-peer directory update costs one process instead of N.  Returns
        the per-destination delivery events, in ``dsts`` order.

        ``parent`` attaches one hop span per destination (with a tracer).
        """
        if size < 0:
            raise ValueError(f"negative message size {size}")
        dsts = list(dsts)
        for dst in dsts:
            if self._unreachable(dst, port):
                raise UnknownPort(f"{dst}:{port}")
        if not dsts:
            return []
        self.attach(src)
        now = self.sim.now
        copies = []
        events = []
        for dst in dsts:
            msg = Message(
                src=src, dst=dst, port=port, payload=payload, size=size,
                send_time=now,
            )
            span = self._hop_span(parent, src, dst, port, size)
            delivered = Event(self.sim)
            copies.append((msg, delivered, span))
            events.append(delivered)
        nic = self._nics[src]
        # The single claim serializes every copy; attribute it to the
        # first hop span (one NIC interval per fan-out, not per copy).
        first_span = copies[0][2]
        if first_span is not None:
            self.obs.link(first_span)
        req = nic.request()  # synchronous claim: FCFS order = call order
        if first_span is not None:
            self.obs.unlink(first_span)
        self.sim.process(
            self._transmit_fanout(nic, req, copies, size),
            name=f"bcast-{copies[0][0].msg_id}",
        )
        return events

    def _transmit_fanout(self, nic: Resource, req, copies, size: int):
        ser = size / self.bandwidth if size else 0.0
        yield req
        try:
            for msg, delivered, span in copies:
                if ser:
                    yield self.sim.timeout(ser)
                self._launch(msg, delivered, span)
        finally:
            nic.release(req)

    def transfer_time(self, size: int) -> float:
        """Uncontended wire time for a message of ``size`` bytes."""
        return self.latency + size / self.bandwidth

    def __repr__(self) -> str:
        return (
            f"<Network {self.name!r} hosts={len(self._nics)} "
            f"sent={self.messages_sent}>"
        )
