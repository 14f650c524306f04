"""Replicated-unicast reference for :meth:`repro.net.Network.broadcast`.

The original broadcast, one transmit process per destination, kept as
the executable specification the flattened single-process fan-out must
match: per-destination delivery instants, NIC serialization order, loss
draws, hop spans and counters.  ``tests/net/test_broadcast_flat.py``
compares the two directly; the determinism suite swaps this in for
``Network.broadcast`` (it has the method's signature) and expects
identical experiment output.
"""

from typing import Any, List

from repro.net import Network, UnknownPort
from repro.net.message import Message
from repro.sim import Event


def broadcast_unicast(
    net: Network, src: str, dsts, port: str, payload: Any, size: int,
    parent=None,
) -> List[Event]:
    """``net.broadcast`` as one unicast transmit process per copy."""
    events = []
    for dst in dsts:
        if size < 0:
            raise ValueError(f"negative message size {size}")
        if net._unreachable(dst, port):
            raise UnknownPort(f"{dst}:{port}")
        net.attach(src)
        msg = Message(
            src=src, dst=dst, port=port, payload=payload, size=size,
            send_time=net.sim.now,
        )
        span = net._hop_span(parent, src, dst, port, size)
        delivered = Event(net.sim)
        nic = net._nics[src]
        if span is not None:
            net.obs.link(span)
        req = nic.request()
        if span is not None:
            net.obs.unlink(span)
        net.sim.process(
            net._transmit(nic, req, msg, delivered, span),
            name=f"xmit-{msg.msg_id}",
        )
        events.append(delivered)
    return events
