"""Flattened broadcast vs the replicated-unicast reference.

``Network.broadcast`` drives all copies from one fan-out process;
:func:`tests.net.unicast.broadcast_unicast` is the original
one-process-per-destination implementation, kept precisely so this suite
can assert the two are externally indistinguishable: per-destination
delivery instants, NIC serialization order against competing sends, loss
draws on lossy ports, and the ``messages_sent``/``bytes_sent``/
``messages_dropped`` counters.
"""

from functools import partial

import pytest

from repro.net import Network
from repro.obs import TraceCollector
from repro.sim import Simulator
from tests.net.unicast import broadcast_unicast

N = 5
SIZE = 250_000  # 0.25 s serialization at 1 MB/s: instants well separated
ROUNDS = 3


def run_broadcast(
    flat,
    *,
    n=N,
    size=SIZE,
    rounds=ROUNDS,
    loss_rate=0.0,
    lossy=(),
    interleave=False,
):
    """Drive ``rounds`` broadcasts; returns everything observable."""
    sim = Simulator()
    net = Network(
        sim, latency=0.001, bandwidth=1e6,
        loss_rate=loss_rate, lossy_ports=lossy, loss_seed=7,
    )
    hosts = [f"h{i}" for i in range(n)]
    boxes = {h: net.register(h, "dir") for h in hosts}
    aux_box = net.register("x", "aux")
    arrivals = []
    aux_arrivals = []

    def drain(h):
        box = boxes[h]
        while True:
            msg = yield box.get()
            arrivals.append((sim.now, h, msg.payload, msg.send_time))

    def drain_aux():
        while True:
            msg = yield aux_box.get()
            aux_arrivals.append((sim.now, msg.payload))

    for h in hosts:
        sim.process(drain(h))
    sim.process(drain_aux())

    fired = []  # (time, round, dst index, delivered?) per returned event

    def driver():
        fn = net.broadcast if flat else partial(broadcast_unicast, net)
        for r in range(rounds):
            events = fn("src", hosts, "dir", payload=f"upd{r}", size=size)
            assert len(events) == n
            for i, ev in enumerate(events):
                ev.callbacks.append(
                    lambda e, r=r, i=i: fired.append(
                        (sim.now, r, i, e.value is not None)
                    )
                )
            if interleave:
                # Issued at the same instant as the broadcast: must
                # serialize *behind* every copy on the src NIC.
                net.send("src", "x", "aux", payload=f"aux{r}", size=size)
            yield sim.timeout(10.0)

    sim.process(driver())
    sim.run()
    return {
        "arrivals": arrivals,
        "aux": aux_arrivals,
        "fired": fired,
        "sent": net.messages_sent,
        "bytes": net.bytes_sent,
        "dropped": net.messages_dropped,
        "transit_n": len(net.transit_times),
        "transit_mean": net.transit_times.mean,
    }


class TestEquivalence:
    def test_delivery_schedule_matches_unicast(self):
        assert run_broadcast(True) == run_broadcast(False)

    def test_schedule_matches_with_competing_send(self):
        flat = run_broadcast(True, interleave=True)
        ref = run_broadcast(False, interleave=True)
        assert flat == ref
        # The competing send queued behind all N copies of its round.
        for r, (aux_t, _) in enumerate(ref["aux"]):
            round_deliveries = [t for t, rr, _, ok in ref["fired"] if rr == r and ok]
            assert aux_t > max(round_deliveries)

    def test_schedule_matches_under_loss(self):
        flat = run_broadcast(True, loss_rate=0.4, lossy=("dir",))
        ref = run_broadcast(False, loss_rate=0.4, lossy=("dir",))
        assert flat == ref
        assert 0 < flat["dropped"] < N * ROUNDS  # the draw actually bit
        # Dropped copies still fire their delivery event (with None).
        assert sum(1 for *_, ok in flat["fired"] if not ok) == flat["dropped"]

    def test_loss_on_other_port_does_not_consume_draws(self):
        flat = run_broadcast(True, loss_rate=0.4, lossy=("elsewhere",))
        ref = run_broadcast(False, loss_rate=0.4, lossy=("elsewhere",))
        assert flat == ref
        assert flat["dropped"] == 0
        assert flat["sent"] == N * ROUNDS

    def test_zero_size_broadcast_matches(self):
        assert run_broadcast(True, size=0) == run_broadcast(False, size=0)


class TestBroadcastShape:
    def test_serialized_back_to_back(self):
        res = run_broadcast(True, rounds=1)
        ser, lat = SIZE / 1e6, 0.001
        expected = [pytest.approx((i + 1) * ser + lat) for i in range(N)]
        assert [t for t, *_ in res["arrivals"]] == expected
        # Events fire in dsts order, at the delivery instants.
        assert [i for _, _, i, _ in res["fired"]] == list(range(N))

    def test_empty_dsts_is_a_noop(self):
        sim = Simulator()
        net = Network(sim)
        assert net.broadcast("src", [], "dir", payload=None, size=10) == []
        sim.run()
        assert net.messages_sent == 0

    def test_unknown_destination_rejected_before_any_copy(self):
        sim = Simulator()
        net = Network(sim)
        net.register("a", "dir")
        from repro.net import UnknownPort

        with pytest.raises(UnknownPort):
            net.broadcast("src", ["a", "ghost"], "dir", payload=None, size=10)
        sim.run()
        assert net.messages_sent == 0  # no partial fan-out


class TestHopSpans:
    def _traced_net(self, loss_rate=0.0, lossy=()):
        sim = Simulator()
        net = Network(
            sim, latency=0.001, bandwidth=1e6,
            loss_rate=loss_rate, lossy_ports=lossy, loss_seed=1,
        )
        net.obs.tracer = TraceCollector()
        return sim, net

    def test_broadcast_emits_one_hop_span_per_destination(self):
        sim, net = self._traced_net()
        hosts = ["h0", "h1", "h2"]
        for h in hosts:
            net.register(h, "dir")
        root = net.obs.tracer.start_trace("update", node="src", start=sim.now)
        net.broadcast("src", hosts, "dir", payload="u", size=1000, parent=root)
        sim.run()
        hops = [s for s in net.obs.tracer.spans if s.name.startswith("hop:")]
        assert [s.name for s in hops] == [f"hop:src->{h}" for h in hosts]
        for s in hops:
            assert s.parent_id == root.span_id
            assert s.category == "network"
            assert s.closed
            assert s.attrs["bytes"] == 1000
        # Spans close at the per-copy delivery instants.
        assert [s.end for s in hops] == sorted(s.end for s in hops)

    def test_dropped_copy_span_is_closed_and_flagged(self):
        sim, net = self._traced_net(loss_rate=0.999, lossy=("dir",))
        net.register("h0", "dir")
        root = net.obs.tracer.start_trace("update", node="src", start=sim.now)
        net.broadcast("src", ["h0"], "dir", payload="u", size=1000, parent=root)
        sim.run()
        (hop,) = [s for s in net.obs.tracer.spans if s.name.startswith("hop:")]
        assert hop.closed
        assert hop.attrs.get("dropped") is True

    def test_no_parent_means_no_spans(self):
        sim, net = self._traced_net()
        net.register("h0", "dir")
        net.broadcast("src", ["h0"], "dir", payload="u", size=1000)
        sim.run()
        assert [s for s in net.obs.tracer.spans if s.name.startswith("hop:")] == []
