"""Property-based safety tests for synchronization and the network."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.net import Network
from repro.sim import RWLock, Simulator

# Each actor: (kind, start_delay, hold_time)
actors = st.lists(
    st.tuples(
        st.sampled_from(["r", "w"]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=15,
)


class TestRWLockSafety:
    @given(schedule=actors)
    @settings(max_examples=50, deadline=None)
    def test_no_reader_writer_overlap_ever(self, schedule):
        """Under arbitrary arrival/hold schedules: never a writer with any
        other holder, and counts stay consistent."""
        sim = Simulator()
        lock = RWLock(sim)
        state = {"readers": 0, "writers": 0}
        violations = []

        def check():
            if state["writers"] > 1:
                violations.append("two writers")
            if state["writers"] >= 1 and state["readers"] >= 1:
                violations.append("reader+writer overlap")

        def reader(delay, hold):
            yield sim.timeout(delay)
            yield lock.acquire_read()
            state["readers"] += 1
            check()
            yield sim.timeout(hold)
            state["readers"] -= 1
            lock.release_read()

        def writer(delay, hold):
            yield sim.timeout(delay)
            yield lock.acquire_write()
            state["writers"] += 1
            check()
            yield sim.timeout(hold)
            state["writers"] -= 1
            lock.release_write()

        for kind, delay, hold in schedule:
            sim.process(reader(delay, hold) if kind == "r" else writer(delay, hold))
        sim.run()
        assert violations == []
        assert state == {"readers": 0, "writers": 0}
        assert lock.readers == 0 and not lock.write_locked

    @given(schedule=actors)
    @settings(max_examples=30, deadline=None)
    def test_every_acquirer_eventually_served(self, schedule):
        """No starvation: the run drains with all actors done."""
        sim = Simulator()
        lock = RWLock(sim)
        done = []

        def actor(i, kind, delay, hold):
            yield sim.timeout(delay)
            if kind == "r":
                yield lock.acquire_read()
                yield sim.timeout(hold)
                lock.release_read()
            else:
                yield lock.acquire_write()
                yield sim.timeout(hold)
                lock.release_write()
            done.append(i)

        for i, (kind, delay, hold) in enumerate(schedule):
            sim.process(actor(i, kind, delay, hold))
        sim.run()
        assert sorted(done) == list(range(len(schedule)))


class TestNetworkConservation:
    @given(
        sends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # src host index
                st.integers(min_value=0, max_value=3),   # dst host index
                st.integers(min_value=0, max_value=50_000),  # size
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_every_sent_message_is_delivered_exactly_once(self, sends):
        sim = Simulator()
        net = Network(sim)
        hosts = [f"h{i}" for i in range(4)]
        boxes = {h: net.register(h, "svc") for h in hosts}
        received = []

        def receiver(host, expected):
            for _ in range(expected):
                msg = yield boxes[host].get()
                received.append(msg.payload)

        expected_per_host = {h: 0 for h in hosts}
        for _, dst, _ in sends:
            expected_per_host[hosts[dst]] += 1
        for host in hosts:
            sim.process(receiver(host, expected_per_host[host]))
        for i, (src, dst, size) in enumerate(sends):
            net.send(hosts[src], hosts[dst], "svc", payload=i, size=size)
        sim.run()
        assert sorted(received) == list(range(len(sends)))
        assert net.messages_sent == len(sends)
        assert net.bytes_sent == sum(size for _, _, size in sends)

    @given(
        n_messages=st.integers(min_value=1, max_value=30),
        loss_rate=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_lossy_port_drops_are_accounted(self, n_messages, loss_rate):
        sim = Simulator()
        net = Network(sim, loss_rate=loss_rate, lossy_ports={"lossy"}, loss_seed=3)
        box = net.register("dst", "lossy")
        delivered = []

        def receiver():
            while True:
                msg = yield box.get()
                delivered.append(msg.payload)

        sim.process(receiver())
        for i in range(n_messages):
            net.send("src", "dst", "lossy", payload=i, size=100)
        sim.run(until=10.0)
        assert len(delivered) + net.messages_dropped == n_messages
        assert len(delivered) == net.messages_sent
