"""Conservative parallel DES: window primitive, router, coordinator."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import CacheMode
from repro.experiments.common import run_cluster_trace
from repro.experiments.partition import run_partitioned_fleet
from repro.net import Network, UnknownPort
from repro.sim import (
    Simulator,
    set_sim_partitions,
    sim_partitions,
    using_partitions,
)
from repro.sim.pdes import (
    ConservativeCoordinator,
    DeadlockError,
    InlineShard,
    Router,
    ShardSpec,
    resolve_backend,
)
from repro.workload import zipf_cgi_trace


# -- run_window ------------------------------------------------------------

def test_run_window_processes_strictly_before_horizon():
    sim = Simulator()
    fired = []
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        sim.timeout(t, value=t).callbacks.append(
            lambda e: fired.append(e.value)
        )
    assert sim.run_window(2.0) == 3
    assert fired == [0.5, 1.0, 1.5]
    # The event at the horizon stayed queued and runs next window.
    assert sim.peek() == 2.0
    assert sim.run_window(math.inf) == 2
    assert fired == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_run_window_empty_queue_returns():
    sim = Simulator()
    assert sim.run_window(10.0) == 0
    assert sim.peek() == math.inf


def test_run_window_keeps_working_after_new_arrivals():
    sim = Simulator()
    fired = []
    sim.timeout(1.0, value=1.0).callbacks.append(lambda e: fired.append(e.value))
    sim.run_window(2.0)
    # Inject something "from another shard" after the window (timeouts
    # are relative to sim.now, which is 1.0 after the first window).
    sim.timeout(1.5, value=2.5).callbacks.append(lambda e: fired.append(e.value))
    sim.run_window(3.0)
    assert fired == [1.0, 2.5]


def test_queue_tolerates_push_behind_drain_position():
    # A PDES window leaves an event past its horizon queued, and the next
    # round injects messages at earlier instants; peek must report the
    # injected one so shards never hear from the past.
    sim = Simulator()
    fired = []
    sim.timeout(60.0, value=60.0).callbacks.append(
        lambda e: fired.append(e.value)
    )
    assert sim.run_window(10.0) == 0
    sim.schedule_at(5.0, value=5.0).callbacks.append(
        lambda e: fired.append(e.value)
    )
    assert sim.peek() == 5.0
    assert sim.run_window(math.inf) == 2
    assert fired == [5.0, 60.0]


def test_schedule_at_is_bit_exact():
    # timeout(at - now) lands at now + (at - now), which float rounding
    # can put one ulp off `at`; schedule_at must hit `at` exactly.
    sim = Simulator()
    sim.timeout(0.1)
    sim.run_window(1.0)  # now == 0.1, a value where 0.1 + (x - 0.1) != x
    at = 0.35000000000000003
    assert sim.now + (at - sim.now) != at  # the drift schedule_at avoids
    seen = []
    sim.schedule_at(at).callbacks.append(lambda e: seen.append(sim.now))
    sim.run()
    assert seen == [at]
    with pytest.raises(ValueError):
        sim.schedule_at(0.0)  # behind now


# -- router + network ------------------------------------------------------

def _pair():
    """Two one-host shards, a->b reachable only through the router."""
    sims = [Simulator(), Simulator()]
    nets = [Network(sims[0]), Network(sims[1])]
    routers = [Router(["a"], ["b"]), Router(["b"], ["a"])]
    nets[0].router, nets[1].router = routers
    nets[0].attach("a")
    box = nets[1].register("b", "in")
    return sims, nets, routers, box


def test_remote_send_emits_to_router_and_accounts_locally():
    sims, nets, routers, box = _pair()
    delivered = nets[0].send("a", "b", "in", "hi", 1000)
    sims[0].run()
    assert delivered.value.payload == "hi"
    assert nets[0].messages_sent == 1
    assert nets[0].bytes_sent == 1000
    out = routers[0].drain()
    assert len(out) == 1
    deliver_time, _seq, msg = out[0]
    assert deliver_time == pytest.approx(1000 / nets[0].bandwidth + nets[0].latency)
    # Receiver-side injection deposits without recounting.
    nets[1].inject(msg)
    assert len(box) == 1
    assert nets[1].messages_sent == 0


def test_send_to_unknown_host_still_raises():
    sims, nets, _, _ = _pair()
    with pytest.raises(UnknownPort):
        nets[0].send("a", "nowhere", "in", "x", 10)


def test_inject_missing_remote_port_raises():
    sims, nets, routers, _ = _pair()
    nets[0].send("a", "b", "bogus-port", "x", 10)  # host known => validated
    sims[0].run()
    ((_, _, msg),) = routers[0].drain()
    with pytest.raises(UnknownPort):
        nets[1].inject(msg)


# -- coordinator with a toy model ------------------------------------------

def _echo_model(sim, network, me, peer, n, record):
    """Send n pings to peer; reply to each ping received."""
    inbox = network.register(me, "in")

    def daemon():
        while True:
            msg = yield inbox.get()
            record.append((sim.now, msg.payload))
            if msg.payload.startswith("ping"):
                network.send(me, peer, "in", "pong" + msg.payload[4:], 100)

    def pinger():
        for i in range(n):
            network.send(me, peer, "in", f"ping{i}", 100)
            yield sim.timeout(0.01)

    sim.process(daemon(), name=f"{me}.daemon")
    return sim.process(pinger(), name=f"{me}.pinger")


def _build_echo_shard(me, peer, n):
    sim = Simulator()
    network = Network(sim)
    router = Router([me], [peer])
    network.router = router
    record = []
    terminal = _echo_model(sim, network, me, peer, n, record)
    return ShardSpec(
        sim=sim, network=network, router=router, hosts=[me],
        terminal=terminal, finalize=lambda horizon: record,
    ), record


def test_coordinator_echo_matches_serial():
    # Serial reference: both hosts on one simulator, no router.
    sim = Simulator()
    net = Network(sim)
    rec_a, rec_b = [], []
    pa = _echo_model(sim, net, "a", "b", 3, rec_a)
    pb = _echo_model(sim, net, "b", "a", 3, rec_b)
    sim.run(until=pa & pb)
    sim.run_window(sim.peek() + 1.0)  # drain the tail replies

    shard_a, rec_a2 = _build_echo_shard("a", "b", 3)
    shard_b, rec_b2 = _build_echo_shard("b", "a", 3)
    coord = ConservativeCoordinator(
        [InlineShard(shard_a), InlineShard(shard_b)], lookahead=net.latency
    )
    coord.run()
    assert coord.rounds > 0
    # Same arrival timeline on both hosts (the coordinator may overshoot
    # the terminal instant by less than a window; the serial reference
    # drained its tail above, so compare the common prefix).
    assert rec_a2[: len(rec_a)] == rec_a
    assert rec_b2[: len(rec_b)] == rec_b


def test_coordinator_quiescence_without_terminals():
    shard_a, rec_a = _build_echo_shard("a", "b", 2)
    shard_b, rec_b = _build_echo_shard("b", "a", 2)
    shard_a.terminal = None
    shard_b.terminal = None
    coord = ConservativeCoordinator(
        [InlineShard(shard_a), InlineShard(shard_b)],
        lookahead=shard_a.network.latency,
    )
    coord.run()  # terminates at global quiescence: all pings + pongs done
    # Replies come back well inside the 0.01s inter-ping gap, so arrivals
    # interleave; with no terminals, *every* in-flight message drains.
    assert [p for _, p in rec_a] == ["ping0", "pong0", "ping1", "pong1"]
    assert [p for _, p in rec_b] == ["ping0", "pong0", "ping1", "pong1"]


def test_coordinator_deadlock_detection():
    sim = Simulator()
    network = Network(sim)
    router = Router(["a"], [])
    network.router = router
    terminal = sim.event()  # never fires, and no events are scheduled
    spec = ShardSpec(sim=sim, network=network, router=router, hosts=["a"],
                     terminal=terminal)
    with pytest.raises(DeadlockError):
        ConservativeCoordinator([InlineShard(spec)], lookahead=0.1).run()


def test_coordinator_rejects_bad_lookahead_and_duplicate_hosts():
    sim = Simulator()
    network = Network(sim)
    router = Router(["a"], [])
    network.router = router
    spec = ShardSpec(sim=sim, network=network, router=router, hosts=["a"])
    with pytest.raises(ValueError):
        ConservativeCoordinator([InlineShard(spec)], lookahead=0.0)
    with pytest.raises(ValueError):
        ConservativeCoordinator(
            [InlineShard(spec), InlineShard(spec)], lookahead=0.1
        )


# -- partitioned fleet == serial fleet -------------------------------------

def _fleet_fingerprint(times, cluster):
    stats = cluster.stats()
    return (
        times.count, times.mean, times.maximum,
        stats.local_hits, stats.remote_hits, stats.misses,
        stats.false_hits, stats.false_misses,
        cluster.total_cached_entries(),
    )


@pytest.mark.parametrize("n_shards", [2, 3])
def test_partitioned_fleet_equals_serial(n_shards):
    trace = zipf_cgi_trace(240, 40, zipf=0.9, cpu_time_mean=0.25, seed=5)
    serial = _fleet_fingerprint(
        *run_cluster_trace(3, CacheMode.COOPERATIVE, trace,
                           n_threads=6, n_hosts=2)
    )
    with using_partitions(n_shards, "inline"):
        par = _fleet_fingerprint(
            *run_cluster_trace(3, CacheMode.COOPERATIVE, trace,
                               n_threads=6, n_hosts=2)
        )
    assert par == serial


def test_partitioned_fleet_process_backend_equals_serial():
    trace = zipf_cgi_trace(120, 30, zipf=0.9, cpu_time_mean=0.25, seed=6)
    serial = _fleet_fingerprint(
        *run_cluster_trace(2, CacheMode.COOPERATIVE, trace,
                           n_threads=4, n_hosts=2)
    )
    times, view = run_partitioned_fleet(
        2, _coop_config(), trace, n_threads=4, n_hosts=2,
        n_shards=2, backend="process",
    )
    assert _fleet_fingerprint(times, view) == serial
    assert view.backend == "process"


@given(seed=st.integers(0, 2 ** 16), n_shards=st.sampled_from([2, 3]))
@settings(max_examples=4, deadline=None)
def test_same_seed_serial_equals_partitioned(seed, n_shards):
    trace = zipf_cgi_trace(90, 25, zipf=0.9, cpu_time_mean=0.2, seed=seed)
    serial = _fleet_fingerprint(
        *run_cluster_trace(3, CacheMode.COOPERATIVE, trace,
                           n_threads=3, n_hosts=3)
    )
    with using_partitions(n_shards, "inline"):
        partitioned = _fleet_fingerprint(
            *run_cluster_trace(3, CacheMode.COOPERATIVE, trace,
                               n_threads=3, n_hosts=3)
        )
    assert partitioned == serial


def test_table3_cell_identical_serial_vs_partitioned():
    from repro.experiments.table3 import _run_one

    serial = _run_one(4, CacheMode.COOPERATIVE, 20, 2.5, None)
    with using_partitions(2, "inline"):
        two = _run_one(4, CacheMode.COOPERATIVE, 20, 2.5, None)
    with using_partitions(4, "inline"):
        four = _run_one(4, CacheMode.COOPERATIVE, 20, 2.5, None)
    assert two == serial
    assert four == serial


def _coop_config():
    from repro.core import SwalaConfig

    return SwalaConfig(mode=CacheMode.COOPERATIVE)


def test_partitioned_result_surface():
    trace = zipf_cgi_trace(90, 20, zipf=0.9, cpu_time_mean=0.2, seed=9)
    times, view = run_partitioned_fleet(
        3, _coop_config(), trace, n_threads=3, n_hosts=3,
        n_shards=3, backend="inline",
    )
    assert len(view) == 3
    assert view.node_names == ["swala0", "swala1", "swala2"]
    assert len(view.servers) == 3
    assert view.stats().requests == times.count == 90
    for server in view.servers:
        assert server.cacher.directory.total_lock_waits() >= 0.0
    assert view.network.messages_sent > 0
    assert view.rounds > 0


def test_run_partitioned_fleet_validates():
    trace = zipf_cgi_trace(10, 5, zipf=0.9, cpu_time_mean=0.2, seed=1)
    with pytest.raises(ValueError):
        run_partitioned_fleet(1, _coop_config(), trace, n_shards=2)


# -- process-global partition config ---------------------------------------

def test_set_sim_partitions_roundtrip_and_validation():
    assert sim_partitions() == (1, "auto")
    previous = set_sim_partitions(4, "inline")
    try:
        assert sim_partitions() == (4, "inline")
    finally:
        set_sim_partitions(*previous)
    assert sim_partitions() == (1, "auto")
    with pytest.raises(ValueError):
        set_sim_partitions(0)
    with pytest.raises(ValueError):
        set_sim_partitions(2, "bogus")


def test_using_partitions_restores_on_error():
    with pytest.raises(RuntimeError):
        with using_partitions(2, "inline"):
            assert sim_partitions() == (2, "inline")
            raise RuntimeError("boom")
    assert sim_partitions() == (1, "auto")


def test_resolve_backend():
    assert resolve_backend("inline", 4) == "inline"
    assert resolve_backend("process", 4) == "process"
    assert resolve_backend("auto", 4) in ("inline", "process")


def test_observed_runs_take_partitioned_path():
    # Observers no longer force the serial path: shard-local collectors
    # run inside each shard and their snapshots merge into the live
    # observer (counter-identical to a serial observed run).
    from repro.experiments.common import RunObserver, observe_runs
    from repro.experiments.partition import PartitionedClusterResult
    from repro.obs import TraceCollector

    trace = zipf_cgi_trace(40, 10, zipf=0.9, cpu_time_mean=0.2, seed=3)
    observer = RunObserver(tracer=TraceCollector())
    with using_partitions(2, "inline"):
        with observe_runs(observer):
            times, cluster = run_cluster_trace(
                2, CacheMode.COOPERATIVE, trace, n_threads=2, n_hosts=1
            )
    assert isinstance(cluster, PartitionedClusterResult)
    assert times.count == 40
    # The merged tracer saw the whole run, in one run number.
    assert observer.tracer.spans
    assert {s.attrs.get("run") for s in observer.tracer.spans
            if "run" in s.attrs} <= {1}


def test_observed_runs_with_oracle_stay_serial():
    # The consistency oracle audits global event order; it cannot be
    # sharded, so an audit-observed run warns and takes the serial path.
    from repro.experiments.common import RunObserver, observe_runs
    from repro.core import SwalaCluster
    from repro.obs import ConsistencyOracle

    trace = zipf_cgi_trace(40, 10, zipf=0.9, cpu_time_mean=0.2, seed=3)
    with using_partitions(2, "inline"):
        with observe_runs(RunObserver(oracle=ConsistencyOracle())):
            with pytest.warns(RuntimeWarning, match="audit-out"):
                times, cluster = run_cluster_trace(
                    2, CacheMode.COOPERATIVE, trace, n_threads=2, n_hosts=1
                )
    assert isinstance(cluster, SwalaCluster)
    assert times.count == 40
