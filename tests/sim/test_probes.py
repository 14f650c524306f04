"""Tests for the instrumentation seam: ``sim.obs`` and ``repro.obs.attach``."""

import pytest

from repro.core import CacheMode, SwalaCluster, SwalaConfig, SwalaServer
from repro.hosts import Machine
from repro.net import Network
from repro.obs import (
    ConsistencyOracle,
    ResourceProfiler,
    StreamingTelemetry,
    TraceCollector,
    attach,
)
from repro.servers import NcsaHttpd
from repro.sim import Instrumentation, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestInstrumentation:
    def test_off_by_default(self, sim):
        obs = sim.obs
        assert isinstance(obs, Instrumentation)
        assert (obs.tracer, obs.oracle, obs.profiler, obs.streaming) == (
            None, None, None, None,
        )

    def test_open_span_none_tracer(self, sim):
        root = TraceCollector().start_trace("r", node="n", start=0.0)
        assert sim.obs.open_span(root, "x", "cpu", "n") is None

    def test_open_span_none_parent(self, sim):
        col = TraceCollector()
        sim.obs.tracer = col
        assert sim.obs.open_span(None, "x", "cpu", "n") is None
        assert len(col) == 0

    def test_close_span_tolerates_none(self, sim):
        sim.obs.close_span(None, ok=True)  # no-op, no raise

    def test_open_span_real(self, sim):
        col = TraceCollector()
        sim.obs.tracer = col
        root = col.start_trace("r", node="n", start=0.0)
        spans = []

        def proc():
            yield sim.timeout(0.5)
            child = sim.obs.open_span(root, "x", "disk", "n")
            spans.append((child, sim.ticks))
            yield sim.timeout(0.4)
            sim.obs.close_span(child, ok=True)

        sim.process(proc())
        sim.run()
        ((child, ticks),) = spans
        assert child.parent_id == root.span_id
        assert (child.category, child.node) == ("disk", "n")
        assert child.start == 0.5
        assert child.tick == ticks  # the clock's tie-break counter at open
        assert child.duration == pytest.approx(0.4)
        assert child.attrs["ok"] is True

    def test_spans_feed_the_profiler_linker(self, sim):
        col = TraceCollector()
        profiler = ResourceProfiler(record_intervals=True)
        sim.obs.tracer = col
        sim.obs.profiler = profiler
        root = col.start_trace("r", node="n", start=0.0)
        seen = []

        def proc():
            child = sim.obs.open_span(root, "x", "cpu", "n")
            seen.append(profiler.linker.current(sim))
            sim.obs.close_span(child)
            seen.append(profiler.linker.current(sim))
            yield sim.timeout(0)

        sim.process(proc())
        sim.run()
        assert seen[0] is not None and seen[0].name == "x"
        assert seen[1] is None


def _cluster(sim, n=2):
    return SwalaCluster(sim, n, SwalaConfig(mode=CacheMode.COOPERATIVE))


class TestAttach:
    def test_components_share_the_simulation_seam(self, sim):
        cluster = _cluster(sim)
        for server in cluster.servers:
            assert server.obs is sim.obs
            assert server.cacher.obs is sim.obs
            assert server.cacher.sync.obs is sim.obs
        # A LAN joins the seam only when a cluster is attached.
        assert cluster.network.obs is not sim.obs
        attach(cluster)
        assert cluster.network.obs is sim.obs

    def test_separate_calls_compose(self, sim):
        cluster = _cluster(sim, n=3)
        tracer = TraceCollector()
        telemetry = StreamingTelemetry()
        attach(cluster, tracer=tracer)
        cluster.attach_streaming(telemetry)
        assert sim.obs.tracer is tracer
        assert sim.obs.streaming is telemetry
        assert telemetry.n_servers == 3

    def test_cluster_walk_order(self, sim):
        cluster = _cluster(sim)
        profiler = ResourceProfiler()
        attach(cluster, profiler=profiler)
        names = [p.name for p in profiler.probes]
        lan = [r.name for r in cluster.network.resources()]
        assert names[:len(lan)] == lan
        assert names[len(lan):] == [
            f"{node}.{suffix}"
            for node in cluster.node_names
            for suffix in ("cpu", "disk", "pool")
        ]
        nodes = [node for _, node, _ in profiler.watched_locks]
        assert set(nodes) == set(cluster.node_names)
        assert nodes == sorted(nodes, key=cluster.node_names.index)
        # NICs and mailboxes made after the walk are probed as they appear.
        cluster.network.register("late", "port")
        assert profiler.probes[-1].name == "late:port"

    def test_single_server_lan_stays_unobserved(self, sim):
        network = Network(sim)
        server = SwalaServer(sim, Machine(sim, "srv"), network, ["srv"],
                             name="srv")
        profiler = ResourceProfiler()
        attach(server, tracer=TraceCollector(), profiler=profiler)
        assert network.obs is not sim.obs
        assert [p.name for p in profiler.probes] == [
            "srv.cpu", "srv.disk", "srv.pool",
        ]
        network.register("client", "reply")
        assert len(profiler.probes) == 3

    def test_oracle_notes_indicator_protocol(self, sim):
        cluster = SwalaCluster(sim, 2, SwalaConfig(
            mode=CacheMode.COOPERATIVE, directory_protocol="digest",
        ))
        oracle = ConsistencyOracle()
        attach(cluster, oracle=oracle)
        assert sim.obs.oracle is oracle
        assert oracle.indicator_protocol == "digest"

    def test_fork_server_has_no_pool_probe(self, sim):
        server = NcsaHttpd(sim, Machine(sim, "srv"), Network(sim), name="srv")
        profiler = ResourceProfiler()
        attach(server, profiler=profiler)
        assert [p.name for p in profiler.probes] == ["srv.cpu", "srv.disk"]
