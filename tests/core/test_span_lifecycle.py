"""Span lifecycle invariants on the Swala request path.

Every exit path of ``SwalaServer._handle_cacheable`` (local hit, remote
hit, false hit, miss, coalesced wait, plus the uncacheable and static-file
paths around it) must leave zero open spans behind, and every root span's
duration must equal the response time the node recorded.  Trace export
must be byte-identical across two same-seed runs.
"""

import pytest

from repro.clients import ClientThread
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.obs import TraceCollector, TraceDump, attach, outcome_of, request_records
from repro.sim import Simulator
from repro.workload import Request

CGI = Request.cgi("/cgi-bin/q?x=1", cpu_time=0.5, response_size=2_000)


def build(n=2, **config_kw):
    sim = Simulator()
    config_kw.setdefault("mode", CacheMode.COOPERATIVE)
    cluster = SwalaCluster(sim, n, SwalaConfig(**config_kw))
    collector = TraceCollector()
    attach(cluster, tracer=collector)
    cluster.start()
    return sim, cluster, collector


def send(sim, cluster, node_idx, requests, client="cl"):
    thread = ClientThread(
        sim, cluster.network, f"{client}-{node_idx}-{sim.now}",
        cluster.node_names[node_idx], requests,
    )
    sim.run(until=thread.start())
    return thread


def roots(collector):
    return [s for s in collector.spans if s.parent_id is None]


def assert_clean(collector):
    assert collector.open_spans() == []
    assert collector.dropped == 0


class TestExitPathsCloseSpans:
    def test_miss_then_local_hit(self):
        sim, cluster, col = build(1)
        send(sim, cluster, 0, [CGI, CGI])
        assert_clean(col)
        assert [outcome_of(r) for r in roots(col)] == ["miss", "local-hit"]

    def test_remote_hit(self):
        sim, cluster, col = build(2)
        send(sim, cluster, 0, [CGI])
        send(sim, cluster, 1, [CGI])
        assert_clean(col)
        assert outcome_of(roots(col)[-1]) == "remote-hit"
        # The remote fetch's wire hops are in the trace, parented under it.
        names = [s.name for s in col.spans]
        assert any(n.startswith("hop:") for n in names)
        assert "fetch-remote" in names

    def test_false_hit(self):
        sim, cluster, col = build(2)
        send(sim, cluster, 0, [CGI])
        # Owner drops the entry without broadcasting: the peer's directory
        # still points at it => remote fetch answers "gone" (false hit).
        cluster.servers[0].cacher.store.remove(CGI.url)
        send(sim, cluster, 1, [CGI])
        assert_clean(col)
        root = roots(col)[-1]
        assert outcome_of(root) == "false-hit"
        assert root.attrs["false_hit_retries"] == 1
        assert cluster.stats().false_hits == 1

    def test_uncacheable(self):
        sim, cluster, col = build(1)
        send(sim, cluster, 0, [Request.cgi("/cgi-bin/u", 0.2, 100,
                                          cacheable=False)])
        assert_clean(col)
        assert outcome_of(roots(col)[0]) == "uncacheable"

    def test_static_file(self):
        sim, cluster, col = build(1)
        req = Request.file("/index.html", 4_000)
        cluster.servers[0].machine.fs.create(req.url, req.response_size)
        send(sim, cluster, 0, [req])
        assert_clean(col)
        assert outcome_of(roots(col)[0]) == "file"

    def test_coalesced_wait(self):
        sim, cluster, col = build(1, coalesce_duplicates=True)
        t0 = ClientThread(sim, cluster.network, "a", cluster.node_names[0],
                          [CGI])
        t1 = ClientThread(sim, cluster.network, "b", cluster.node_names[0],
                          [CGI])
        done = [t0.start(), t1.start()]
        for event in done:
            sim.run(until=event)
        assert_clean(col)
        assert cluster.servers[0].stats.coalesced == 1
        outcomes = sorted(outcome_of(r) for r in roots(col))
        assert outcomes == ["coalesced", "miss"]
        assert "wait-coalesced" in [s.name for s in col.spans]


class TestRootMatchesRecordedResponseTime:
    def test_durations_equal_node_observations(self):
        sim, cluster, col = build(2)
        send(sim, cluster, 0, [CGI])
        send(sim, cluster, 1, [CGI])
        records = request_records(TraceDump(col.spans, []))
        by_outcome = {r.outcome: r.total for r in records}
        exec_tally = cluster.servers[0].stats.source_times["exec"]
        remote_tally = cluster.servers[1].stats.source_times["remote-cache"]
        assert by_outcome["miss"] == pytest.approx(exec_tally.mean)
        assert by_outcome["remote-hit"] == pytest.approx(remote_tally.mean)


class TestDeterministicExport:
    def run_once(self):
        sim, cluster, col = build(2)
        mixed = [
            CGI,
            Request.cgi("/cgi-bin/other", 0.3, 500),
            CGI,
        ]
        send(sim, cluster, 0, mixed)
        send(sim, cluster, 1, mixed)
        return col.to_jsonl()

    def test_same_seed_byte_identical(self):
        assert self.run_once() == self.run_once()


class TestZeroOverheadOff:
    def test_results_identical_with_and_without_tracer(self):
        def run(traced):
            sim = Simulator()
            cluster = SwalaCluster(
                sim, 2, SwalaConfig(mode=CacheMode.COOPERATIVE)
            )
            if traced:
                attach(cluster, tracer=TraceCollector())
            cluster.start()
            t = send(sim, cluster, 0, [CGI, CGI])
            stats = cluster.stats()
            return (sim.now, t.response_times.mean, stats.hits, stats.misses)

        assert run(False) == run(True)
