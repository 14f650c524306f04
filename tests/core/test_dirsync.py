"""Tests for the directory-sync strategy seam (broadcast / digest / bloom)."""

import math

import pytest

from repro.clients import ClientThread
from repro.core import (
    BloomSync,
    BroadcastSync,
    CacheMode,
    CountingBloomFilter,
    DigestSync,
    SwalaCluster,
    SwalaConfig,
)
from repro.core.dirsync import per_filter_fp_rate
from repro.core.protocol import DIRECTORY_UPDATE_BYTES, IndicatorDeltas
from repro.experiments import GRID_MIXES
from repro.experiments.common import run_cluster_trace
from repro.obs import ConsistencyOracle, attach
from repro.sim import Simulator
from repro.workload import Request

CGI = Request.cgi("/cgi-bin/q?x=1", cpu_time=1.0, response_size=2_000)


def build_cluster(n=2, **config_kw):
    sim = Simulator()
    config_kw.setdefault("mode", CacheMode.COOPERATIVE)
    cluster = SwalaCluster(sim, n, SwalaConfig(**config_kw))
    cluster.start()
    return sim, cluster


def send(sim, cluster, node_idx, requests, client="cl"):
    thread = ClientThread(
        sim, cluster.network, f"{client}-{node_idx}-{sim.now}",
        cluster.node_names[node_idx], requests,
    )
    sim.run(until=thread.start())
    return thread


class TestCountingBloomFilter:
    def test_membership_roundtrip(self):
        filt = CountingBloomFilter(100, 0.01)
        urls = [f"/cgi-bin/u?{i}" for i in range(100)]
        for url in urls:
            filt.add(url)
        assert all(url in filt for url in urls)  # no false negatives, ever
        assert len(filt) == 100

    def test_discard_removes_and_reports(self):
        filt = CountingBloomFilter(10, 0.01)
        filt.add("/a")
        assert filt.discard("/a") is True
        assert "/a" not in filt
        assert filt.discard("/a") is False  # already gone
        assert len(filt) == 0

    def test_spurious_discard_keeps_live_entries(self):
        filt = CountingBloomFilter(10, 0.01)
        filt.add("/keep")
        filt.discard("/never-added")  # must not zero /keep's counters
        assert "/keep" in filt

    def test_sizing_grows_with_capacity_and_precision(self):
        small = CountingBloomFilter(10, 0.01)
        big = CountingBloomFilter(1_000, 0.01)
        precise = CountingBloomFilter(1_000, 0.0001)
        assert big.m > small.m
        assert precise.m > big.m
        assert small.k >= 1 and big.size_bytes > 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0, 0.01)
        with pytest.raises(ValueError):
            CountingBloomFilter(10, 1.5)

    def test_per_filter_rate_union_bound(self):
        bound = 0.01
        for n_peers in (1, 2, 63, 1023):
            p = per_filter_fp_rate(bound, n_peers)
            sweep = 1.0 - (1.0 - p) ** n_peers
            assert sweep <= bound + 1e-12
        assert per_filter_fp_rate(bound, 1) == bound
        # Deflation matters: at 1023 peers the naive rate would make a
        # sweep almost certain to lie.
        assert per_filter_fp_rate(bound, 1023) < bound / 100


class TestProtocolSelection:
    def test_default_is_broadcast(self):
        _, cluster = build_cluster(2)
        assert isinstance(cluster.servers[0].cacher.sync, BroadcastSync)

    def test_configured_protocols(self):
        for protocol, cls in (("digest", DigestSync), ("bloom", BloomSync)):
            _, cluster = build_cluster(2, directory_protocol=protocol)
            assert isinstance(cluster.servers[0].cacher.sync, cls)

    def test_non_cooperative_always_broadcast(self):
        _, cluster = build_cluster(
            2, mode=CacheMode.STANDALONE, directory_protocol="bloom"
        )
        assert isinstance(cluster.servers[0].cacher.sync, BroadcastSync)

    def test_unknown_protocol_rejected_at_config(self):
        with pytest.raises(ValueError):
            SwalaConfig(directory_protocol="gossip")

    def test_indicator_modes_keep_directory_local(self):
        # The big-memory win: no per-peer directory tables at 1024 nodes.
        _, coop = build_cluster(4)
        _, bloom = build_cluster(4, directory_protocol="bloom")
        assert len(coop.servers[0].cacher.directory.node_order) == 4
        assert len(bloom.servers[0].cacher.directory.node_order) == 1


class TestBroadcastCounters:
    def test_insert_broadcast_counts_messages_and_bytes(self):
        sim, cluster = build_cluster(4)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)
        stats = cluster.stats()
        assert stats.dir_msgs_sent == 3  # one insert, N-1 copies
        assert stats.dir_bytes_sent == 3 * DIRECTORY_UPDATE_BYTES

    def test_standalone_sends_nothing(self):
        sim, cluster = build_cluster(2, mode=CacheMode.STANDALONE)
        send(sim, cluster, 0, [CGI])
        assert cluster.stats().dir_msgs_sent == 0


class TestDigestProtocol:
    def test_peer_learns_after_refresh(self):
        sim, cluster = build_cluster(2, directory_protocol="digest",
                                     digest_interval=1.0)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 2.5)  # let a refresh fire and land
        t = send(sim, cluster, 1, [CGI])
        assert t.responses[0].source == "remote-cache"
        assert cluster.servers[1].cacher.sync.views["swala0"] == {CGI.url}

    def test_peer_executes_before_refresh(self):
        sim, cluster = build_cluster(2, directory_protocol="digest",
                                     digest_interval=60.0)
        send(sim, cluster, 0, [CGI])
        t = send(sim, cluster, 1, [CGI])  # digest not due yet: local miss
        assert t.responses[0].source == "exec"
        assert cluster.servers[1].stats.cgi_executed == 1

    def test_unchanged_node_never_sends(self):
        sim, cluster = build_cluster(3, directory_protocol="digest",
                                     digest_interval=0.5)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 5.0)
        # Only the node whose cache changed refreshed; each refresh is
        # N-1 messages, and nothing re-sends while the cache is stable.
        assert cluster.servers[0].stats.dir_msgs_sent == 2
        assert cluster.servers[1].stats.dir_msgs_sent == 0
        assert cluster.servers[0].cacher.sync.digests_sent == 1

    def test_digest_replaces_view_after_delete(self):
        sim, cluster = build_cluster(
            2, directory_protocol="digest", digest_interval=1.0,
            default_ttl=3.0, purge_interval=1.0,
        )
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 2.5)
        assert cluster.servers[1].cacher.sync.views["swala0"] == {CGI.url}
        sim.run(until=sim.now + 6.0)  # entry expires, purger marks dirty
        assert cluster.servers[1].cacher.sync.views["swala0"] == set()


class TestBloomProtocol:
    def test_peer_learns_after_batch_flush(self):
        sim, cluster = build_cluster(2, directory_protocol="bloom",
                                     indicator_batch=1)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)  # delta (batch of 1) flushes at insert
        t = send(sim, cluster, 1, [CGI])
        assert t.responses[0].source == "remote-cache"
        assert cluster.stats().remote_hits == 1

    def test_timer_flushes_partial_batch(self):
        sim, cluster = build_cluster(
            2, directory_protocol="bloom",
            indicator_batch=1_000, indicator_max_delay=1.0,
        )
        send(sim, cluster, 0, [CGI])
        sync = cluster.servers[0].cacher.sync
        assert sync.pending  # queued, batch far from full
        sim.run(until=sim.now + 2.5)
        assert not sync.pending
        assert sync.flushes == 1
        assert CGI.url in cluster.servers[1].cacher.sync.filters["swala0"]

    def test_false_hit_recovers_through_miss_path(self):
        sim, cluster = build_cluster(2, directory_protocol="bloom",
                                     indicator_batch=1)
        # A phantom indicator entry: node 1 believes node 0 holds the
        # result (exactly what a Bloom false positive produces).
        sync = cluster.servers[1].cacher.sync
        phantom = CountingBloomFilter(
            sync.cacher.config.cache_capacity, sync.fp_rate
        )
        phantom.add(CGI.url)
        sync.filters["swala0"] = phantom
        t = send(sim, cluster, 1, [CGI])
        assert t.responses[0].source == "exec"  # recovered by executing
        assert cluster.servers[1].stats.false_hits == 1
        assert cluster.servers[0].stats.false_hits_served == 1

    def test_delete_delta_decrements_peer_filter(self):
        sim, cluster = build_cluster(
            2, directory_protocol="bloom", indicator_batch=1,
            default_ttl=2.0, purge_interval=1.0,
        )
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)
        assert CGI.url in cluster.servers[1].cacher.sync.filters["swala0"]
        sim.run(until=sim.now + 5.0)  # expire + purge + delete delta
        assert CGI.url not in cluster.servers[1].cacher.sync.filters["swala0"]


class TestPeerFiltersAreShared:
    """Receivers of one delta batch share the filter it produces; a
    shared filter is never mutated, so diverging receivers copy it."""

    @staticmethod
    def apply(sim, server, batch):
        sim.run(until=sim.process(server.cacher.sync.handle_update(batch, None)))

    def test_receivers_of_a_batch_hold_one_filter(self):
        sim, cluster = build_cluster(4, directory_protocol="bloom",
                                     indicator_batch=1)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)
        held = [s.cacher.sync.filters["swala0"] for s in cluster.servers[1:]]
        assert all(f is held[0] for f in held)
        assert CGI.url in held[0]

    def test_diverging_receivers_copy_the_shared_filter(self):
        sim, cluster = build_cluster(3, directory_protocol="bloom")
        one, two = cluster.servers[1], cluster.servers[2]
        first = IndicatorDeltas("swala0", (("i", "/a"),), seq=1)
        self.apply(sim, one, first)
        self.apply(sim, two, first)
        shared = one.cacher.sync.filters["swala0"]
        assert two.cacher.sync.filters["swala0"] is shared
        self.apply(sim, one, IndicatorDeltas("swala0", (("i", "/b"),), seq=2))
        self.apply(sim, two, IndicatorDeltas("swala0", (("d", "/a"),), seq=2))
        mine = one.cacher.sync.filters["swala0"]
        theirs = two.cacher.sync.filters["swala0"]
        assert ("/a" in mine, "/b" in mine) == (True, True)
        assert ("/a" in theirs, "/b" in theirs) == (False, False)
        assert ("/a" in shared, "/b" in shared) == (True, False)
        assert (len(shared), len(mine), len(theirs)) == (1, 2, 0)

    def test_grid_run_keeps_one_filter_per_batch(self):
        mix = GRID_MIXES["webstone"]
        _, cluster = run_cluster_trace(
            16, CacheMode.COOPERATIVE, mix.trace(0.05, 0),
            n_threads=16, n_hosts=8, config_kw=mix.config_kw("bloom"),
        )
        held = [
            filt
            for server in cluster.servers
            for filt in server.cacher.sync.filters.values()
        ]
        flushes = sum(server.cacher.sync.flushes for server in cluster.servers)
        # A private filter per receiver would make flushes x (N-1) objects.
        assert len(held) > flushes
        assert len({id(filt) for filt in held}) <= flushes


class TestBroadcastUnaffectedByIndicatorKnobs:
    def test_indicator_knobs_do_not_change_broadcast_runs(self):
        def run(**kw):
            sim, cluster = build_cluster(3, **kw)
            t0 = send(sim, cluster, 0, [CGI])
            t1 = send(sim, cluster, 1, [CGI])
            return (t0.response_times.mean, t1.response_times.mean,
                    cluster.stats().dir_msgs_sent)

        plain = run()
        tuned = run(digest_interval=0.25, indicator_batch=2,
                    indicator_max_delay=0.1)
        assert plain == tuned


class TestOracleIndicatorTagging:
    def test_attach_notes_protocol(self):
        sim, cluster = build_cluster(2, directory_protocol="bloom")
        oracle = ConsistencyOracle()
        attach(cluster, oracle=oracle)
        assert oracle.indicator_protocol == "bloom"
        _, broadcast = build_cluster(2)
        oracle2 = ConsistencyOracle()
        attach(broadcast, oracle=oracle2)
        assert oracle2.indicator_protocol is None

    def test_unattributed_false_hit_blamed_on_indicator(self):
        oracle = ConsistencyOracle()
        oracle.note_indicator_protocol("bloom")
        audit = oracle.begin("swala1", CGI, 0.0)
        oracle.false_hit(audit, CGI.url, "swala0", wasted=0.1, now=1.0)
        assert audit.bcast_kind == "indicator"
        oracle.finish(audit, 2.0, "exec")
        assert audit.to_dict()["bcast_kind"] == "indicator"

    def test_broadcast_mode_false_hit_not_mislabeled(self):
        oracle = ConsistencyOracle()
        audit = oracle.begin("swala1", CGI, 0.0)
        oracle.false_hit(audit, CGI.url, "swala0", wasted=0.1, now=1.0)
        assert audit.bcast_kind is None


class TestConfigFileKeys:
    def test_parse_directory_protocol_keys(self):
        from repro.core import parse_config

        config = parse_config(
            "[cache]\n"
            "mode = cooperative\n"
            "directory_protocol = Bloom\n"
            "digest_interval = 2.5\n"
            "indicator_fp_rate = 0.05\n"
            "indicator_batch = 8\n"
            "indicator_max_delay = 0.75\n"
        )
        assert config.directory_protocol == "bloom"
        assert config.digest_interval == 2.5
        assert config.indicator_fp_rate == 0.05
        assert config.indicator_batch == 8
        assert config.indicator_max_delay == 0.75

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            SwalaConfig(digest_interval=0.0)
        with pytest.raises(ValueError):
            SwalaConfig(indicator_fp_rate=1.0)
        with pytest.raises(ValueError):
            SwalaConfig(indicator_batch=0)
        with pytest.raises(ValueError):
            SwalaConfig(indicator_max_delay=0.0)
