"""Behavioural tests for the cooperative protocol across nodes."""

import pytest

from repro.clients import ClientThread
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.experiments import GRID_MIXES
from repro.experiments.common import run_cluster_trace
from repro.sim import Simulator
from repro.workload import Request


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


CGI = Request.cgi("/cgi-bin/q?x=1", cpu_time=0.5, response_size=2_000)


class TestRemoteFetch:
    def test_peer_serves_cached_result(self):
        sim, cluster = build_cluster(2)
        send(sim, cluster, 0, [CGI])  # node 0 executes + caches + broadcasts
        t = send(sim, cluster, 1, [CGI])  # node 1 fetches from node 0
        assert t.responses[0].source == "remote-cache"
        s = cluster.stats()
        assert s.remote_hits == 1
        assert s.misses == 1
        assert cluster.servers[1].stats.cgi_executed == 0

    def test_remote_hit_faster_than_execution(self):
        sim, cluster = build_cluster(2)
        t0 = send(sim, cluster, 0, [CGI])
        t1 = send(sim, cluster, 1, [CGI])
        assert t1.response_times.mean < t0.response_times.mean / 5

    def test_owner_updates_metadata_on_remote_fetch(self):
        sim, cluster = build_cluster(2)
        send(sim, cluster, 0, [CGI])
        send(sim, cluster, 1, [CGI])
        entry = cluster.servers[0].cacher.store.get(CGI.url)
        assert entry.access_count == 1


class TestDirectoryReplication:
    def test_insert_broadcast_reaches_all_peers(self):
        sim, cluster = build_cluster(4)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)  # let broadcasts settle
        for server in cluster.servers:
            table = server.cacher.directory.table(cluster.node_names[0])
            assert CGI.url in table

    def test_replicas_carry_owner(self):
        sim, cluster = build_cluster(3)
        send(sim, cluster, 1, [CGI])
        sim.run(until=sim.now + 1.0)
        replica = cluster.servers[0].cacher.directory.table(
            cluster.node_names[1]
        )[CGI.url]
        assert replica.owner == cluster.node_names[1]

    def test_eviction_broadcast_removes_replicas(self):
        sim, cluster = build_cluster(2, cache_capacity=1)
        a = Request.cgi("/cgi-bin/a", 0.3, 100)
        b = Request.cgi("/cgi-bin/b", 0.3, 100)
        send(sim, cluster, 0, [a, b])  # b evicts a on node 0
        sim.run(until=sim.now + 1.0)
        table_on_peer = cluster.servers[1].cacher.directory.table(
            cluster.node_names[0]
        )
        assert a.url not in table_on_peer
        assert b.url in table_on_peer

    def test_purge_broadcasts_delete(self):
        sim, cluster = build_cluster(2, default_ttl=5.0, purge_interval=1.0)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 10.0)
        assert cluster.servers[0].stats.expirations == 1
        peer_view = cluster.servers[1].cacher.directory.table(
            cluster.node_names[0]
        )
        assert CGI.url not in peer_view


class TestPeerTablesShareOneSnapshot:
    """Every receiver of an insert broadcast installs the sender's single
    read-only snapshot; only the owner's store entry is ever mutated."""

    def test_peers_hold_the_same_snapshot_not_the_store_entry(self):
        sim, cluster = build_cluster(4)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)
        owner = cluster.node_names[0]
        store_entry = cluster.servers[0].cacher.store.get(CGI.url)
        peer_entries = [
            server.cacher.directory.table(owner)[CGI.url]
            for server in cluster.servers[1:]
        ]
        assert all(e is peer_entries[0] for e in peer_entries)
        assert peer_entries[0] is not store_entry
        assert peer_entries[0] == store_entry

    def test_owner_access_leaves_peer_snapshot_unchanged(self):
        sim, cluster = build_cluster(4)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)
        owner = cluster.node_names[0]
        snapshot = cluster.servers[1].cacher.directory.table(owner)[CGI.url]
        before = (snapshot.access_count, snapshot.last_access)
        cluster.servers[0].cacher.store.record_access(CGI.url, sim.now + 5.0)
        store_entry = cluster.servers[0].cacher.store.get(CGI.url)
        assert store_entry.access_count == before[0] + 1
        assert (snapshot.access_count, snapshot.last_access) == before

    def test_grid_run_keeps_one_entry_per_insert(self):
        mix = GRID_MIXES["webstone"]
        _, cluster = run_cluster_trace(
            16, CacheMode.COOPERATIVE, mix.trace(0.05, 0),
            n_threads=16, n_hosts=8, config_kw=mix.config_kw("broadcast"),
        )
        peer_entries = [
            entry
            for server in cluster.servers
            for node in server.cacher.directory.node_order[1:]
            for entry in server.cacher.directory.table(node).values()
        ]
        inserts = cluster.stats().inserts
        # Copying per receiver would make inserts x (N-1) objects.
        assert len(peer_entries) > inserts
        assert len({id(entry) for entry in peer_entries}) <= inserts


class TestFalseHit:
    def test_fetch_after_eviction_falls_back_to_execution(self):
        sim, cluster = build_cluster(2, cache_capacity=1)
        a = Request.cgi("/cgi-bin/a", 0.3, 100)
        b = Request.cgi("/cgi-bin/b", 0.3, 100)
        send(sim, cluster, 0, [a])
        sim.run(until=sim.now + 1.0)
        # Evict `a` on node 0 *without* letting node 1 hear about it.
        owner = cluster.servers[0]
        owner.cacher.store.remove(a.url)
        t = send(sim, cluster, 1, [a])
        assert t.responses[0].source == "exec"
        assert cluster.servers[1].stats.false_hits == 1
        assert owner.stats.false_hits_served == 1
        assert len(t.responses) == 1  # client still got an answer

    def test_false_hit_result_recached_by_requester(self):
        sim, cluster = build_cluster(2, cache_capacity=10)
        a = Request.cgi("/cgi-bin/a", 0.3, 100)
        send(sim, cluster, 0, [a])
        sim.run(until=sim.now + 1.0)
        cluster.servers[0].cacher.store.remove(a.url)
        send(sim, cluster, 1, [a])
        assert cluster.servers[1].cacher.store.get(a.url) is not None


class TestFalseMissType2:
    def test_simultaneous_requests_on_two_nodes_double_cache(self):
        sim, cluster = build_cluster(2)
        slow = Request.cgi("/cgi-bin/slow", 2.0, 100)
        a = ClientThread(sim, cluster.network, "ca", cluster.node_names[0], [slow])
        b = ClientThread(sim, cluster.network, "cb", cluster.node_names[1], [slow])
        done = a.start() & b.start()
        sim.run(until=done)
        sim.run(until=sim.now + 1.0)
        s = cluster.stats()
        # Both nodes executed (no broadcast had arrived when each started).
        assert s.misses == 2
        assert s.false_misses >= 1
        assert s.double_cached >= 1
        # The result now lives on both nodes.
        assert cluster.servers[0].cacher.store.get(slow.url) is not None
        assert cluster.servers[1].cacher.store.get(slow.url) is not None

    def test_no_false_miss_after_broadcast_settles(self):
        sim, cluster = build_cluster(2)
        send(sim, cluster, 0, [CGI])
        sim.run(until=sim.now + 1.0)
        send(sim, cluster, 1, [CGI])
        assert cluster.stats().false_misses == 0


class TestStandaloneIsolation:
    def test_standalone_nodes_never_share(self):
        sim, cluster = build_cluster(2, mode=CacheMode.STANDALONE)
        send(sim, cluster, 0, [CGI])
        t = send(sim, cluster, 1, [CGI])
        assert t.responses[0].source == "exec"
        s = cluster.stats()
        assert s.remote_hits == 0
        assert s.misses == 2
        # Each node cached its own copy.
        assert all(len(srv.cacher.store) == 1 for srv in cluster.servers)

    def test_standalone_directory_has_single_table(self):
        sim, cluster = build_cluster(2, mode=CacheMode.STANDALONE)
        d = cluster.servers[0].cacher.directory
        assert list(d.table_sizes()) == [cluster.node_names[0]]


class TestClusterBuilder:
    def test_node_names_and_indexing(self):
        sim, cluster = build_cluster(3)
        assert len(cluster) == 3
        assert cluster[0].name == cluster.node_names[0]

    def test_bad_node_count(self):
        with pytest.raises(ValueError):
            SwalaCluster(Simulator(), 0)

    def test_total_cached_entries(self):
        sim, cluster = build_cluster(2)
        send(sim, cluster, 0, [CGI])
        assert cluster.total_cached_entries() == 1


class TestEvictionDuringServe:
    """A capacity eviction can land while a serving thread is parked in
    the open/stat syscall, unlinking the file it is about to read.  The
    serve must fall through to the existing vanished-entry paths (miss /
    false hit), not crash the request thread.  Regression: hypothesis
    found this with capacity 1 via test_store_capacity_respected."""

    def _prime(self, n=1, **config_kw):
        config_kw.setdefault("mode", CacheMode.STANDALONE)
        config_kw.setdefault("cache_capacity", 1)
        sim, cluster = build_cluster(n, **config_kw)
        send(sim, cluster, 0, [CGI])
        assert cluster.servers[0].cacher.store.get(CGI.url) is not None
        return sim, cluster

    def _rival(self, owner, now):
        from repro.cache import CacheEntry

        return CacheEntry(
            url="/cgi-bin/q?x=2", owner=owner, size=2_000,
            exec_time=0.5, created=now, ttl=1_000.0,
        )

    def test_fetch_local_returns_none_when_file_vanishes_mid_open(self):
        sim, cluster = self._prime()
        cacher = cluster.servers[0].cacher
        result = {}

        def fetcher():
            result["entry"] = yield from cacher.fetch_local(CGI.url)

        def evictor():
            # Lands inside serve_file's open/stat compute (syscall_cpu).
            yield sim.timeout(0.00002)
            cacher.store.insert(self._rival(cacher.name, sim.now), sim.now)

        sim.process(fetcher(), name="fetcher")
        sim.process(evictor(), name="evictor")
        sim.run(until=sim.now + 1.0)
        assert result["entry"] is None
        assert cacher.store.get(CGI.url) is None  # the eviction won

    def test_fetch_server_replies_miss_when_file_vanishes_mid_serve(self):
        from repro.core.protocol import FetchRequest

        sim, cluster = self._prime(n=2, mode=CacheMode.COOPERATIVE)
        owner, peer = cluster.servers
        box = cluster.network.register(peer.name, "fetch-reply-test")
        replies = []

        def receiver():
            msg = yield box.get()
            replies.append(msg.payload)

        def evictor():
            # Lands after dispatch_thread (0.0002) inside the open/stat.
            yield sim.timeout(0.00022)
            owner.cacher.store.insert(
                self._rival(owner.cacher.name, sim.now), sim.now
            )

        freq = FetchRequest(
            url=CGI.url, requester=peer.name,
            reply_port="fetch-reply-test", seq=1,
        )
        sim.process(owner.cacher._serve_fetch(freq), name="serve-fetch")
        sim.process(evictor(), name="evictor")
        sim.process(receiver(), name="receiver")
        sim.run(until=sim.now + 1.0)
        assert replies and replies[0].hit is False
        assert owner.cacher.stats.false_hits_served == 1
