"""Cross-check: oracle classifications vs the legacy NodeStats counters.

The oracle observes the same seeded multi-node run the servers count, so
its per-request flags must reproduce the legacy counters *exactly* —
per node and in aggregate.  The one subtlety is the paper's two false-
miss windows: a single execution can trip both the in-flight window
(type 1) and the insert-time window (type 2), and the servers count the
two sites independently, so the invariant is over the per-flag sums
plus the double-cached detections, not over the primary classifications.
"""

from collections import Counter

import pytest

from repro.clients import ClientFleet
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.net import Network
from repro.obs import AUDIT_CLASSES, ConsistencyOracle, attach
from repro.sim import Simulator
from repro.workload import zipf_cgi_trace

# Tuned so every anomaly class actually occurs: a tight cache (capacity
# evictions -> false hits), sub-second TTL (purge churn), short network
# latency (in-flight windows), and a hot zipf head (duplicates).
RECIPE = dict(n_requests=1500, n_distinct=50, seed=11)
CONFIG = dict(
    mode=CacheMode.COOPERATIVE,
    cache_capacity=8,
    default_ttl=0.8,
    purge_interval=0.5,
    n_threads=16,
)


def run_cluster(with_oracle=True, n_nodes=4, config=None, recipe=None):
    sim = Simulator()
    net = Network(sim, latency=0.005)
    cluster = SwalaCluster(
        sim, n_nodes, SwalaConfig(**(config or CONFIG)), network=net
    )
    oracle = None
    if with_oracle:
        oracle = ConsistencyOracle()
        oracle.new_run()
        attach(cluster, oracle=oracle)
    cluster.start()
    fleet = ClientFleet(
        sim, net, zipf_cgi_trace(**(recipe or RECIPE)),
        servers=cluster.node_names, n_threads=16, n_hosts=4,
    )
    tally = fleet.run()
    return cluster, oracle, tally


@pytest.fixture(scope="module")
def audited():
    return run_cluster()


def by_node(oracle, node):
    return [a for a in oracle.audits if a.node == node]


class TestCounterCrossCheck:
    def test_workload_exercises_every_anomaly(self, audited):
        _, oracle, _ = audited
        for cls in ("false-hit", "false-miss-1", "false-miss-2",
                    "local-hit", "remote-hit", "miss-cold", "miss-ttl"):
            assert oracle.counts.get(cls, 0) > 0, f"recipe produced no {cls}"

    def test_every_request_audited_and_finished(self, audited):
        cluster, oracle, _ = audited
        assert len(oracle.audits) == cluster.stats().requests == RECIPE["n_requests"]
        assert all(a.finished is not None for a in oracle.audits)

    def test_exactly_one_classification_each(self, audited):
        _, oracle, _ = audited
        classes = Counter(a.classification for a in oracle.audits)
        assert set(classes) <= set(AUDIT_CLASSES)
        assert oracle.counts == dict(classes)
        assert sum(classes.values()) == len(oracle.audits)

    def test_hit_and_miss_sums_match_cluster(self, audited):
        cluster, oracle, _ = audited
        stats = cluster.stats()
        assert sum(a.local_hit for a in oracle.audits) == stats.local_hits
        assert sum(a.remote_hit for a in oracle.audits) == stats.remote_hits
        assert sum(a.executed for a in oracle.audits) == stats.misses
        assert sum(a.false_hit_retries for a in oracle.audits) == stats.false_hits

    def test_false_miss_windows_sum_to_legacy_counter(self, audited):
        cluster, oracle, _ = audited
        stats = cluster.stats()
        both_windows = (
            sum(a.duplicate for a in oracle.audits)
            + sum(a.insert_race for a in oracle.audits)
        )
        assert both_windows + len(oracle.double_cached) == stats.false_misses
        assert len(oracle.double_cached) == stats.double_cached

    def test_per_node_sums_match_node_stats(self, audited):
        cluster, oracle, _ = audited
        for server in cluster.servers:
            audits = by_node(oracle, server.name)
            s = server.stats
            assert len(audits) == s.requests
            assert sum(a.local_hit for a in audits) == s.local_hits
            assert sum(a.remote_hit for a in audits) == s.remote_hits
            assert sum(a.executed for a in audits) == s.misses
            assert sum(a.false_hit_retries for a in audits) == s.false_hits
            dc = sum(1 for d in oracle.double_cached if d["node"] == server.name)
            assert (
                sum(a.duplicate for a in audits)
                + sum(a.insert_race for a in audits)
                + dc
            ) == s.false_misses

    def test_anomalies_attributed_to_real_broadcasts(self, audited):
        _, oracle, _ = audited
        known = set(oracle._bcast_info)
        for a in oracle.audits:
            if a.bcast_id is not None:
                assert a.bcast_id in known
                assert a.staleness is not None and a.staleness >= 0.0

    def test_coalesced_sums_match(self):
        config = dict(CONFIG, coalesce_duplicates=True)
        cluster, oracle, _ = run_cluster(
            config=config, recipe=dict(RECIPE, n_requests=400)
        )
        stats = cluster.stats()
        coalesced = sum(a.coalesced_waits for a in oracle.audits)
        assert coalesced == sum(n.coalesced for n in stats.nodes) > 0
        # Coalescing closes the in-flight window: no type-1 false misses.
        assert sum(a.duplicate for a in oracle.audits) == 0


class TestZeroPerturbation:
    """Attaching the oracle must not change what the simulation does."""

    def test_oracle_off_matches_oracle_on(self, audited):
        on_cluster, _, on_tally = audited
        off_cluster, _, off_tally = run_cluster(with_oracle=False)
        on, off = on_cluster.stats(), off_cluster.stats()
        for attr in ("requests", "local_hits", "remote_hits", "misses",
                     "false_hits", "false_misses", "double_cached"):
            assert getattr(on, attr) == getattr(off, attr), attr
        for attr in ("evictions", "expirations", "updates_applied"):
            assert (
                [getattr(n, attr) for n in on.nodes]
                == [getattr(n, attr) for n in off.nodes]
            ), attr
        assert on_tally.mean == off_tally.mean
        assert on_tally.percentile(100) == off_tally.percentile(100)

    def test_same_seed_audit_is_byte_identical(self, audited):
        _, first, _ = audited
        _, second, _ = run_cluster()
        assert first.to_jsonl() == second.to_jsonl()
