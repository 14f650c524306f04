"""Tests for the shared experiment helpers."""

import pytest

from repro.core import CacheMode, SwalaConfig, SwalaCluster
from repro.experiments import (
    PAPER_1S_ROW,
    run_cluster_trace,
    run_single_server_fleet,
    warm_cluster,
)
from repro.servers import NcsaHttpd
from repro.sim import Simulator
from repro.workload import Request, Trace, nullcgi_trace


class TestRunSingleServerFleet:
    def test_installs_files_and_measures(self):
        trace = Trace([Request.file("/a.html", 2_000)] * 6)
        times, server = run_single_server_fleet(
            lambda sim, net, m: NcsaHttpd(sim, m, net), trace, n_threads=2
        )
        assert times.count == 6
        assert server.machine.fs.exists("/a.html")
        assert server.stats.files_served == 6


class TestRunClusterTrace:
    def test_round_trip_counts(self):
        trace = Trace(
            [Request.cgi(f"/cgi-bin/{i % 4}", 0.1, 100) for i in range(12)]
        )
        times, cluster = run_cluster_trace(
            2, CacheMode.COOPERATIVE, trace, n_threads=4
        )
        assert times.count == 12
        assert cluster.stats().requests == 12

    def test_config_kwargs_forwarded(self):
        trace = Trace([Request.cgi("/cgi-bin/a", 0.1, 100)] * 4)
        _, cluster = run_cluster_trace(
            1, CacheMode.STANDALONE, trace,
            config_kw=dict(cache_capacity=7, policy="lfu"),
        )
        store = cluster.servers[0].cacher.store
        assert store.capacity == 7
        assert store.policy.name == "lfu"


class TestWarmCluster:
    def test_warm_populates_target_node(self):
        sim = Simulator()
        cluster = SwalaCluster(sim, 2, SwalaConfig())
        cluster.start()
        warm_cluster(cluster, nullcgi_trace(1), cluster.node_names[0])
        assert len(cluster.servers[0].cacher.store) == 1
        assert len(cluster.servers[1].cacher.store) == 0


class TestPaperConstants:
    def test_paper_1s_row_values(self):
        assert PAPER_1S_ROW["unique_repeats"] == 189
        assert PAPER_1S_ROW["total_repeats"] == 2_899
        assert PAPER_1S_ROW["time_saved"] == 13_241.0
