#!/usr/bin/env python
"""Auditing weak consistency with the shadow oracle (paper §4.2).

Swala's replicated cache directories are only *weakly* consistent:
insert/delete broadcasts take time to propagate, so nodes act on stale
metadata and suffer false hits (fetching an entry the owner already
dropped) and false misses (re-executing work a peer already cached).
The flat `NodeStats` counters say *how many*; the consistency oracle
says *which requests*, *which broadcast's lag caused each one*, and
*what the detour cost*.

This example drives a 4-node cluster with a deliberately nasty
configuration — a tiny cache (capacity churn), a sub-second TTL (purge
churn), and a hot Zipf head (duplicate executions) — with the oracle
attached and a 1-second time-series sampler running, then prints:

1. the anomaly taxonomy (one classification per request),
2. the staleness-window distribution (broadcast send -> replica apply),
3. per-node anomaly timelines, and
4. a sparkline dashboard of the sampled counters.

The oracle schedules no events and draws no random numbers, so the run
is bit-identical to the same seed without it (the cross-check test in
``tests/core/test_oracle_crosscheck.py`` holds it to that).

Run:  python examples/consistency_audit.py
"""

from repro.clients import ClientFleet
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.net import Network
from repro.obs import (
    ConsistencyOracle,
    TimeSeriesLog,
    TimeSeriesSampler,
    attach,
    load_audit,
    render_audit_report,
    render_timeseries_dashboard,
)
from repro.obs.timeseries import cluster_series, oracle_series
from repro.sim import Simulator
from repro.workload import zipf_cgi_trace


def run_audited_cluster():
    sim = Simulator()
    net = Network(sim, latency=0.005)
    config = SwalaConfig(
        mode=CacheMode.COOPERATIVE,
        cache_capacity=8,        # churn: evictions race remote fetches
        default_ttl=0.8,         # churn: TTL expiry races the purger
        purge_interval=0.5,
        n_threads=16,
    )
    cluster = SwalaCluster(sim, 4, config, network=net)

    oracle = ConsistencyOracle()
    oracle.new_run()
    attach(cluster, oracle=oracle)
    cluster.start()

    log = TimeSeriesLog()
    log.new_run()
    sampler = TimeSeriesSampler(sim, log, interval=1.0)
    sampler.add_source("cluster", cluster_series(cluster))
    sampler.add_source("oracle", oracle_series(oracle))
    sampler.start()

    fleet = ClientFleet(
        sim, net, zipf_cgi_trace(1500, 50, seed=11),
        servers=cluster.node_names, n_threads=16, n_hosts=4,
    )
    fleet.run()
    return cluster, oracle, log


def main():
    cluster, oracle, log = run_audited_cluster()

    stats = cluster.stats()
    print(
        f"{stats.requests} requests over {len(cluster.servers)} nodes: "
        f"{stats.local_hits} local hits, {stats.remote_hits} remote hits, "
        f"{stats.misses} executions, {stats.false_hits} false hits, "
        f"{stats.false_misses} false misses (legacy counters)"
    )
    print()

    # Round-trip through the JSONL the CLI flags would write: the report
    # renders from the file format, exactly like `repro audit`.
    path = oracle.write("/tmp/consistency_audit.jsonl")
    print(render_audit_report(load_audit(path), bins=40))
    print()
    print(render_timeseries_dashboard(log, series=["oracle", "false"]))


if __name__ == "__main__":
    main()
