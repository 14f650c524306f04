#!/usr/bin/env python
"""Watching a running cluster: resource probes, per-source latency
breakdown, and the server's own access log.

Run:  python examples/observability.py
"""

from repro.clients import ClientFleet
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.metrics import bar_chart
from repro.obs import ResourceProfiler, attach
from repro.sim import Simulator
from repro.workload import analyze_caching_potential, load_clf, zipf_cgi_trace


def main():
    sim = Simulator()
    cluster = SwalaCluster(sim, 2, SwalaConfig(mode=CacheMode.COOPERATIVE))
    cluster.start()
    logs = [server.enable_access_log() for server in cluster.servers]

    # Probe every CPU, disk, NIC, mailbox, thread pool and directory lock.
    profiler = ResourceProfiler()
    attach(cluster, profiler=profiler)

    trace = zipf_cgi_trace(600, 80, zipf=1.0, cpu_time_mean=0.3, seed=7)
    fleet = ClientFleet(sim, cluster.network, trace,
                        servers=cluster.node_names, n_threads=12, n_hosts=2)
    fleet.run()
    profiler.finalize()

    print("== probes (node 0) ==")
    probes = {probe.name: probe.to_dict() for probe in profiler.probes}
    cpu = probes[f"{cluster.node_names[0]}.cpu"]
    pool = probes[f"{cluster.node_names[0]}.pool"]
    print(f"  CPU utilization:             {cpu['utilization']:.0%}")
    print(f"  time-averaged CPU run-queue: {cpu['mean_load']:.2f} jobs")
    print(f"  busy request threads (mean): {pool['mean_load']:.2f}")
    print(f"  final cache occupancy:       "
          f"{len(cluster.servers[0].cacher.store)} entries")

    print("\n== per-source response times (cluster) ==")
    by_source = cluster.stats().merged_source_times()
    items = [(src, tally.mean) for src, tally in sorted(by_source.items())]
    print(bar_chart("mean response time by source (s)", items, unit="s"))

    print("\n== the cluster's own access log, re-analyzed ==")
    all_lines = [line for log in logs for line in log.lines]
    logged = load_clf(all_lines)
    (row,) = analyze_caching_potential(logged, thresholds=[0.05])
    print(
        f"  {len(logged)} logged requests, {row.total_repeats} repeats "
        f"above 50ms; an ideal cache on the *logged* times would save "
        f"{row.time_saved:.1f}s ({row.saved_percent:.1f}%)"
    )
    print("  (the cooperative cache already turned most of those repeats "
          "into cache fetches, which is why the logged durations are small)")


if __name__ == "__main__":
    main()
