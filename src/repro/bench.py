"""Performance baseline harness behind ``repro bench``.

The workload functions here are the single source of truth for the
engine microbenchmarks: ``benchmarks/test_perf_engine.py`` wraps them
under pytest-benchmark for CI statistics, while :func:`run_bench` times
them directly (no pytest required) and emits a ``BENCH_<date>.json``
snapshot with events/sec, wall time, and peak RSS.  Committing that
snapshot gives future sessions a concrete number to regress against
rather than a feeling that "it used to be faster".

Each workload returns the number of engine events it dispatched (or a
comparable unit-of-work count) so throughput can be reported as
events/sec.  Wall times report both the minimum and the mean over the
measured rounds; the minimum is the more stable number on a noisy
machine and is what regression comparisons should use.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .cache import CacheEntry, CacheStore
from .clients import ClientFleet
from .core import CacheMode, SwalaCluster, SwalaConfig
from .hosts import Machine
from .net import LAN_100MBIT, Network
from .sim import ProcessorSharing, Simulator
from .workload import zipf_cgi_trace

__all__ = [
    "BenchResult",
    "BENCH_WORKLOADS",
    "bench_event_dispatch",
    "bench_processor_sharing",
    "bench_cache_store",
    "bench_full_request_path",
    "bench_streaming_telemetry",
    "bench_eviction_sweep",
    "bench_broadcast_storm",
    "bench_directory_sync",
    "bench_directory_sync_digest",
    "bench_directory_sync_bloom",
    "run_bench",
    "write_bench_report",
    "compare_with_snapshot",
]


# --------------------------------------------------------------------------
# Workloads.  Keep these small, deterministic, and dependency-free: they are
# imported by the pytest-benchmark suite and must produce the same answers
# under either harness.
# --------------------------------------------------------------------------


def bench_event_dispatch(n_events: int = 20_000) -> int:
    """Core event-loop throughput: schedule + dispatch a timeout chain."""
    sim = Simulator()

    def ticker():
        for _ in range(n_events):
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run()
    assert sim.now == n_events
    return sim.ticks


def bench_processor_sharing(n_jobs: int = 600) -> int:
    """Reschedule-heavy PS workload (staggered arrivals and overlaps)."""
    sim = Simulator()
    cpu = ProcessorSharing(sim, ncpus=1, name="bench.cpu")
    finished = []

    def job(i):
        yield sim.timeout(i * 0.01)
        yield cpu.execute(0.5)
        finished.append(i)

    for i in range(n_jobs):
        sim.process(job(i))
    sim.run()
    assert len(finished) == n_jobs
    return sim.ticks


def bench_cache_store(n_ops: int = 5_000) -> int:
    """Insert/evict/access churn through the store + LRU policy + FS."""
    fs = Machine(Simulator(), "m").fs
    store = CacheStore(fs, capacity=64, policy="lru")
    for i in range(n_ops):
        store.insert(
            CacheEntry(url=f"/u{i % 200}", owner="m", size=1_000,
                       exec_time=1.0, created=float(i)),
            float(i),
        )
        if i % 3 == 0 and f"/u{i % 200}" in store:
            store.record_access(f"/u{i % 200}", float(i))
    assert len(store) == 64
    return n_ops


def bench_full_request_path(n_requests: int = 400) -> int:
    """End-to-end requests through the whole stack (2-node coop cluster)."""
    sim = Simulator()
    cluster = SwalaCluster(sim, 2, SwalaConfig(mode=CacheMode.COOPERATIVE))
    cluster.start()
    trace = zipf_cgi_trace(n_requests, 50, cpu_time_mean=0.05, seed=0)
    fleet = ClientFleet(
        sim, cluster.network, trace, servers=cluster.node_names, n_threads=8
    )
    times = fleet.run()
    assert times.count == n_requests
    return sim.ticks


def bench_streaming_telemetry(n_requests: int = 400) -> int:
    """A/B twin of :func:`bench_full_request_path` with windowed
    streaming telemetry attached: the wall-clock delta between the two
    is the per-event cost of window sampling.  The streaming-off path
    pays only an ``is None`` check, so ``full_request_path`` itself must
    not move when this workload is added or changed."""
    from .obs.streaming import StreamingTelemetry

    sim = Simulator()
    cluster = SwalaCluster(sim, 2, SwalaConfig(mode=CacheMode.COOPERATIVE))
    cluster.start()
    telemetry = StreamingTelemetry(window=1.0)
    telemetry.new_run()
    cluster.attach_streaming(telemetry)
    trace = zipf_cgi_trace(n_requests, 50, cpu_time_mean=0.05, seed=0)
    fleet = ClientFleet(
        sim, cluster.network, trace, servers=cluster.node_names, n_threads=8
    )
    times = fleet.run()
    telemetry.finalize()
    assert times.count == n_requests
    assert sum(w.completions for w in telemetry.windows) == n_requests
    return sim.ticks


def _eviction_churn(policy: str, n_ops: int, capacity: int) -> int:
    """Insert-dominated churn: most ops evict, so victim selection is the
    bottleneck (O(log n) with the heap index, O(capacity) with a scan)."""
    fs = Machine(Simulator(), "m").fs
    store = CacheStore(fs, capacity=capacity, policy=policy)
    span = capacity * 4  # url space >> capacity: inserts keep missing
    for i in range(n_ops):
        url = f"/e{(i * 7919) % span}"
        if url in store:
            store.record_access(url, float(i))
        else:
            store.insert(
                CacheEntry(url=url, owner="m", size=100 + i % 900,
                           exec_time=0.05 + (i % 40) / 100.0,
                           created=float(i)),
                float(i),
            )
    assert len(store) == capacity
    return n_ops


_EVICTION_POLICIES = ("lfu", "size", "cost", "fifo")


def bench_eviction_sweep(n_ops: int = 2_000, capacity: int = 512) -> int:
    """Eviction-heavy churn across the four heap-indexed policies."""
    return sum(_eviction_churn(p, n_ops, capacity) for p in _EVICTION_POLICIES)


def bench_broadcast_storm(n_nodes: int = 12, n_updates: int = 150) -> int:
    """N-node directory-update storm through the flattened single-process
    fan-out: every node takes turns broadcasting a 128-byte update to its
    N-1 peers, back to back."""
    sim = Simulator()
    net = Network(sim, latency=0.0001, bandwidth=LAN_100MBIT)
    hosts = [f"n{i}" for i in range(n_nodes)]
    boxes = {h: net.register(h, "update") for h in hosts}
    received = [0]

    def drain(box):
        while True:
            yield box.get()
            received[0] += 1

    for h in hosts:
        sim.process(drain(boxes[h]))

    def driver():
        for k in range(n_updates):
            src = hosts[k % n_nodes]
            dsts = [h for h in hosts if h != src]
            net.broadcast(src, dsts, "update", payload=k, size=128)
            yield sim.timeout(0.001)

    sim.process(driver())
    sim.run()
    assert received[0] == n_updates * (n_nodes - 1)
    return received[0]


def _directory_sync(protocol: str, n_nodes: int = 24,
                    n_requests: int = 900) -> int:
    """Update-heavy cooperative fleet under one dirsync protocol.

    Mostly-unique short CGIs, so nearly every request inserts and the
    directory-sync path (broadcast fan-out vs summary coalescing in
    :mod:`repro.core.dirsync`) dominates the messaging work.  The A/B/C
    triplet shares this workload exactly; only the protocol differs.
    """
    sim = Simulator()
    cluster = SwalaCluster(
        sim, n_nodes,
        SwalaConfig(
            mode=CacheMode.COOPERATIVE,
            directory_protocol=protocol,
            digest_interval=2.0,
            indicator_batch=16,
            indicator_max_delay=2.0,
        ),
    )
    cluster.start()
    trace = zipf_cgi_trace(n_requests, 800, zipf=0.6, cpu_time_mean=0.05,
                           seed=5)
    fleet = ClientFleet(
        sim, cluster.network, trace, servers=cluster.node_names,
        n_threads=n_nodes, n_hosts=4,
    )
    times = fleet.run()
    assert times.count == n_requests
    return sim.ticks


def bench_directory_sync() -> int:
    """Directory churn under the paper's O(N^2) insert broadcast."""
    return _directory_sync("broadcast")


def bench_directory_sync_digest() -> int:
    """A/B twin of :func:`bench_directory_sync` on periodic cache digests."""
    return _directory_sync("digest")


def bench_directory_sync_bloom() -> int:
    """A/B twin of :func:`bench_directory_sync` on batched Bloom deltas."""
    return _directory_sync("bloom")


#: name -> zero-argument workload callable returning an event count.
BENCH_WORKLOADS: Dict[str, Callable[[], int]] = {
    "event_dispatch": bench_event_dispatch,
    "processor_sharing": bench_processor_sharing,
    "cache_store": bench_cache_store,
    "full_request_path": bench_full_request_path,
    "streaming_telemetry": bench_streaming_telemetry,
    "eviction_sweep": bench_eviction_sweep,
    "broadcast_storm": bench_broadcast_storm,
    "directory_sync": bench_directory_sync,
    "directory_sync_digest": bench_directory_sync_digest,
    "directory_sync_bloom": bench_directory_sync_bloom,
}


# --------------------------------------------------------------------------
# Harness.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    name: str
    rounds: int
    events: int
    wall_min_s: float
    wall_mean_s: float
    events_per_sec: float  # events / wall_min_s (min is the stable stat)


def run_bench(
    rounds: int = 5,
    names: Optional[List[str]] = None,
) -> List[BenchResult]:
    """Time each workload for ``rounds`` measured rounds (after one warmup).

    Rounds are *interleaved* across workloads (one round of every
    workload, then the next), not run back to back per workload: on a
    shared machine, slow drift between minute N and minute N+5 would
    otherwise land entirely on whichever workload ran last, which is
    exactly the error an A/B twin comparison cannot tolerate.
    """
    selected = [
        (name, fn)
        for name, fn in BENCH_WORKLOADS.items()
        if not names or name in names
    ]
    events: Dict[str, int] = {}
    walls: Dict[str, List[float]] = {name: [] for name, _ in selected}
    for name, fn in selected:  # warmup; also captures the event counts
        events[name] = fn()
    for _ in range(rounds):
        for name, fn in selected:
            t0 = time.perf_counter()
            fn()
            walls[name].append(time.perf_counter() - t0)
    results = []
    for name, _fn in selected:
        wall_min = min(walls[name])
        results.append(
            BenchResult(
                name=name,
                rounds=rounds,
                events=events[name],
                wall_min_s=wall_min,
                wall_mean_s=sum(walls[name]) / len(walls[name]),
                events_per_sec=events[name] / wall_min if wall_min > 0 else 0.0,
            )
        )
    return results


def write_bench_report(
    results: List[BenchResult],
    path: Path,
    reference: Optional[dict] = None,
) -> dict:
    """Serialize a bench run (plus environment info) to ``path``.

    ``reference`` is an optional dict of prior numbers (e.g. the pre-PR
    baseline) stored verbatim under ``"reference"`` so the file is
    self-describing about what it should be compared against.
    """
    # ru_maxrss is KB on Linux, bytes on macOS; normalize to KB.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        maxrss //= 1024
    report = {
        "schema": "repro-bench-v1",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "peak_rss_kb": maxrss,
        "results": [asdict(r) for r in results],
    }
    if reference is not None:
        report["reference"] = reference
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def compare_with_snapshot(
    results: List[BenchResult],
    snapshot: dict,
    threshold: float = 0.25,
) -> Tuple[str, List[str]]:
    """Compare a fresh run against a committed ``BENCH_*.json`` snapshot.

    Returns ``(report_text, regressed_names)``: a workload regresses when
    its fresh events/sec falls more than ``threshold`` (fraction) below
    the snapshot's.  Workloads present on only one side are reported but
    never counted as regressions (new benchmarks must be addable without
    breaking the gate).
    """
    committed = {r["name"]: r for r in snapshot.get("results", [])}
    lines = [
        f"{'benchmark':<24} {'committed ev/s':>14} {'fresh ev/s':>12} "
        f"{'ratio':>7}  status"
    ]
    regressed: List[str] = []
    fresh_names = set()
    for r in results:
        fresh_names.add(r.name)
        base = committed.get(r.name)
        if base is None:
            lines.append(f"{r.name:<24} {'-':>14} {r.events_per_sec:>12,.0f} "
                         f"{'-':>7}  new (no baseline)")
            continue
        base_eps = base["events_per_sec"]
        ratio = r.events_per_sec / base_eps if base_eps > 0 else float("inf")
        if ratio < 1.0 - threshold:
            status = f"REGRESSED (> {threshold:.0%} below snapshot)"
            regressed.append(r.name)
        else:
            status = "ok"
        lines.append(
            f"{r.name:<24} {base_eps:>14,.0f} {r.events_per_sec:>12,.0f} "
            f"{ratio:>7.2f}  {status}"
        )
    for name in sorted(set(committed) - fresh_names):
        lines.append(f"{name:<24} {committed[name]['events_per_sec']:>14,.0f} "
                     f"{'-':>12} {'-':>7}  not run")
    return "\n".join(lines), regressed


def render_bench(results: List[BenchResult]) -> str:
    lines = [
        f"{'benchmark':<20} {'rounds':>6} {'events':>8} "
        f"{'min (ms)':>10} {'mean (ms)':>10} {'events/s':>12}"
    ]
    for r in results:
        lines.append(
            f"{r.name:<20} {r.rounds:>6} {r.events:>8} "
            f"{r.wall_min_s * 1e3:>10.2f} {r.wall_mean_s * 1e3:>10.2f} "
            f"{r.events_per_sec:>12,.0f}"
        )
    return "\n".join(lines)
