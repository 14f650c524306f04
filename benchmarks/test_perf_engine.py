"""Performance microbenchmarks of the simulation substrate itself.

Unlike the table/figure benchmarks (one-shot experiment regeneration),
these measure the engine's raw throughput across repeated rounds — useful
for catching performance regressions in the hot paths every experiment
exercises: event dispatch, processor-sharing rescheduling, cache-store
churn, and full request round-trips.

Each workload asserts its own correctness internally and returns the
number of engine events it dispatched (or a comparable unit-of-work
count).  Timing and baseline comparison come from pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py --benchmark-autosave
    PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py \\
        --benchmark-compare --benchmark-compare-fail=min:25%
"""

from repro.cache import CacheEntry, CacheStore
from repro.clients import ClientFleet
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.hosts import Machine
from repro.net import LAN_100MBIT, Network
from repro.obs.streaming import StreamingTelemetry
from repro.sim import ProcessorSharing, Simulator
from repro.workload import zipf_cgi_trace


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


def _two_node_fleet(n_requests, telemetry=None) -> int:
    """Zipf CGI requests through a 2-node cooperative cluster."""
    sim = Simulator()
    cluster = SwalaCluster(sim, 2, SwalaConfig(mode=CacheMode.COOPERATIVE))
    cluster.start()
    if telemetry is not None:
        telemetry.new_run()
        cluster.attach_streaming(telemetry)
    trace = zipf_cgi_trace(n_requests, 50, cpu_time_mean=0.05, seed=0)
    fleet = ClientFleet(
        sim, cluster.network, trace, servers=cluster.node_names, n_threads=8
    )
    times = fleet.run()
    assert times.count == n_requests
    return sim.ticks


def bench_full_request_path(n_requests: int = 400) -> int:
    """End-to-end requests through the whole stack (2-node coop cluster)."""
    return _two_node_fleet(n_requests)


def bench_streaming_telemetry(n_requests: int = 400) -> int:
    """A/B twin of :func:`bench_full_request_path` with windowed
    streaming telemetry attached: the wall-clock delta between the two
    is the per-event cost of window sampling."""
    telemetry = StreamingTelemetry(window=1.0)
    ticks = _two_node_fleet(n_requests, telemetry)
    telemetry.finalize()
    assert sum(w.completions for w in telemetry.windows) == n_requests
    return ticks


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


def bench_eviction_sweep(n_ops: int = 2_000, capacity: int = 512) -> int:
    """Eviction-heavy churn across the four heap-indexed policies."""
    return sum(
        _eviction_churn(p, n_ops, capacity)
        for p in ("lfu", "size", "cost", "fifo")
    )


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
    :mod:`repro.core.dirsync`) dominates the messaging work.  The three
    directory-sync benchmarks share this workload exactly; only the
    protocol differs.
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


def test_perf_event_dispatch(benchmark):
    """Throughput of the core event loop (timeout schedule + dispatch)."""
    assert benchmark(bench_event_dispatch) > 0


def test_perf_processor_sharing(benchmark):
    """Reschedule-heavy PS workload (staggered arrivals/overlaps)."""
    assert benchmark(bench_processor_sharing) > 0


def test_perf_cache_store(benchmark):
    """Insert/evict/access churn through the store + LRU policy + FS."""
    assert benchmark(bench_cache_store) == 5_000


def test_perf_full_request_path(benchmark):
    """End-to-end requests/second through the whole stack (2-node coop)."""
    assert benchmark(bench_full_request_path) > 0


def test_perf_streaming_telemetry(benchmark):
    """The same 2-node request path with streaming telemetry attached."""
    assert benchmark(bench_streaming_telemetry) > 0


def test_perf_eviction_sweep(benchmark):
    """Insert-dominated churn through the heap-indexed LFU/SIZE/COST/FIFO."""
    assert benchmark(bench_eviction_sweep) == 8_000


def test_perf_broadcast_storm(benchmark):
    """12-node directory-update storm through the flattened broadcast."""
    assert benchmark(bench_broadcast_storm) > 0


def test_perf_directory_sync(benchmark):
    """Update-heavy cooperative fleet under the insert broadcast."""
    assert benchmark(_directory_sync, "broadcast") > 0


def test_perf_directory_sync_digest(benchmark):
    """Same fleet syncing directories with periodic cache digests."""
    assert benchmark(_directory_sync, "digest") > 0


def test_perf_directory_sync_bloom(benchmark):
    """Same fleet syncing directories with batched Bloom deltas."""
    assert benchmark(_directory_sync, "bloom") > 0
