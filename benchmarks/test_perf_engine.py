"""Performance microbenchmarks of the simulation substrate itself.

Unlike the table/figure benchmarks (one-shot experiment regeneration),
these measure the engine's raw throughput across repeated rounds — useful
for catching performance regressions in the hot paths every experiment
exercises: event dispatch, processor-sharing rescheduling, cache-store
churn, and full request round-trips.

The workload bodies live in ``repro.bench`` so ``repro bench`` (the
pytest-free baseline snapshot CLI) times exactly the same code.  Each
workload asserts its own correctness internally and returns the number
of events it dispatched.
"""

from repro.bench import (
    bench_broadcast_storm,
    bench_cache_store,
    bench_directory_sync,
    bench_directory_sync_bloom,
    bench_directory_sync_digest,
    bench_event_dispatch,
    bench_eviction_sweep,
    bench_full_request_path,
    bench_processor_sharing,
)


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


def test_perf_eviction_sweep(benchmark):
    """Insert-dominated churn through the heap-indexed LFU/SIZE/COST/FIFO."""
    assert benchmark(bench_eviction_sweep) == 8_000


def test_perf_broadcast_storm(benchmark):
    """12-node directory-update storm through the flattened broadcast."""
    assert benchmark(bench_broadcast_storm) > 0


def test_perf_directory_sync(benchmark):
    """Update-heavy cooperative fleet under the insert broadcast."""
    assert benchmark(bench_directory_sync) > 0


def test_perf_directory_sync_digest(benchmark):
    """Same fleet syncing directories with periodic cache digests."""
    assert benchmark(bench_directory_sync_digest) > 0


def test_perf_directory_sync_bloom(benchmark):
    """Same fleet syncing directories with batched Bloom deltas."""
    assert benchmark(bench_directory_sync_bloom) > 0
