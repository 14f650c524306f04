"""Differential tests: heap-indexed policies vs their O(n) scan twins.

The heap-backed LFU/SIZE/COST/FIFO policies must pick *byte-identical*
victims to the straight ``min()`` scan over ``(key(e), e.url)`` for any
interleaving of inserts, accesses, removals and evictions — including
ties, which break on the URL.  The strategies below deliberately draw
sizes, exec times and timestamps from tiny domains so key collisions
(and hence URL tie-breaks) are common, not corner cases.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache import CacheEntry, make_policy
from tests.cache.scan_policies import SCAN_POLICIES, make_scan_policy

INDEXED = ("lfu", "size", "cost", "fifo")

# Small domains on purpose: with only a handful of distinct sizes, costs
# and clock values, (key, url) ties are frequent.
urls = st.integers(min_value=0, max_value=20).map(lambda i: f"/cgi-bin/u?{i}")
sizes = st.sampled_from([10, 10, 250, 4_000])
exec_times = st.sampled_from([0.5, 0.5, 2.0, 30.0])
clocks = st.integers(min_value=0, max_value=4).map(float)

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "access", "access", "remove", "evict", "evict"]),
        urls,
        sizes,
        exec_times,
        clocks,
    ),
    min_size=1,
    max_size=150,
)


def drive(name, operations):
    """Run one op sequence through a heap policy and its scan twin."""
    heap = make_policy(name)
    scan = make_scan_policy(name)
    tracked = {}
    for op, url, size, exec_time, t in operations:
        if op == "insert":
            if url in tracked:
                continue
            e = CacheEntry(url=url, owner="n0", size=size, exec_time=exec_time, created=t)
            tracked[url] = e
            heap.on_insert(e, t)
            scan.on_insert(e, t)
        elif op == "access":
            e = tracked.get(url)
            if e is None:
                continue
            # The store's contract: mutate the entry, then notify.
            e.touch(t)
            heap.on_access(e, t)
            scan.on_access(e, t)
        elif op == "remove":
            e = tracked.pop(url, None)
            if e is None:
                continue
            heap.on_remove(e)
            scan.on_remove(e)
        else:  # evict
            if not tracked:
                continue
            v_heap = heap.victim()
            v_scan = scan.victim()
            assert v_heap is v_scan, (
                f"{name}: heap evicts {v_heap.url!r}, scan evicts {v_scan.url!r}"
            )
            del tracked[v_heap.url]
            heap.on_remove(v_heap)
            scan.on_remove(v_scan)
        assert len(heap) == len(scan) == len(tracked)
    return heap, scan, tracked


class TestHeapMatchesScan:
    @pytest.mark.parametrize("name", INDEXED)
    @given(operations=ops)
    @settings(max_examples=60, deadline=None)
    def test_identical_victims(self, name, operations):
        heap, scan, tracked = drive(name, operations)
        if tracked:  # final victim agrees too
            assert heap.victim() is scan.victim()

    @pytest.mark.parametrize("name", INDEXED)
    @given(operations=ops)
    @settings(max_examples=20, deadline=None)
    def test_drain_in_identical_order(self, name, operations):
        """Evicting everything yields the same total order from both."""
        heap, scan, tracked = drive(name, operations)
        order_heap = []
        while len(heap):
            v_heap = heap.victim()
            v_scan = scan.victim()
            assert v_heap is v_scan
            order_heap.append(v_heap.url)
            heap.on_remove(v_heap)
            scan.on_remove(v_scan)
        assert len(scan) == 0
        assert len(order_heap) == len(tracked)


class TestDirected:
    def test_scan_registry(self):
        assert set(SCAN_POLICIES) == {f"{n}-scan" for n in INDEXED}
        for name in INDEXED:
            assert make_scan_policy(name).name == f"{name}-scan"
            assert make_scan_policy(name)._key.__func__ is (
                make_policy(name)._key.__func__
            )

    @pytest.mark.parametrize("name", INDEXED)
    def test_url_breaks_exact_key_tie(self, name):
        """Identical keys on every dimension -> lexicographically smallest URL."""
        heap = make_policy(name)
        scan = make_scan_policy(name)
        entries = [
            CacheEntry(url=u, owner="n0", size=64, exec_time=1.0, created=0.0)
            for u in ("/b", "/c", "/a")
        ]
        for e in entries:
            heap.on_insert(e, 0.0)
            scan.on_insert(e, 0.0)
        assert heap.victim().url == "/a"
        assert heap.victim() is scan.victim()

    def test_heap_stays_bounded_under_access_storm(self):
        """Lazy invalidation must not let the heap grow without bound."""
        p = make_policy("lfu")
        entries = [
            CacheEntry(url=f"/u{i}", owner="n0", size=64, exec_time=1.0, created=0.0)
            for i in range(8)
        ]
        for e in entries:
            p.on_insert(e, 0.0)
        for t in range(2_000):
            e = entries[t % len(entries)]
            e.touch(float(t))
            p.on_access(e, float(t))
        assert len(p._heap) <= 2 * len(entries) + 64 + 1
        # ... and correctness survives the compactions.
        assert p.victim() is min(entries, key=lambda e: (e.access_count, e.last_access, e.url))

    def test_access_after_remove_is_ignored(self):
        """A stray on_access for an untracked entry must not resurrect it."""
        p = make_policy("lfu")
        a = CacheEntry(url="/a", owner="n0", size=64, exec_time=1.0, created=0.0)
        b = CacheEntry(url="/b", owner="n0", size=64, exec_time=1.0, created=0.0)
        p.on_insert(a, 0.0)
        p.on_insert(b, 0.0)
        p.on_remove(a)
        a.touch(1.0)
        p.on_access(a, 1.0)
        assert len(p) == 1
        assert p.victim() is b
