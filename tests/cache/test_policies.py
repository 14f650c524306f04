"""Unit tests for the replacement policies."""

import pytest

from repro.cache import (
    POLICY_NAMES,
    CacheEntry,
    CostPolicy,
    FIFOPolicy,
    GreedyDualSizePolicy,
    LFUPolicy,
    LRUPolicy,
    SizePolicy,
    make_policy,
)


def entry(url, created=0.0, size=100, exec_time=1.0):
    return CacheEntry(url=url, owner="n0", size=size, exec_time=exec_time, created=created)


class TestFactory:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_name(self):
        # "lfu-scan" named a scan twin that now lives only in the tests;
        # a config file can still name it.
        for name in ("belady", "lfu-scan"):
            with pytest.raises(ValueError):
                make_policy(name)

    def test_expected_names(self):
        assert set(POLICY_NAMES) == {"lru", "lfu", "size", "cost", "gds", "fifo"}


class TestLRU:
    def test_evicts_least_recently_used(self):
        p = LRUPolicy()
        a, b, c = entry("/a"), entry("/b"), entry("/c")
        for t, e in enumerate((a, b, c)):
            p.on_insert(e, float(t))
        p.on_access(a, 10.0)
        assert p.victim() is b

    def test_remove_untracks(self):
        p = LRUPolicy()
        a, b = entry("/a"), entry("/b")
        p.on_insert(a, 0)
        p.on_insert(b, 1)
        p.on_remove(a)
        assert len(p) == 1
        assert p.victim() is b


class TestLFU:
    def test_evicts_least_frequent(self):
        p = LFUPolicy()
        a, b = entry("/a"), entry("/b")
        p.on_insert(a, 0)
        p.on_insert(b, 0)
        # Accesses go through the hook, as the store does (touch then
        # on_access) — the heap index relies on being notified.
        for t in (1.0, 2.0):
            a.touch(t)
            p.on_access(a, t)
        b.touch(3.0)
        p.on_access(b, 3.0)
        assert p.victim() is b

    def test_recency_breaks_ties(self):
        p = LFUPolicy()
        a, b = entry("/a"), entry("/b")
        p.on_insert(a, 0)
        p.on_insert(b, 0)
        a.touch(5.0)
        p.on_access(a, 5.0)
        b.touch(9.0)
        p.on_access(b, 9.0)
        assert p.victim() is a


class TestSize:
    def test_evicts_largest(self):
        p = SizePolicy()
        small, big = entry("/s", size=10), entry("/b", size=10_000)
        p.on_insert(small, 0)
        p.on_insert(big, 0)
        assert p.victim() is big


class TestCost:
    def test_evicts_cheapest_to_regenerate(self):
        p = CostPolicy()
        cheap, dear = entry("/c", exec_time=0.1), entry("/d", exec_time=30.0)
        p.on_insert(cheap, 0)
        p.on_insert(dear, 0)
        assert p.victim() is cheap


class TestFIFO:
    def test_evicts_oldest_insertion(self):
        p = FIFOPolicy()
        old, new = entry("/o", created=0.0), entry("/n", created=5.0)
        p.on_insert(new, 5.0)
        p.on_insert(old, 5.0)
        assert p.victim() is old

    def test_access_does_not_refresh(self):
        p = FIFOPolicy()
        old, new = entry("/o", created=0.0), entry("/n", created=5.0)
        p.on_insert(old, 5.0)
        p.on_insert(new, 5.0)
        p.on_access(old, 100.0)
        assert p.victim() is old


class TestGreedyDualSize:
    def test_prefers_evicting_low_value(self):
        p = GreedyDualSizePolicy()
        # high cost / small size = precious; low cost / big size = victim
        precious = entry("/p", size=100, exec_time=10.0)
        bulky = entry("/b", size=100_000, exec_time=0.1)
        p.on_insert(precious, 0)
        p.on_insert(bulky, 0)
        assert p.victim() is bulky

    def test_access_refreshes_credit(self):
        p = GreedyDualSizePolicy()
        a = entry("/a", size=100, exec_time=1.0)
        b = entry("/b", size=100, exec_time=1.0)
        p.on_insert(a, 0)
        p.on_insert(b, 0)
        # Evict a; inflation rises to a's credit.
        victim = p.victim()
        p.on_remove(victim)
        other = b if victim is a else a
        c = entry("/c", size=100, exec_time=0.001)
        p.on_insert(c, 1)
        # c has almost no credit above inflation -> victim over refreshed other
        p.on_access(other, 1)
        assert p.victim() is c

    def test_inflation_monotone(self):
        p = GreedyDualSizePolicy()
        for i in range(5):
            p.on_insert(entry(f"/{i}", size=100, exec_time=float(i + 1)), 0)
        last = 0.0
        for _ in range(5):
            v = p.victim()
            assert p.inflation >= last
            last = p.inflation
            p.on_remove(v)

    def test_empty_victim_raises(self):
        with pytest.raises(LookupError):
            GreedyDualSizePolicy().victim()

    def test_stale_heap_entries_skipped(self):
        p = GreedyDualSizePolicy()
        a = entry("/a", size=100, exec_time=0.1)
        b = entry("/b", size=100, exec_time=5.0)
        p.on_insert(a, 0)
        p.on_insert(b, 0)
        for _ in range(3):
            p.on_access(a, 1)  # pushes stale heap copies
        p.on_remove(a)
        assert p.victim() is b
