"""Cache replacement policies.

The paper implements five replacement methods in Swala (§3 refers to the
companion technical report; the dimensions it names are "execution time,
access frequency, time of access, size etc.").  We provide the five natural
instantiations plus the GreedyDual-Size policy of Cao & Irani — the
cost-aware algorithm the paper cites as related work ([5]):

* ``LRU``   — evict the least recently used entry;
* ``LFU``   — evict the least frequently used entry;
* ``SIZE``  — evict the largest entry (keep many small results);
* ``COST``  — evict the cheapest-to-regenerate entry (lowest exec time);
* ``GDS``   — GreedyDual-Size with cost = exec time (combines recency,
  regeneration cost and size);
* ``FIFO``  — evict the oldest insertion (baseline).

All policies expose the same three hooks so the store can drive them
uniformly; ties break on the URL for determinism.

LFU/SIZE/COST/FIFO are backed by a lazy-invalidation heap index
(:class:`_HeapPolicy`): victim selection is O(log n) and access
bookkeeping O(1) amortized.  The test suite keeps straight O(n) scan
twins over the same key mixins as the differential-testing reference —
a heap policy must pick byte-identical victims to its scan twin over any
operation sequence.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Optional

from .entry import CacheEntry

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "SizePolicy",
    "CostPolicy",
    "GreedyDualSizePolicy",
    "FIFOPolicy",
    "make_policy",
    "POLICY_NAMES",
]


class ReplacementPolicy:
    """Interface: notified of inserts/accesses/removals, picks victims."""

    name = "abstract"

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        raise NotImplementedError

    def on_access(self, entry: CacheEntry, now: float) -> None:
        raise NotImplementedError

    def on_remove(self, entry: CacheEntry) -> None:
        raise NotImplementedError

    def victim(self) -> CacheEntry:
        """The entry to evict next.  Undefined when the policy is empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} tracking={len(self)}>"


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used, O(1) via an ordered dict."""

    name = "lru"

    def __init__(self):
        self._order: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        # The store removes before re-inserting, so this is always a fresh
        # key — and a fresh OrderedDict insert already lands at the end.
        self._order[entry.url] = entry

    def on_access(self, entry: CacheEntry, now: float) -> None:
        self._order.move_to_end(entry.url)

    def on_remove(self, entry: CacheEntry) -> None:
        self._order.pop(entry.url, None)

    def victim(self) -> CacheEntry:
        url = next(iter(self._order))
        return self._order[url]

    def __len__(self) -> int:
        return len(self._order)


class _HeapPolicy(ReplacementPolicy):
    """Min-of-a-key policy backed by a lazy-invalidation heap.

    The heap holds ``(key, url)`` pairs; ``_current`` maps each tracked
    URL to its *latest* pushed key.  A heap item whose key no longer
    matches ``_current`` is stale and skipped (popped) during victim
    selection.  Because the entry fields a key reads (``access_count``,
    ``last_access``) only mutate immediately before an ``on_access``
    notification, ``_current`` always reflects live field values, and the
    heap minimum over non-stale items equals the scan minimum of
    ``(key(e), e.url)`` — identical victims, identical tie-breaking.

    The heap is compacted (rebuilt from ``_current``) once stale items
    dominate, bounding it at O(live entries).
    """

    #: Entry fields changed by ``on_access`` feed the key, so each access
    #: pushes a fresh item.  Subclasses with immutable keys override.
    _key_mutates_on_access = True

    def __init__(self):
        self._entries: Dict[str, CacheEntry] = {}
        self._current: Dict[str, tuple] = {}
        self._heap: list = []  # (key, url); stale items skipped lazily

    def _key(self, entry: CacheEntry):
        raise NotImplementedError

    def _push(self, entry: CacheEntry) -> None:
        key = self._key(entry)
        self._current[entry.url] = key
        heapq.heappush(self._heap, (key, entry.url))
        if len(self._heap) > 2 * len(self._entries) + 64:
            self._compact()

    def _compact(self) -> None:
        self._heap = [(key, url) for url, key in self._current.items()]
        heapq.heapify(self._heap)

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._entries[entry.url] = entry
        self._push(entry)

    def on_access(self, entry: CacheEntry, now: float) -> None:
        if self._key_mutates_on_access and entry.url in self._entries:
            self._push(entry)

    def on_remove(self, entry: CacheEntry) -> None:
        self._entries.pop(entry.url, None)
        self._current.pop(entry.url, None)

    def victim(self) -> CacheEntry:
        heap = self._heap
        current = self._current
        while heap:
            key, url = heap[0]
            live = current.get(url)
            if live is None or live != key:
                heapq.heappop(heap)  # stale
                continue
            return self._entries[url]
        raise LookupError(f"empty {self.name} policy")

    def __len__(self) -> int:
        return len(self._entries)


class _LFUKey:
    _key_mutates_on_access = True

    def _key(self, entry: CacheEntry):
        return (entry.access_count, entry.last_access)


class _SizeKey:
    _key_mutates_on_access = True

    def _key(self, entry: CacheEntry):
        return (-entry.size, entry.last_access)


class _CostKey:
    _key_mutates_on_access = True

    def _key(self, entry: CacheEntry):
        return (entry.exec_time, entry.last_access)


class _FIFOKey:
    _key_mutates_on_access = False  # insertion time never changes

    def _key(self, entry: CacheEntry):
        return entry.created


class LFUPolicy(_LFUKey, _HeapPolicy):
    """Evict the entry with the fewest accesses (recency breaks ties)."""

    name = "lfu"


class SizePolicy(_SizeKey, _HeapPolicy):
    """Evict the largest entry first (negated size as the minimum key)."""

    name = "size"


class CostPolicy(_CostKey, _HeapPolicy):
    """Evict the entry that is cheapest to re-execute."""

    name = "cost"


class FIFOPolicy(_FIFOKey, _HeapPolicy):
    """Evict the oldest insertion."""

    name = "fifo"


class GreedyDualSizePolicy(ReplacementPolicy):
    """GreedyDual-Size (Cao & Irani, USITS '97) with cost = exec time.

    Each entry carries credit ``H = L + cost / size``; hits refresh the
    credit; eviction takes the minimum ``H`` and raises the inflation
    floor ``L`` to it.  Implemented with a heap and lazy invalidation
    (compacted like :class:`_HeapPolicy` so stale items cannot pile up).
    """

    name = "gds"

    def __init__(self):
        self._h: Dict[str, float] = {}
        self._entries: Dict[str, CacheEntry] = {}
        self._heap: list = []  # (H, url)
        self.inflation = 0.0  # L

    def _credit(self, entry: CacheEntry) -> float:
        size = max(entry.size, 1)
        return self.inflation + entry.exec_time / size

    def _push(self, entry: CacheEntry) -> None:
        h = self._credit(entry)
        self._h[entry.url] = h
        self._entries[entry.url] = entry
        heapq.heappush(self._heap, (h, entry.url))
        if len(self._heap) > 2 * len(self._entries) + 64:
            self._heap = [(h, url) for url, h in self._h.items()]
            heapq.heapify(self._heap)

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._push(entry)

    def on_access(self, entry: CacheEntry, now: float) -> None:
        if entry.url in self._entries:
            self._push(entry)  # refresh credit; stale heap items are skipped

    def on_remove(self, entry: CacheEntry) -> None:
        self._h.pop(entry.url, None)
        self._entries.pop(entry.url, None)

    def victim(self) -> CacheEntry:
        while self._heap:
            h, url = self._heap[0]
            current = self._h.get(url)
            if current is None or current != h:
                heapq.heappop(self._heap)  # stale
                continue
            self.inflation = h
            return self._entries[url]
        raise LookupError("empty GreedyDual-Size policy")

    def __len__(self) -> int:
        return len(self._entries)


_POLICIES = {
    cls.name: cls
    for cls in (
        LRUPolicy,
        LFUPolicy,
        SizePolicy,
        CostPolicy,
        GreedyDualSizePolicy,
        FIFOPolicy,
    )
}

POLICY_NAMES = tuple(sorted(_POLICIES))


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (see ``POLICY_NAMES``)."""
    cls = _POLICIES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    return cls()
