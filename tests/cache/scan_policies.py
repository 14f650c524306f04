"""O(n) scan twins of the heap-indexed replacement policies.

Executable specifications, not simulator code: each twin picks the
minimum of the same key mixin over every tracked entry, with the URL as
tie-break.  The differential tests drive a heap policy and its twin
with identical operation sequences and assert identical victims; the
end-to-end determinism test swaps a twin into the policy registry with
``monkeypatch`` and expects identical run statistics.
"""

from typing import Dict

from repro.cache import CacheEntry, ReplacementPolicy
from repro.cache.policies import _CostKey, _FIFOKey, _LFUKey, _SizeKey


class _ScanPolicy(ReplacementPolicy):
    """Base for policies that pick the minimum of a key over all entries."""

    def __init__(self):
        self._entries: Dict[str, CacheEntry] = {}

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        self._entries[entry.url] = entry

    def on_access(self, entry: CacheEntry, now: float) -> None:
        pass

    def on_remove(self, entry: CacheEntry) -> None:
        self._entries.pop(entry.url, None)

    def _key(self, entry: CacheEntry):
        raise NotImplementedError

    def victim(self) -> CacheEntry:
        return min(self._entries.values(), key=lambda e: (self._key(e), e.url))

    def __len__(self) -> int:
        return len(self._entries)


class ScanLFUPolicy(_LFUKey, _ScanPolicy):
    name = "lfu-scan"


class ScanSizePolicy(_SizeKey, _ScanPolicy):
    name = "size-scan"


class ScanCostPolicy(_CostKey, _ScanPolicy):
    name = "cost-scan"


class ScanFIFOPolicy(_FIFOKey, _ScanPolicy):
    name = "fifo-scan"


#: name -> twin class, in the shape of ``repro.cache.policies._POLICIES``.
SCAN_POLICIES = {
    cls.name: cls
    for cls in (ScanLFUPolicy, ScanSizePolicy, ScanCostPolicy, ScanFIFOPolicy)
}


def make_scan_policy(name: str) -> ReplacementPolicy:
    """The scan twin of heap policy ``name`` (e.g. ``"lfu"``)."""
    return SCAN_POLICIES[f"{name}-scan"]()
