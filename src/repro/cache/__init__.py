"""Cache substrate: entries, replacement policies, and the on-disk store."""

from .entry import CacheEntry
from .policies import (
    POLICY_NAMES,
    CostPolicy,
    FIFOPolicy,
    GreedyDualSizePolicy,
    LFUPolicy,
    LRUPolicy,
    ReplacementPolicy,
    SizePolicy,
    make_policy,
)
from .store import CacheStore

__all__ = [
    "CacheEntry",
    "CacheStore",
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
