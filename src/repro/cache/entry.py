"""Cache entry metadata (what Swala keeps in its in-memory directory)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CacheEntry"]


@dataclass(slots=True)
class CacheEntry:
    """Meta-data for one cached CGI result.

    The result body itself lives in a per-entry file on the owner node's
    filesystem (``file_path``); only this record is replicated into peer
    directories.  Slotted: entries are minted on every insert and every
    broadcast, so instance dicts are measurable overhead.

    Only the owner's store entry is mutable (:meth:`touch`, through
    ``CacheStore.record_access``); peer tables share the broadcast's
    read-only snapshot (:meth:`replica`).
    """

    url: str
    owner: str
    size: int
    exec_time: float
    created: float
    ttl: float = math.inf
    file_path: str = ""
    access_count: int = 0
    last_access: float = field(default=-math.inf)

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative entry size for {self.url!r}")
        if self.exec_time < 0:
            raise ValueError(f"negative exec time for {self.url!r}")
        if self.ttl <= 0:
            raise ValueError(f"TTL must be positive for {self.url!r}")
        # Intern the URL: entries for the same URL are created over and
        # over (inserts and their broadcast snapshots), and every store /
        # directory / policy structure keys on it.  Interned keys make
        # those dict hits pointer comparisons.
        self.url = sys.intern(self.url)
        if not self.file_path:
            self.file_path = f"/cache/{abs(hash(self.url)) :x}-{self.owner}"
        if self.last_access == -math.inf:
            self.last_access = self.created

    @property
    def expires_at(self) -> float:
        return self.created + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def touch(self, now: float) -> None:
        """Record a hit (the owner updates meta-data after each fetch)."""
        self.access_count += 1
        self.last_access = now

    def replica(self) -> "CacheEntry":
        """A read-only snapshot for peers' directory tables.

        The owner takes one per insert broadcast, and every receiver
        installs that same object, so it must not be mutated: later
        hits on the owner touch the owner's store entry, not this copy.
        """
        return CacheEntry(
            url=self.url,
            owner=self.owner,
            size=self.size,
            exec_time=self.exec_time,
            created=self.created,
            ttl=self.ttl,
            file_path=self.file_path,
            access_count=self.access_count,
            last_access=self.last_access,
        )
