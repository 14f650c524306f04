"""The replicated cache directory (paper §4.1–4.2).

Every node holds one *table per cluster node*; table ``n`` describes what
node ``n`` currently caches.  The node's own table is authoritative; peer
tables are asynchronously maintained replicas fed by insert/delete
broadcasts — which is exactly why false hits and false misses exist.

Intra-node consistency (§4.2) offers three locking granularities:

* ``DIRECTORY`` — one reader/writer lock over all tables: maximal
  contention between request threads and the update daemon;
* ``TABLE`` — one reader/writer lock per table (Swala's choice): lookups
  take one read lock per table they scan;
* ``ENTRY`` — per-entry locks: no blocking to speak of, but a lookup pays a
  lock/unlock CPU cost proportional to the entries scanned ("every added
  server would increase the number of locks & unlocks on lookup by the
  cache size"), which is what the ablation benchmark measures.

All operations are generators that charge lock waits and CPU on the owning
machine; drive them with ``yield from``.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..cache import CacheEntry
from ..hosts import Machine
from ..sim import RWLock
from .config import LockingGranularity

__all__ = ["CacheDirectory"]


class CacheDirectory:
    """One node's view of what everyone caches."""

    def __init__(
        self,
        machine: Machine,
        my_name: str,
        node_names: List[str],
        locking: LockingGranularity = LockingGranularity.TABLE,
    ):
        if my_name not in node_names:
            raise ValueError(f"{my_name!r} not among cluster nodes {node_names}")
        self.machine = machine
        self.sim = machine.sim
        self.my_name = my_name
        #: Scan order: own table first, then peers (stable order).
        self.node_order = [my_name] + [n for n in node_names if n != my_name]
        self.locking = locking
        self._tables: Dict[str, Dict[str, CacheEntry]] = {
            n: {} for n in node_names
        }
        if locking is LockingGranularity.DIRECTORY:
            shared = RWLock(self.sim, name=f"{my_name}.dir")
            self._locks = {n: shared for n in node_names}
        else:
            self._locks = {
                n: RWLock(self.sim, name=f"{my_name}.tbl[{n}]") for n in node_names
            }
        self.lookups = 0
        # Hot-path constants: ``MachineCosts`` is frozen, so each is the
        # same double the per-call expression would give.
        costs = machine.costs
        #: Whether operations take the table/directory lock (all but ENTRY).
        self._blocking = locking is not LockingGranularity.ENTRY
        #: Scan CPU of one table under the single table/directory lock.
        self._table_scan_cpu = costs.directory_lookup_cpu + costs.lock_op_cpu
        write_cpu = costs.directory_update_cpu
        if not self._blocking:
            write_cpu += costs.lock_op_cpu
        #: CPU of one directory update.
        self._write_cpu = write_cpu

    # -- introspection ------------------------------------------------------
    def table(self, node: str) -> Dict[str, CacheEntry]:
        return self._tables[node]

    def table_sizes(self) -> Dict[str, int]:
        return {n: len(t) for n, t in self._tables.items()}

    def lock(self, node: str) -> RWLock:
        return self._locks[node]

    def locks(self) -> List[RWLock]:
        """The distinct lock objects, name-ordered (DIRECTORY granularity
        shares one lock across all tables; dedup by identity)."""
        unique = {id(l): l for l in self._locks.values()}
        return sorted(unique.values(), key=lambda l: l.name)

    def total_lock_waits(self) -> float:
        locks = set(self._locks.values())
        return sum(l.wait_time for l in locks)

    # -- charged operations -----------------------------------------------------
    def lookup(self, url: str, now: float) -> Generator:
        """Process: find a live entry for ``url``; returns it or ``None``.

        Scans the local table first, then peer replicas, taking a read lock
        per table (except ENTRY granularity, which only pays CPU).  Expired
        entries are treated as absent.
        """
        self.lookups += 1
        compute = self.machine.compute
        tables = self._tables
        if self._blocking:
            locks = self._locks
            scan_cpu = self._table_scan_cpu
            for node in self.node_order:
                lock = locks[node]
                yield lock.acquire_read()
                try:
                    yield compute(scan_cpu)
                    entry = tables[node].get(url)
                finally:
                    lock.release_read()
                if entry is not None and not entry.expired(now):
                    return entry
        else:
            # ENTRY: a lock/unlock pair per entry touched along the probe.
            costs = self.machine.costs
            for node in self.node_order:
                table = tables[node]
                yield compute(costs.directory_lookup_cpu
                              + costs.lock_op_cpu * max(1, len(table)))
                entry = table.get(url)
                if entry is not None and not entry.expired(now):
                    return entry
        return None

    def _write(self, node: str) -> Generator:
        """Process fragment: charge one write-locked directory update."""
        if not self._blocking:
            yield self.machine.compute(self._write_cpu)
            return
        lock = self._locks[node]
        yield lock.acquire_write()
        try:
            yield self.machine.compute(self._write_cpu)
        finally:
            lock.release_write()

    def insert(self, entry: CacheEntry) -> Generator:
        """Process: record ``entry`` in the owner's table."""
        yield from self._write(entry.owner)
        self._tables[entry.owner][entry.url] = entry

    def delete(self, url: str, owner: str) -> Generator:
        """Process: drop ``url`` from ``owner``'s table; returns whether it
        was present."""
        yield from self._write(owner)
        return self._tables[owner].pop(url, None) is not None

    def charge_local_update(self) -> Generator:
        """Process: the cost of one write-locked update to the local table
        (the caller mutates the shared entry object itself — the store and
        the local table reference the same :class:`CacheEntry`)."""
        yield from self._write(self.my_name)

    def has_elsewhere(self, url: str) -> bool:
        """True if any *peer* table holds ``url`` (false-miss detection)."""
        return any(
            url in self._tables[node]
            for node in self.node_order
            if node != self.my_name
        )

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(t)}" for n, t in self._tables.items())
        return f"<CacheDirectory of {self.my_name!r} [{sizes}]>"
