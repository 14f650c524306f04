"""Directory-synchronization strategies (the ``DirectorySync`` seam).

The paper keeps every node's view of the cluster current by broadcasting
each cache insert/delete to all peers (§4.1–4.2).  That is O(N²)
messages per unit time: every node's update rate times N-1 copies.  It
is exact (modulo propagation lag) but collapses long before a rack's
worth of nodes — the NIC and CPU budgets drown in directory traffic.

This module factors the *how do peers learn what I cache?* decision out
of :class:`~repro.core.cacher.CacherModule` into a strategy object with
three implementations:

``broadcast``
    The paper's protocol, verbatim.  This is the default and is
    **bit-identical** to the pre-seam code path: the same events in the
    same order, no extra RNG draws, the same process names.  All
    regression baselines gate on it.

``digest``
    Squid-style cache digests: every ``digest_interval`` seconds a node
    whose cache changed broadcasts a compact summary of its *entire*
    cache (a few bytes per entry instead of a 250-byte record per
    update).  Peers replace their view wholesale, so a digest is
    idempotent and self-repairing.  Between refreshes peers act on a
    stale snapshot — misses fall back to the paper's miss path, false
    hits ride the existing recovery machinery.

``bloom``
    Counting-Bloom-filter indicators maintained by *delta batches*:
    inserts/deletes queue locally and are flushed to peers when
    ``indicator_batch`` updates accumulate or ``indicator_max_delay``
    seconds pass, whichever is first.  A delta record is ~an order of
    magnitude smaller than a full directory record, and batching divides
    the message count by the batch size.  Lookups probe the per-peer
    filters; the configured ``indicator_fp_rate`` bounds the chance that
    a lookup is sent chasing an entry *no* peer ever cached (the
    per-filter rate is deflated by a union bound over the peer count).

Indicator modes also shrink the directory itself: the node keeps only
its *own* authoritative table (peer state lives in the compact
views/filters), so a 1024-node cluster no longer allocates 1024 tables
+ locks per node.

The seam is the ROADMAP item-5 down payment: further strategies (peer
selectors, fetch protocols) can follow the same shape.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..cache import CacheEntry
from .config import SwalaConfig
from .protocol import (
    DELTA_HEADER_BYTES,
    DELTA_RECORD_BYTES,
    DIGEST_BYTES_PER_ENTRY,
    DIGEST_HEADER_BYTES,
    DIRECTORY_UPDATE_BYTES,
    CacheDelete,
    CacheDigest,
    CacheInsert,
    IndicatorDeltas,
)

__all__ = [
    "UPDATE_PORT",
    "DIRECTORY_PROTOCOLS",
    "DirectorySync",
    "BroadcastSync",
    "DigestSync",
    "BloomSync",
    "CountingBloomFilter",
    "make_directory_sync",
]

#: Port every node's update receiver listens on (all three protocols
#: share it; the payload type selects the handler).
UPDATE_PORT = "cache-update"

#: Recognized ``SwalaConfig.directory_protocol`` values.
DIRECTORY_PROTOCOLS = ("broadcast", "digest", "bloom")


class CountingBloomFilter:
    """A counting Bloom filter with deterministic double hashing.

    Counters (not bits) so deletes are supported: an entry that was
    added and not yet removed can never read as absent (no false
    negatives), which is what lets the delete path reuse the filter.

    Hashing is ``zlib.crc32`` double hashing — **never** Python's
    ``hash()``, whose per-process randomization would break the
    simulator's determinism and the serial-vs-``--jobs`` equivalence.
    """

    __slots__ = ("m", "k", "counts", "n_added")

    def __init__(self, capacity: int, fp_rate: float):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not (0.0 < fp_rate < 1.0):
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
        ln2 = math.log(2.0)
        # The optimal-sizing formula is asymptotic in n: at a handful of
        # entries the k probes of one key alone set k/m of the slots —
        # far denser than the Poisson estimate — and the real FP rate
        # blows past the design rate.  Flooring the design capacity
        # over-provisions tiny filters (a few hundred counters) instead.
        capacity = max(capacity, 16)
        ideal_m = max(8, int(math.ceil(-capacity * math.log(fp_rate) / (ln2 * ln2))))
        # Round m up to a power of two: h2 is odd, so every double-hash
        # probe sequence has full period mod m.  With arbitrary m a
        # shared factor between h2 and m collapses the k probes onto a
        # few slots and the real FP rate blows past the design rate.
        self.m = 1 << (ideal_m - 1).bit_length()
        self.k = max(1, round(self.m / capacity * ln2))
        self.counts = bytearray(self.m)
        self.n_added = 0

    def _indexes(self, key: str) -> List[int]:
        data = key.encode("utf-8")
        h1 = zlib.crc32(data)
        h2 = zlib.crc32(data, 0x9E3779B1) | 1  # odd => full period mod m
        # Enhanced double hashing (Dillinger & Manolios): the extra
        # accumulating increment breaks the arithmetic-progression
        # structure of plain h1 + i*h2, whose index sets contain each
        # other far too often at small m (inflating the FP rate).
        out = []
        for i in range(self.k):
            out.append(h1 % self.m)
            h1 += h2
            h2 += i
        return out

    def add(self, key: str) -> None:
        for i in self._indexes(key):
            if self.counts[i] < 255:  # saturate, never wrap
                self.counts[i] += 1
        self.n_added += 1

    def discard(self, key: str) -> bool:
        """Remove one occurrence of ``key``; False if it wasn't present.

        Decrements only when every slot is non-zero, so a spurious
        delete can never drive a live entry's counters to zero."""
        idx = self._indexes(key)
        if not all(self.counts[i] > 0 for i in idx):
            return False
        for i in idx:
            if self.counts[i] < 255:  # saturated slots stay pinned
                self.counts[i] -= 1
        self.n_added = max(0, self.n_added - 1)
        return True

    def __contains__(self, key: str) -> bool:
        return all(self.counts[i] > 0 for i in self._indexes(key))

    def copy(self) -> "CountingBloomFilter":
        """An independent filter with the same sizing and counts."""
        twin = CountingBloomFilter.__new__(CountingBloomFilter)
        twin.m, twin.k, twin.n_added = self.m, self.k, self.n_added
        twin.counts = bytearray(self.counts)
        return twin

    def __len__(self) -> int:
        return self.n_added

    @property
    def size_bytes(self) -> int:
        """Wire/memory footprint if shipped as a plain bit vector."""
        return (self.m + 7) // 8

    def __repr__(self) -> str:
        return f"<CountingBloomFilter m={self.m} k={self.k} n={self.n_added}>"


def per_filter_fp_rate(bound: float, n_peers: int) -> float:
    """Per-filter false-positive rate so that a lookup probing
    ``n_peers`` independent filters stays under ``bound`` overall
    (union bound: 1-(1-p)^n <= bound)."""
    if n_peers <= 1:
        return bound
    return 1.0 - (1.0 - bound) ** (1.0 / n_peers)


class DirectorySync:
    """Strategy base: how one node's directory knowledge reaches peers.

    Holds a back-reference to its :class:`CacherModule`; all simulator
    charging goes through the cacher's machine/network so strategies
    stay within the calibrated cost model.  Methods that advance the
    simulation are generators (drive with ``yield from``); the rest are
    instantaneous bookkeeping.
    """

    kind = "abstract"

    def __init__(self, cacher):
        self.cacher = cacher
        self.obs = cacher.obs

    # -- conveniences -------------------------------------------------------
    @property
    def sim(self):
        return self.cacher.sim

    @property
    def machine(self):
        return self.cacher.machine

    @property
    def stats(self):
        return self.cacher.stats

    @property
    def peers(self) -> List[str]:
        return self.cacher.peers

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn any protocol daemons (none for broadcast)."""

    def oracle_attached(self, oracle) -> None:
        """Called when a consistency oracle starts auditing this node."""

    # -- outgoing -----------------------------------------------------------
    def announce_insert(self, entry: CacheEntry, span=None) -> Generator:
        """Process: tell peers this node now caches ``entry``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def announce_delete(self, url: str, span=None) -> Generator:
        """Process: tell peers this node no longer caches ``url``."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- incoming -----------------------------------------------------------
    def handle_update(self, update, msg) -> Generator:
        """Process: apply one message from the update port."""
        raise TypeError(f"unexpected update {update!r}")
        yield  # pragma: no cover

    # -- queries ------------------------------------------------------------
    def lookup(self, url: str, now: float) -> Generator:
        """Process: find a live entry (local or believed-remote) for
        ``url``; returns it or ``None``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def has_elsewhere(self, url: str) -> bool:
        """Does this node believe any *peer* holds ``url``?"""
        raise NotImplementedError

    def find_owner(self, url: str) -> Optional[str]:
        """The peer believed to own ``url`` (invalidation forwarding)."""
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------
    def _remote_entry(self, peer: str, url: str, now: float) -> CacheEntry:
        """A synthetic directory entry standing in for a peer's copy.

        Indicator views know *that* a peer holds a result, not the
        entry's metadata; the fetch path only needs ``owner`` and
        ``url`` (size/TTL ride back with the reply, and a wrong guess
        is exactly the false-hit path the server already handles)."""
        return CacheEntry(
            url=url, owner=peer, size=0, exec_time=0.0, created=now,
            ttl=math.inf,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {self.cacher.name!r}>"


class BroadcastSync(DirectorySync):
    """The paper's protocol: per-update async broadcast to all peers.

    Same event sequence, span names and oracle hooks as the cacher had
    before the strategy seam, so the default protocol stays
    bit-identical to every committed baseline.

    An insert carries one read-only snapshot of the owner's entry
    (:meth:`CacheEntry.replica`), and every receiver installs that same
    object in its peer table: N−1 tables share one record.  Peer-table
    entries must never be mutated; only the owner's store entry is."""

    kind = "broadcast"

    def announce_insert(self, entry: CacheEntry, span=None) -> Generator:
        yield from self._broadcast(CacheInsert(entry=entry.replica()), span)

    def announce_delete(self, url: str, span=None) -> Generator:
        yield from self._broadcast(
            CacheDelete(url=url, owner=self.cacher.name), span
        )

    def handle_update(self, update, msg) -> Generator:
        cacher = self.cacher
        if isinstance(update, CacheInsert):
            entry = update.entry
            if cacher.store.get(entry.url) is not None:
                # We executed + cached this too: a false miss happened
                # and the result now lives on two nodes.  (This detection
                # is disjoint from the insert-time check in
                # ``insert_result``: only one of the two windows can see
                # any given duplicate, so the count never double-fires.)
                self.stats.double_cached += 1
                self.stats.false_misses += 1
                if self.obs.oracle is not None:
                    self.obs.oracle.observe_double_cached(
                        cacher.name, entry.url, update, msg, self.sim.now
                    )
            yield from cacher.directory.insert(entry)
        elif isinstance(update, CacheDelete):
            yield from cacher.directory.delete(update.url, update.owner)
        else:  # pragma: no cover - protocol misuse
            raise TypeError(f"unexpected update {update!r}")
        self.stats.updates_applied += 1
        if self.obs.oracle is not None:
            self.obs.oracle.broadcast_applied(cacher.name, update, msg, self.sim.now)

    def lookup(self, url: str, now: float) -> Generator:
        result = yield from self.cacher.directory.lookup(url, now)
        return result

    def has_elsewhere(self, url: str) -> bool:
        return self.cacher.directory.has_elsewhere(url)

    def find_owner(self, url: str) -> Optional[str]:
        directory = self.cacher.directory
        for node in directory.node_order:
            candidate = directory.table(node).get(url)
            if candidate is not None and candidate.owner != self.cacher.name:
                return candidate.owner
        return None

    def _broadcast(self, update, span=None) -> Generator:
        """Process: send one directory update to every peer."""
        cacher = self.cacher
        if not self.peers:
            return
        if self.obs.oracle is not None:
            self.obs.oracle.broadcast_sent(cacher.name, update, self.peers, self.sim.now)
        child = self.obs.open_span(span, "broadcast", "cpu", cacher.name)
        try:
            yield self.machine.compute(
                self.machine.costs.broadcast_per_peer_cpu * len(self.peers)
            )
            # Pass the span along so each directory-update hop shows up as
            # a child of this broadcast in `repro trace` output.
            cacher.network.broadcast(
                cacher.name, self.peers, UPDATE_PORT, update,
                DIRECTORY_UPDATE_BYTES, parent=child,
            )
            self.stats.dir_msgs_sent += len(self.peers)
            self.stats.dir_bytes_sent += DIRECTORY_UPDATE_BYTES * len(self.peers)
        finally:
            self.obs.close_span(child, peers=len(self.peers))


class _IndicatorSync(DirectorySync):
    """Shared machinery of the two summary-indicator protocols.

    Peer knowledge is a compact per-peer view (URL set or Bloom
    filter), *not* directory tables — the cacher builds its directory
    with only the own table, so per-node memory is O(cache) instead of
    O(N × cache).  Lookups scan the views in stable peer order after
    the (authoritative) local table misses; one ``compute`` covers the
    whole probe sweep so a 1024-peer scan stays a single event.
    """

    def __init__(self, cacher):
        super().__init__(cacher)
        self._seqs = 0

    def oracle_attached(self, oracle) -> None:
        # Anomalies in indicator modes are (mostly) *summary* error, not
        # broadcast lag; let the oracle tag them accordingly.
        oracle.note_indicator_protocol(self.kind)

    def _next_seq(self) -> int:
        self._seqs += 1
        return self._seqs

    def _probe_cpu(self) -> float:
        costs = self.machine.costs
        return (
            costs.directory_lookup_cpu
            + costs.indicator_probe_cpu * len(self.peers)
        )

    def _peer_with(self, url: str) -> Optional[str]:
        """First peer (stable order) whose view claims ``url``."""
        raise NotImplementedError

    def lookup(self, url: str, now: float) -> Generator:
        entry = yield from self.cacher.directory.lookup(url, now)
        if entry is not None or not self.peers:
            return entry
        yield self.machine.compute(self._probe_cpu())
        peer = self._peer_with(url)
        if peer is not None:
            return self._remote_entry(peer, url, now)
        return None

    def has_elsewhere(self, url: str) -> bool:
        return self._peer_with(url) is not None

    def find_owner(self, url: str) -> Optional[str]:
        return self._peer_with(url)

    def _send_summary(self, payload, size: int, span=None,
                      label: str = "dir-sync") -> Generator:
        """Process: broadcast one summary/delta message to all peers."""
        cacher = self.cacher
        if not self.peers:
            return
        child = self.obs.open_span(span, label, "cpu", cacher.name)
        try:
            yield self.machine.compute(
                self.machine.costs.broadcast_per_peer_cpu * len(self.peers)
            )
            cacher.network.broadcast(
                cacher.name, self.peers, UPDATE_PORT, payload, size,
                parent=child,
            )
            self.stats.dir_msgs_sent += len(self.peers)
            self.stats.dir_bytes_sent += size * len(self.peers)
        finally:
            self.obs.close_span(child, peers=len(self.peers))


class DigestSync(_IndicatorSync):
    """Periodic full-cache digests (Squid cache-digest style).

    A refresh daemon wakes every ``digest_interval`` seconds and, when
    the cache changed since the last digest, broadcasts the complete URL
    summary (``DIGEST_BYTES_PER_ENTRY`` per entry).  Receivers replace
    the sender's view wholesale — applying the same digest twice is a
    no-op, and any lost digest is repaired by the next one.  Nodes that
    never cached anything never send (important at 1024 nodes, where
    most of the cluster can be idle)."""

    kind = "digest"

    def __init__(self, cacher):
        super().__init__(cacher)
        #: peer -> set of URLs its last digest advertised.
        self.views: Dict[str, Set[str]] = {}
        #: Cache changed since the last digest went out?
        self._dirty = False
        self.digests_sent = 0
        self.digests_applied = 0

    def start(self) -> None:
        if self.peers:
            self.sim.process(self._refresher(), name=f"{self.cacher.name}.digest")

    def _refresher(self):
        interval = self.cacher.config.digest_interval
        while True:
            yield self.sim.timeout(interval)
            if not self._dirty:
                continue
            yield from self._send_digest()

    def _send_digest(self, span=None) -> Generator:
        cacher = self.cacher
        urls = tuple(sorted(cacher.directory.table(cacher.name)))
        digest = CacheDigest(owner=cacher.name, urls=urls, seq=self._next_seq())
        size = DIGEST_HEADER_BYTES + DIGEST_BYTES_PER_ENTRY * len(urls)
        # Building the summary walks the table once.
        yield self.machine.compute(
            self.machine.costs.digest_cpu_per_entry * max(1, len(urls))
        )
        yield from self._send_summary(digest, size, span, label="digest")
        self.digests_sent += 1
        self._dirty = False

    def announce_insert(self, entry: CacheEntry, span=None) -> Generator:
        self._dirty = True
        return
        yield  # pragma: no cover

    def announce_delete(self, url: str, span=None) -> Generator:
        self._dirty = True
        return
        yield  # pragma: no cover

    def handle_update(self, update, msg) -> Generator:
        if not isinstance(update, CacheDigest):  # pragma: no cover - misuse
            raise TypeError(f"unexpected update {update!r}")
        yield self.machine.compute(
            self.machine.costs.directory_update_cpu
            + self.machine.costs.digest_cpu_per_entry * max(1, len(update.urls))
        )
        self.views[update.owner] = set(update.urls)
        self.digests_applied += 1
        self.stats.updates_applied += 1

    def _peer_with(self, url: str) -> Optional[str]:
        views = self.views
        for peer in self.peers:
            view = views.get(peer)
            if view is not None and url in view:
                return peer
        return None


class BloomSync(_IndicatorSync):
    """Counting-Bloom-filter indicators fed by batched deltas.

    Each insert/delete queues a tiny delta record; a batch flushes when
    ``indicator_batch`` records accumulate or ``indicator_max_delay``
    seconds pass.  Peers maintain one counting filter per sender, so
    deletes decrement instead of poisoning the filter, and a present
    entry can never read as absent.  The configured
    ``indicator_fp_rate`` bounds the probability that a probe sweep
    over all peer filters turns up a phantom owner (per-filter rate
    deflated by the union bound over peers)."""

    kind = "bloom"

    def __init__(self, cacher):
        super().__init__(cacher)
        config: SwalaConfig = cacher.config
        self.fp_rate = per_filter_fp_rate(
            config.indicator_fp_rate, max(1, len(self.peers))
        )
        #: peer -> counting filter mirroring that peer's cache contents;
        #: shared with other receivers, so never mutated in place.
        self.filters: Dict[str, CountingBloomFilter] = {}
        #: queued ("i"/"d", url) deltas awaiting the next flush.
        self.pending: List[Tuple[str, str]] = []
        self.flushes = 0
        self.deltas_applied = 0

    def start(self) -> None:
        if self.peers:
            self.sim.process(self._flusher(), name=f"{self.cacher.name}.bloom")

    def _flusher(self):
        max_delay = self.cacher.config.indicator_max_delay
        while True:
            yield self.sim.timeout(max_delay)
            if self.pending:
                yield from self._flush()

    def _flush(self, span=None) -> Generator:
        cacher = self.cacher
        ops = tuple(self.pending)
        self.pending.clear()
        batch = IndicatorDeltas(owner=cacher.name, ops=ops, seq=self._next_seq())
        size = DELTA_HEADER_BYTES + DELTA_RECORD_BYTES * len(ops)
        yield from self._send_summary(batch, size, span, label="delta-flush")
        self.flushes += 1

    def _queue(self, op: str, url: str, span) -> Generator:
        self.pending.append((op, url))
        if len(self.pending) >= self.cacher.config.indicator_batch and self.peers:
            yield from self._flush(span)

    def announce_insert(self, entry: CacheEntry, span=None) -> Generator:
        yield from self._queue("i", entry.url, span)

    def announce_delete(self, url: str, span=None) -> Generator:
        yield from self._queue("d", url, span)

    def handle_update(self, update, msg) -> Generator:
        if not isinstance(update, IndicatorDeltas):  # pragma: no cover - misuse
            raise TypeError(f"unexpected update {update!r}")
        yield self.machine.compute(
            self.machine.costs.directory_update_cpu
            + self.machine.costs.indicator_probe_cpu * max(1, len(update.ops))
        )
        # Peer filters are shared and never mutated in place: every peer
        # receives this same batch object, and peers that held the same
        # filter for ``owner`` before it reach the same filter after it,
        # so the first one builds it and the rest reuse it from the
        # batch's memo.  A 1024-node cluster then keeps a few 64 KB
        # filters per sender instead of one per (receiver, sender) pair.
        prev = self.filters.get(update.owner)
        key = prev if prev is not None else (
            self.cacher.config.cache_capacity, self.fp_rate
        )
        filt = update.applied.get(key)
        if filt is None:
            filt = prev.copy() if prev is not None else CountingBloomFilter(
                self.cacher.config.cache_capacity, self.fp_rate
            )
            for op, url in update.ops:
                if op == "i":
                    filt.add(url)
                else:
                    filt.discard(url)
            update.applied[key] = filt
        self.filters[update.owner] = filt
        self.deltas_applied += 1
        self.stats.updates_applied += 1

    def _peer_with(self, url: str) -> Optional[str]:
        filters = self.filters
        for peer in self.peers:
            filt = filters.get(peer)
            if filt is not None and url in filt:
                return peer
        return None


_PROTOCOLS = {
    "broadcast": BroadcastSync,
    "digest": DigestSync,
    "bloom": BloomSync,
}


def make_directory_sync(cacher) -> DirectorySync:
    """Build the configured sync strategy for one cacher module.

    Non-cooperative nodes get the (inert: no peers) broadcast strategy
    regardless of configuration — indicators describe peers a
    stand-alone node does not have."""
    config: SwalaConfig = cacher.config
    if not config.cooperative:
        return BroadcastSync(cacher)
    try:
        cls = _PROTOCOLS[config.directory_protocol]
    except KeyError:
        raise ValueError(
            f"unknown directory protocol {config.directory_protocol!r}; "
            f"choose from {DIRECTORY_PROTOCOLS}"
        ) from None
    return cls(cacher)
