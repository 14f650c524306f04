"""The Cacher module (paper §4.1, right half of Figure 1).

One per Swala node.  Owns the local cache store and the replicated
directory, and runs the three daemon threads the paper describes:

1. the **update receiver** — applies directory-sync messages from peers
   (insert/delete broadcasts, or the digest/Bloom indicator messages of
   :mod:`repro.core.dirsync`);
2. the **fetch server** — listens for data requests from peers and starts a
   separate thread per request to return cached contents;
3. the **purger** — wakes every few seconds and deletes expired entries.

Request threads call into this module for classification, local/remote
fetches, and miss-side insertion (Fig. 2).

*How* peers learn about inserts/deletes — and *what* this node knows
about peers — is delegated to a :class:`~repro.core.dirsync.DirectorySync`
strategy selected by ``SwalaConfig.directory_protocol``; the default
(the paper's broadcast) is bit-identical to the pre-seam code path.
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional

from ..cache import CacheEntry, CacheStore
from ..hosts import FileNotFound, Machine
from ..net import Network
from ..sim import Event, Simulator, Store
from ..workload import Request
from .config import CacheMode, SwalaConfig
from .directory import CacheDirectory
from .dirsync import UPDATE_PORT, make_directory_sync
from .invalidation import INVALIDATE_MSG_BYTES, INVALIDATION_PORT, InvalidateUrl
from .protocol import (
    FETCH_HEADER_BYTES,
    FETCH_MISS_BYTES,
    FETCH_REQUEST_BYTES,
    FetchReply,
    FetchRequest,
)
from .stats import NodeStats

__all__ = ["CacherModule", "UPDATE_PORT", "FETCH_PORT"]

#: Port the fetch server listens on.  (The update receiver's
#: ``UPDATE_PORT`` now lives with the sync strategies in ``dirsync`` and
#: is re-exported here for compatibility.)
FETCH_PORT = "cache-fetch"

_fetch_ids = itertools.count()


class CacherModule:
    """Cache manager of one node."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        network: Network,
        name: str,
        node_names: List[str],
        config: SwalaConfig,
        stats: NodeStats,
    ):
        self.sim = sim
        self.machine = machine
        self.network = network
        self.name = name
        self.config = config
        self.stats = stats
        self.peers = [n for n in node_names if n != name]
        self.store = CacheStore(
            machine.fs, config.cache_capacity, policy=config.policy, owner=name
        )
        # Indicator protocols keep peer knowledge in compact per-peer
        # views (inside the sync strategy), so the directory only needs
        # the node's own authoritative table — at 1024 nodes that is the
        # difference between O(cache) and O(N x cache) objects per node.
        if config.cooperative and config.directory_protocol != "broadcast":
            directory_nodes = [name]
        else:
            directory_nodes = node_names
        self.directory = CacheDirectory(
            machine, name, directory_nodes, locking=config.locking
        )
        self._update_box: Store = network.register(name, UPDATE_PORT)
        self._fetch_box: Store = network.register(name, FETCH_PORT)
        self._invalidate_box: Store = network.register(name, INVALIDATION_PORT)
        #: URLs whose CGI is executing right now (type-1 false-miss window).
        self._in_progress: dict = {}
        #: Completion events for in-progress executions (coalescing).
        self._in_progress_done: dict = {}
        #: The simulation's collectors (:class:`~repro.sim.probes.
        #: Instrumentation`); each is ``None`` while off.
        self.obs = sim.obs
        #: The directory-synchronization strategy (broadcast / digest /
        #: bloom); owns all peer-facing metadata traffic and peer views.
        self.sync = make_directory_sync(self)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Spawn the daemon threads (three from the paper + invalidation)."""
        self.sim.process(self._update_receiver(), name=f"{self.name}.upd")
        self.sim.process(self._fetch_server(), name=f"{self.name}.fsv")
        self.sim.process(self._purger(), name=f"{self.name}.purge")
        self.sim.process(self._invalidation_listener(), name=f"{self.name}.inv")
        if self.config.dependencies is not None:
            self.sim.process(self._source_monitor(), name=f"{self.name}.mon")
        self.sync.start()

    # -- daemons ------------------------------------------------------------
    def _update_receiver(self):
        """Daemon 1: apply peer directory-sync messages (broadcast
        records, digests, or delta batches — the strategy knows)."""
        while True:
            msg = yield self._update_box.get()
            yield from self.sync.handle_update(msg.payload, msg)

    def _fetch_server(self):
        """Daemon 2: per fetch request, start a thread to return contents."""
        while True:
            msg = yield self._fetch_box.get()
            self.sim.process(
                self._serve_fetch(msg.payload), name=f"{self.name}.fetch"
            )

    def _serve_fetch(self, freq: FetchRequest):
        """One fetch-handler thread."""
        yield self.machine.dispatch_thread()
        now = self.sim.now
        entry = self.store.get(freq.url)
        if entry is not None and entry.expired(now):
            entry = None
        if entry is not None:
            try:
                yield from self.machine.serve_file(entry.file_path, mmap=True)
            except FileNotFound:
                # Evicted while this thread was inside open(): same
                # false-hit outcome as losing the race before dispatch.
                entry = None
        if entry is not None:
            if self.is_stale(entry):
                self.stats.stale_hits += 1
            yield from self.record_hit(freq.url)
            size = FETCH_HEADER_BYTES + entry.size
            yield self.machine.send_bytes_cpu(size)
            self.network.send(
                self.name,
                freq.requester,
                freq.reply_port,
                FetchReply(url=freq.url, hit=True, size=entry.size, seq=freq.seq),
                size,
            )
        else:
            # The entry was evicted/expired after the peer looked it up:
            # the peer experiences a *false hit*.
            self.stats.false_hits_served += 1
            self.network.send(
                self.name,
                freq.requester,
                freq.reply_port,
                FetchReply(url=freq.url, hit=False, seq=freq.seq),
                FETCH_MISS_BYTES,
            )

    def _purger(self):
        """Daemon 3: TTL expiry sweep every ``purge_interval`` seconds."""
        while True:
            yield self.sim.timeout(self.config.purge_interval)
            now = self.sim.now
            purged = self.store.purge_expired(now)
            for entry in purged:
                self.stats.expirations += 1
                oracle = self.obs.oracle
                if oracle is not None:
                    oracle.shadow_remove(self.name, entry.url, "ttl", now)
                yield from self.directory.delete(entry.url, self.name)
                yield from self.sync.announce_delete(entry.url)

    def _invalidation_listener(self):
        """Daemon 4: handle application-initiated invalidation messages."""
        while True:
            msg = yield self._invalidate_box.get()
            request: InvalidateUrl = msg.payload
            self.stats.invalidations_received += 1
            yield from self.invalidate(request.url, forward=True)

    def _source_monitor(self):
        """Daemon 5: Vahdat/Anderson-style source monitoring.

        Polls the registered source files of every locally cached result;
        an entry older than its newest source is invalidated (and the
        delete broadcast, like any other eviction).
        """
        registry = self.config.dependencies
        while True:
            yield self.sim.timeout(self.config.source_monitor_interval)
            for entry in self.store.entries():
                sources = registry.sources_for(entry.url)
                if not sources:
                    continue
                # stat() each dependency.
                yield self.machine.compute(
                    self.machine.costs.syscall_cpu * len(sources)
                )
                if self._newest_source_mtime(sources) > entry.created:
                    yield from self.invalidate(entry.url)

    # -- invalidation -----------------------------------------------------
    def _newest_source_mtime(self, sources) -> float:
        newest = -1.0
        for path in sources:
            if self.machine.fs.exists(path):
                newest = max(newest, self.machine.fs.mtime(path))
        return newest

    def is_stale(self, entry: CacheEntry) -> bool:
        """Ground truth: has any registered source changed since caching?"""
        registry = self.config.dependencies
        if registry is None:
            return False
        sources = registry.sources_for(entry.url)
        if not sources:
            return False
        return self._newest_source_mtime(sources) > entry.created

    def invalidate(self, url: str, forward: bool = False) -> Generator:
        """Process: drop ``url`` from this node's cache (+ broadcast); if we
        don't own it and ``forward`` is set, relay to the owning node."""
        entry = self.store.get(url)
        if entry is not None:
            self.store.remove(url)
            self.stats.invalidated += 1
            oracle = self.obs.oracle
            if oracle is not None:
                oracle.shadow_remove(self.name, url, "invalidated", self.sim.now)
            yield from self.directory.delete(url, self.name)
            yield from self.sync.announce_delete(url)
            return
        if forward:
            owner = self.sync.find_owner(url)
            if owner is not None:
                self.network.send(
                    self.name,
                    owner,
                    INVALIDATION_PORT,
                    InvalidateUrl(url=url, sender=self.name),
                    INVALIDATE_MSG_BYTES,
                )

    # -- request-thread services ----------------------------------------------
    def classify(self, request: Request, span=None) -> bool:
        """Fig. 2's first diamond: is this request cacheable at all?"""
        cacheable = self.config.is_cacheable(request)
        child = self.obs.open_span(span, "classify", "cpu", self.name)
        self.obs.close_span(child, cacheable=cacheable)  # instantaneous decision
        return cacheable

    def lookup(self, url: str, span=None) -> Generator:
        """Process: directory/indicator lookup; returns a live entry or
        ``None``.  Under indicator protocols a remote answer is a
        synthetic entry naming the believed owner."""
        if span is None or self.obs.tracer is None:
            result = yield from self.sync.lookup(url, self.sim.now)
            return result
        child = self.obs.open_span(span, "lookup", "cpu", self.name)
        try:
            result = yield from self.sync.lookup(url, self.sim.now)
        finally:
            self.obs.close_span(child)
        if child is not None:
            child.annotate(
                found=result is not None,
                owner=result.owner if result is not None else None,
            )
        return result

    def fetch_local(self, url: str, span=None) -> Generator:
        """Process: serve a hit from our own cache; returns the entry or
        ``None`` if it vanished since the lookup (race with the purger,
        or a capacity eviction landing while this thread is inside the
        open/stat syscall — a real server's open() returns ENOENT there
        and falls through to execution, Fig. 2's miss arrow)."""
        entry = self.store.get(url)
        if entry is None or entry.expired(self.sim.now):
            return None
        child = self.obs.open_span(span, "fetch-local", "disk", self.name)
        try:
            try:
                yield from self.machine.serve_file(entry.file_path, mmap=True)
            except FileNotFound:
                self.obs.close_span(child, vanished=True)
                child = None
                return None
            if self.is_stale(entry):
                self.stats.stale_hits += 1
            yield from self.record_hit(url)
        finally:
            self.obs.close_span(child)
        return entry

    def fetch_remote(
        self, entry: CacheEntry, reply_box: Store, reply_port: str, span=None
    ) -> Generator:
        """Process: request/reply session with the owning node; returns the
        :class:`FetchReply`.

        Gives up after ``config.fetch_timeout`` (returned as a miss, which
        the caller handles like a false hit).  Sequence numbers keep a
        late reply from a previous, abandoned fetch from being mistaken
        for the current one.
        """
        seq = next(_fetch_ids)
        child = self.obs.open_span(span, "fetch-remote", "network", self.name)
        if child is not None:
            child.annotate(owner=entry.owner)
        try:
            yield self.machine.compute(self.machine.costs.remote_fetch_cpu)  # connect + marshal
            self.network.send(
                self.name,
                entry.owner,
                FETCH_PORT,
                FetchRequest(
                    url=entry.url, requester=self.name, reply_port=reply_port, seq=seq
                ),
                FETCH_REQUEST_BYTES,
                parent=child,
            )
            deadline = self.sim.timeout(self.config.fetch_timeout)
            while True:
                get_event = reply_box.get()
                yield get_event | deadline
                if not get_event.triggered:
                    # Timed out: withdraw the getter and fall back to execution.
                    reply_box.cancel(get_event)
                    self.stats.fetch_timeouts += 1
                    self.obs.close_span(child, hit=False, timeout=True)
                    child = None
                    return FetchReply(url=entry.url, hit=False, seq=seq)
                msg = get_event.value
                reply: FetchReply = msg.payload
                if reply.seq != seq:
                    continue  # a stale reply from an abandoned fetch; discard
                if reply.hit:
                    # Receive-side copy of the body.
                    yield self.machine.compute(
                        self.machine.costs.net_send_per_byte_cpu * reply.size
                    )
                self.obs.close_span(child, hit=reply.hit)
                child = None
                return reply
        finally:
            # Belt-and-braces: a failure inside the session still closes it.
            self.obs.close_span(child)

    def record_hit(self, url: str) -> Generator:
        """Process: owner-side meta-data statistics update after a fetch."""
        yield from self.directory.charge_local_update()
        if self.store.get(url) is not None:
            self.store.record_access(url, self.sim.now)

    # -- execution bookkeeping (false-miss windows) ---------------------------
    def execution_starting(self, url: str) -> bool:
        """Mark ``url`` as in progress; True if it already was (type-1
        false miss: an identical request arrived before the first finished)."""
        running = self._in_progress.get(url, 0)
        self._in_progress[url] = running + 1
        if url not in self._in_progress_done:
            self._in_progress_done[url] = Event(self.sim)
        return running > 0

    def execution_finished(self, url: str) -> None:
        remaining = self._in_progress.get(url, 0) - 1
        if remaining > 0:
            self._in_progress[url] = remaining
        else:
            self._in_progress.pop(url, None)
            done = self._in_progress_done.pop(url, None)
            if done is not None:
                done.succeed()

    def in_progress(self, url: str) -> bool:
        return self._in_progress.get(url, 0) > 0

    def wait_for_execution(self, url: str) -> Generator:
        """Process: block until the in-progress execution of ``url``
        completes; returns True if there was one to wait for."""
        done = self._in_progress_done.get(url)
        if done is None:
            return False
        yield done
        return True

    # -- miss-side insertion ------------------------------------------------
    def should_cache_result(self, request: Request, exec_time: float, ok: bool) -> bool:
        """Fig. 2: cache only successful executions longer than the runtime
        limit — and not absurdly large ones."""
        return (
            ok
            and exec_time > self.config.min_exec_time
            and request.response_size <= self.config.max_entry_size
        )

    def insert_result(
        self, request: Request, exec_time: float, span=None, audit=None
    ) -> Generator:
        """Process: create the entry, update directory, broadcast (Fig. 2's
        'Create cache entry' + 'Broadcast cache entry' boxes)."""
        now = self.sim.now
        oracle = self.obs.oracle
        child = self.obs.open_span(span, "insert", "cpu", self.name)
        try:
            if self.config.cooperative and self.sync.has_elsewhere(request.url):
                # A peer cached this while we were executing: type-2 false miss.
                self.stats.false_misses += 1
                if audit is not None:
                    oracle.insert_raced(audit, request.url, now)
            entry = CacheEntry(
                url=request.url,
                owner=self.name,
                size=request.response_size,
                exec_time=exec_time,
                created=now,
                ttl=self.config.ttl_for(request.url),
            )
            # The tee of the CGI output into the cache file (charged now; the
            # file lands in the buffer cache).
            yield self.machine.compute(
                self.machine.costs.cache_write_per_byte_cpu * entry.size
            )
            evicted = self.store.insert(entry, now)
            if oracle is not None:
                oracle.shadow_insert(self.name, entry.url, now, entry.ttl)
                for victim in evicted:
                    oracle.shadow_remove(
                        self.name, victim.url, "capacity", now
                    )
            yield from self.directory.insert(entry)
            self.stats.inserts += 1
            for victim in evicted:
                self.stats.evictions += 1
                yield from self.directory.delete(victim.url, self.name)
            if self.config.cooperative:
                yield from self.sync.announce_insert(entry, child)
                for victim in evicted:
                    yield from self.sync.announce_delete(victim.url, child)
        finally:
            self.obs.close_span(child)
        return entry

    def flush(self) -> Generator:
        """Process: drop every local entry and announce the deletions —
        what a node restart (losing its result files) looks like to the
        cluster.  Peers converge via the normal delete broadcasts, so no
        false hits linger beyond the usual window."""
        for entry in self.store.entries():
            self.store.remove(entry.url)
            oracle = self.obs.oracle
            if oracle is not None:
                oracle.shadow_remove(self.name, entry.url, "flush", self.sim.now)
            yield from self.directory.delete(entry.url, self.name)
            yield from self.sync.announce_delete(entry.url)

    def __repr__(self) -> str:
        return f"<CacherModule {self.name!r} store={len(self.store)}/{self.store.capacity}>"
