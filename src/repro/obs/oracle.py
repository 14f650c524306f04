"""Consistency oracle: a shadow, instantly-consistent cache directory.

The paper's defining trade-off is *weak inter-node consistency*:
directory updates propagate asynchronously, so nodes act on stale
replicas and suffer **false misses** (executing work a peer already
cached) and **false hits** (fetching an entry the owner already
dropped).  ``NodeStats`` counts those anomalies, but flat counters
cannot say *when* they happened, *which* broadcast's propagation lag
caused them, or what each one cost in latency.

The :class:`ConsistencyOracle` answers those questions.  It maintains an
*ideal* global directory — the union of every node's real cache
contents with **zero** metadata propagation delay — alongside the real
replicated one, and classifies every request at completion:

====================  ======================================================
``local-hit``         served from the node's own cache
``remote-hit``        fetched from a peer's cache
``coalesced``         waited for an in-progress identical execution
``false-hit``         went remote, but the owner had already dropped it
``false-miss-1``      executed while an identical execution was in flight
                      on the same node (the paper's in-flight window)
``false-miss-2``      executed, and a peer's copy became visible in our
                      replica only during the execution (directory lag)
``miss-cold``         executed; no node ever produced this result
``miss-capacity``     executed; the last copy was evicted for capacity
``miss-ttl``          executed; the last copy expired (TTL)
``miss-invalidated``  executed; the last copy was invalidated/flushed
``miss-race``         executed although the ideal directory had a live
                      copy at request start — a window the legacy
                      counters attribute later (double-cached) or a
                      lookup/purge race
``uncacheable``       ruled out of caching by configuration
``file``              static file request
====================  ======================================================

Each anomaly is tagged with the directory-update broadcast whose
propagation lag caused it (when one is attributable) and with the time
the detour wasted versus the ideal outcome.  Broadcast applications are
sampled into a staleness-window distribution (wire time vs apply lag).
Under the summary-indicator directory protocols (``digest`` / ``bloom``,
see :mod:`repro.core.dirsync`) there is no per-update broadcast to
blame: anomalies with no attributable message are tagged with the
``indicator`` cause instead, so ``repro audit`` separates digest/filter
approximation error from broadcast propagation lag.

The oracle is **zero-cost when off**: instrumented sites pay one
``is None`` check, exactly like the span tracer.  It never schedules
simulation events or consumes random numbers, so attaching it does not
perturb a deterministic run; export is sorted-key JSONL, so two
same-seed runs produce byte-identical audits.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..metrics.ascii import sparkline
from ..metrics.reporting import render_table

from .analyze import _percentile
from .ioutil import export_jsonl, jsonl_text, read_text

__all__ = [
    "ConsistencyOracle",
    "RequestAudit",
    "AuditDump",
    "AUDIT_CLASSES",
    "load_audit",
    "render_taxonomy",
    "render_staleness",
    "render_anomaly_timeline",
    "render_audit_report",
]

#: Every classification a finished request can receive (exactly one each).
AUDIT_CLASSES = (
    "local-hit",
    "remote-hit",
    "coalesced",
    "false-hit",
    "false-miss-1",
    "false-miss-2",
    "miss-cold",
    "miss-capacity",
    "miss-ttl",
    "miss-invalidated",
    "miss-race",
    "uncacheable",
    "file",
)

#: Classes that are consistency anomalies (the audit's reason to exist).
ANOMALY_CLASSES = ("false-hit", "false-miss-1", "false-miss-2", "miss-race")


class _ShadowEntry:
    """Ideal-directory record: where a result lives and until when."""

    __slots__ = ("owner", "created", "expires")

    def __init__(self, owner: str, created: float, expires: float):
        self.owner = owner
        self.created = created
        self.expires = expires

    def live(self, now: float) -> bool:
        return now < self.expires


class _PendingBroadcast:
    """One directory update sent to one peer, not yet applied there."""

    __slots__ = ("bcast_id", "kind", "owner", "url", "sent", "dropped")

    def __init__(self, bcast_id: int, kind: str, owner: str, url: str, sent: float):
        self.bcast_id = bcast_id
        self.kind = kind
        self.owner = owner
        self.url = url
        self.sent = sent
        self.dropped = False


class RequestAudit:
    """One request's consistency anatomy, filled in along the request path."""

    __slots__ = (
        "run", "node", "url", "kind", "started", "finished", "outcome",
        "ideal", "ideal_owner", "miss_reason",
        "uncacheable", "local_hit", "remote_hit",
        "false_hit_retries", "coalesced_waits",
        "executed", "duplicate", "insert_race", "discarded",
        "exec_seconds", "wasted_seconds",
        "bcast_id", "bcast_kind", "staleness", "inflight_window",
    )

    def __init__(self, run: int, node: str, url: str, kind: str, started: float):
        self.run = run
        self.node = node
        self.url = url
        self.kind = kind
        self.started = started
        self.finished: Optional[float] = None
        self.outcome: Optional[str] = None
        #: What an instantly-consistent system would have done at
        #: request start: "local-hit" / "remote-hit" / "miss".
        self.ideal: Optional[str] = None
        self.ideal_owner: Optional[str] = None
        #: Why the ideal view also missed: cold / capacity / ttl / invalidated.
        self.miss_reason: Optional[str] = None
        self.uncacheable = False
        self.local_hit = False
        self.remote_hit = False
        self.false_hit_retries = 0
        self.coalesced_waits = 0
        self.executed = False
        self.duplicate = False      # type-1 window (in-flight duplicate)
        self.insert_race = False    # type-2 window (peer copy seen at insert)
        self.discarded = False
        self.exec_seconds = 0.0
        #: Seconds the consistency detour cost versus the ideal outcome:
        #: failed remote round-trips for false hits, the redundant
        #: execution for false misses.
        self.wasted_seconds = 0.0
        #: The directory-update broadcast whose propagation lag caused the
        #: anomaly, when one is attributable.
        self.bcast_id: Optional[int] = None
        self.bcast_kind: Optional[str] = None
        #: Age of that broadcast when the anomaly surfaced (seconds).
        self.staleness: Optional[float] = None
        #: For type-1 false misses: how long the first identical execution
        #: had already been running.
        self.inflight_window: Optional[float] = None

    @property
    def classification(self) -> str:
        """The request's single primary class (documented precedence:
        anomalies outrank the eventual body source, type-1 outranks
        type-2, a coalesced wait outranks the hit it ended in)."""
        if self.kind == "file":
            return "file"
        if self.uncacheable:
            return "uncacheable"
        if self.false_hit_retries:
            return "false-hit"
        if self.duplicate:
            return "false-miss-1"
        if self.insert_race:
            return "false-miss-2"
        if self.coalesced_waits:
            return "coalesced"
        if self.remote_hit:
            return "remote-hit"
        if self.local_hit:
            return "local-hit"
        if self.executed:
            if self.ideal in ("local-hit", "remote-hit"):
                return "miss-race"
            return f"miss-{self.miss_reason or 'cold'}"
        return "unfinished"

    @property
    def latency(self) -> float:
        if self.finished is None:
            raise RuntimeError(f"audit for {self.url!r} not finished")
        return self.finished - self.started

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": "request",
            "run": self.run,
            "node": self.node,
            "url": self.url,
            "kind": self.kind,
            "start": self.started,
            "end": self.finished,
            "class": self.classification,
            "outcome": self.outcome,
            "ideal": self.ideal,
        }
        if self.ideal_owner is not None:
            data["ideal_owner"] = self.ideal_owner
        if self.miss_reason is not None:
            data["miss_reason"] = self.miss_reason
        if self.false_hit_retries:
            data["false_hit_retries"] = self.false_hit_retries
        if self.coalesced_waits:
            data["coalesced_waits"] = self.coalesced_waits
        if self.executed:
            data["exec_s"] = self.exec_seconds
        if self.discarded:
            data["discarded"] = True
        if self.wasted_seconds:
            data["wasted_s"] = self.wasted_seconds
        if self.bcast_id is not None:
            data["bcast"] = self.bcast_id
            data["bcast_kind"] = self.bcast_kind
        elif self.bcast_kind is not None:
            # Indicator-caused anomalies carry a cause but no message id.
            data["bcast_kind"] = self.bcast_kind
        if self.staleness is not None:
            data["staleness"] = self.staleness
        if self.inflight_window is not None:
            data["inflight_window"] = self.inflight_window
        return data


class ConsistencyOracle:
    """Shadow global directory + per-request consistency classifier.

    One oracle can audit the several back-to-back simulations an
    experiment command runs: :meth:`new_run` (called by the run
    observer per attached target) resets the shadow state and stamps
    subsequent records with the new run index, exactly like
    :meth:`~repro.obs.TraceCollector.new_run`.
    """

    def __init__(self, max_records: int = 1_000_000):
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.run = 0
        #: Every request audited, in begin order (finished or not).
        self.audits: List[RequestAudit] = []
        #: Broadcast staleness samples: one dict per applied update.
        self.lag_samples: List[Dict[str, Any]] = []
        #: Directory updates lost to injected loss.
        self.drops: List[Dict[str, Any]] = []
        #: Insert broadcasts that revealed an already-counted false miss
        #: on the receiving node (the ``double_cached`` window).
        self.double_cached: List[Dict[str, Any]] = []
        #: Records not stored because the oracle was full.
        self.dropped_records = 0
        #: Finished-request classification counts (live; feeds the
        #: time-series sampler's anomaly-rate series).
        self.counts: Dict[str, int] = {}
        self._bcast_ids = itertools.count(1)
        #: Set (to "digest" / "bloom") when the audited cluster runs a
        #: summary-indicator directory protocol; anomalies without an
        #: attributable broadcast are then stale-indicator casualties.
        self.indicator_protocol: Optional[str] = None
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        # url -> owner -> shadow entry (the ideal, instantly-visible view)
        self._shadow: Dict[str, Dict[str, _ShadowEntry]] = {}
        # urls that were cached at least once (cold-miss detection)
        self._ever: set = set()
        # url -> reason the last live copy disappeared
        self._last_removed: Dict[str, str] = {}
        # (node, url) -> pending directory updates for that replica
        self._pending: Dict[Tuple[str, str], List[_PendingBroadcast]] = {}
        # (node, url) -> last update applied there (type-2 attribution)
        self._applied: Dict[Tuple[str, str], Dict[str, Any]] = {}
        # bcast id -> (kind, owner, url, sent)
        self._bcast_info: Dict[int, Tuple[str, str, str, float]] = {}
        # (node, url) -> (active executions, start of the first)
        self._inflight: Dict[Tuple[str, str], Tuple[int, float]] = {}

    def note_indicator_protocol(self, kind: str) -> None:
        """Called by indicator-mode cachers when the oracle attaches."""
        self.indicator_protocol = kind

    # -- run lifecycle ------------------------------------------------------
    def new_run(self) -> int:
        """Mark the start of another simulation feeding this oracle."""
        self.run += 1
        self._reset_run_state()
        return self.run

    def finalize(self) -> None:
        """Nothing to flush: requests are classified as they finish."""

    def fresh(self) -> "ConsistencyOracle":
        """An empty oracle with the same capacity."""
        return ConsistencyOracle(self.max_records)

    # -- shadow directory maintenance (instant, global) ---------------------
    def shadow_insert(self, node: str, url: str, created: float, ttl: float) -> None:
        """A node's store just gained ``url`` — visible globally *now*."""
        self._shadow.setdefault(url, {})[node] = _ShadowEntry(
            node, created, created + ttl
        )
        self._ever.add(url)

    def shadow_remove(self, node: str, url: str, reason: str, now: float) -> None:
        """A node's store just lost ``url`` (reason: capacity / ttl /
        invalidated / flush)."""
        owners = self._shadow.get(url)
        if owners is not None:
            owners.pop(node, None)
            if not owners:
                del self._shadow[url]
        self._last_removed[url] = reason

    def ideal_lookup(self, node: str, url: str, now: float,
                     cooperative: bool = True):
        """What an instantly-consistent directory would answer: the
        ``(outcome, owner)`` pair where outcome is local-hit / remote-hit
        / miss.  Expired-but-unpurged copies count as dead, mirroring
        :meth:`CacheEntry.expired`.  Stand-alone nodes (``cooperative
        =False``) are unaware of peers, so only their own copy counts."""
        owners = self._shadow.get(url)
        if owners:
            own = owners.get(node)
            if own is not None and own.live(now):
                return "local-hit", node
            if cooperative:
                for owner, entry in owners.items():
                    if owner != node and entry.live(now):
                        return "remote-hit", owner
        return "miss", None

    def _miss_reason(self, url: str, now: float) -> str:
        if url not in self._ever:
            return "cold"
        # The url was cached before.  If a copy still exists but expired,
        # that is a TTL miss regardless of how older copies died.
        owners = self._shadow.get(url)
        if owners and any(not e.live(now) for e in owners.values()):
            return "ttl"
        reason = self._last_removed.get(url, "cold")
        if reason in ("invalidated", "flush"):
            return "invalidated"
        if reason == "ttl":
            return "ttl"
        return "capacity"

    # -- broadcast attribution ---------------------------------------------
    def broadcast_sent(self, owner: str, update: Any, peers, now: float) -> int:
        """Register one directory-update broadcast; stamps ``update`` with
        a ``bcast_id`` the update receivers (and loss injection) report
        back with."""
        url = getattr(update, "url", None)
        if url is None:
            entry = getattr(update, "entry", None)
            url = entry.url if entry is not None else "?"
        kind = "delete" if hasattr(update, "owner") else "insert"
        bcast_id = next(self._bcast_ids)
        update.bcast_id = bcast_id
        self._bcast_info[bcast_id] = (kind, owner, url, now)
        for peer in peers:
            self._pending.setdefault((peer, url), []).append(
                _PendingBroadcast(bcast_id, kind, owner, url, now)
            )
        return bcast_id

    def broadcast_applied(self, node: str, update: Any, msg: Any, now: float) -> None:
        """A peer finished applying ``update`` to its replica.  ``msg`` is
        the carrying :class:`~repro.net.Message` (its ``send_time`` /
        ``deliver_time`` decompose the staleness window into wire time
        and mailbox-plus-apply lag)."""
        bcast_id = getattr(update, "bcast_id", None)
        if bcast_id is None:
            return
        info = self._bcast_info.get(bcast_id)
        if info is None:
            return
        kind, owner, url, sent = info
        key = (node, url)
        pending = self._pending.get(key)
        if pending:
            # The applied update supersedes everything older for this
            # (replica, url): drop it and all earlier pending entries.
            keep = [p for p in pending if p.bcast_id > bcast_id]
            if keep:
                self._pending[key] = keep
            else:
                del self._pending[key]
        self._applied[key] = {
            "bcast": bcast_id, "kind": kind, "owner": owner,
            "sent": sent, "applied": now,
        }
        if len(self.lag_samples) >= self.max_records:
            self.dropped_records += 1
            return
        wire = msg.deliver_time - msg.send_time if msg.deliver_time >= 0 else None
        self.lag_samples.append(
            {
                "type": "bcast-lag",
                "run": self.run,
                "node": node,
                "url": url,
                "kind": kind,
                "owner": owner,
                "bcast": bcast_id,
                "sent": sent,
                "applied": now,
                "lag": now - sent,
                "wire": wire,
            }
        )

    def message_dropped(self, msg: Any) -> None:
        """Loss injection ate a directory update: the replica it was
        heading for stays stale until a later update supersedes it."""
        bcast_id = getattr(msg.payload, "bcast_id", None)
        if bcast_id is None:
            return
        info = self._bcast_info.get(bcast_id)
        if info is None:
            return
        kind, owner, url, sent = info
        for p in self._pending.get((msg.dst, url), ()):
            if p.bcast_id == bcast_id:
                p.dropped = True
        if len(self.drops) >= self.max_records:
            self.dropped_records += 1
            return
        self.drops.append(
            {
                "type": "bcast-drop",
                "run": self.run,
                "node": msg.dst,
                "url": url,
                "kind": kind,
                "owner": owner,
                "bcast": bcast_id,
                "sent": sent,
            }
        )

    def _attribute(self, audit: RequestAudit, url: str, kind: str,
                   owner: Optional[str], now: float) -> None:
        """Tag ``audit`` with the youngest pending broadcast of ``kind``
        for (``audit.node``, ``url``) — the message whose lag caused the
        anomaly."""
        for p in reversed(self._pending.get((audit.node, url), ())):
            if p.kind == kind and (owner is None or p.owner == owner):
                audit.bcast_id = p.bcast_id
                audit.bcast_kind = f"{kind}-dropped" if p.dropped else kind
                audit.staleness = now - p.sent
                return

    # -- request lifecycle ---------------------------------------------------
    def begin(self, node: str, request: Any, now: float) -> RequestAudit:
        """Open the audit record for one accepted request."""
        audit = RequestAudit(
            self.run, node, request.url, request.kind.value, now
        )
        if len(self.audits) >= self.max_records:
            self.dropped_records += 1
        else:
            self.audits.append(audit)
        return audit

    def ideal_check(self, audit: RequestAudit, now: float,
                    cooperative: bool = True) -> None:
        """Snapshot the ideal outcome before the first (real) lookup."""
        outcome, owner = self.ideal_lookup(audit.node, audit.url, now, cooperative)
        audit.ideal = outcome
        audit.ideal_owner = owner
        if outcome == "miss":
            audit.miss_reason = self._miss_reason(audit.url, now)

    def false_hit(self, audit: RequestAudit, url: str, owner: str,
                  wasted: float, now: float) -> None:
        """A remote fetch came back "gone": the owner dropped the entry
        after our (stale) replica said it was there."""
        audit.false_hit_retries += 1
        audit.wasted_seconds += wasted
        if audit.bcast_id is None:
            # The delete broadcast racing our fetch, if it is in flight;
            # with none pending the copy expired before the purger
            # announced it (no message to blame yet).
            self._attribute(audit, url, "delete", owner, now)
        if (
            audit.bcast_id is None
            and audit.bcast_kind is None
            and self.indicator_protocol is not None
        ):
            # No broadcast to blame: the stale/approximate summary
            # indicator itself sent us chasing a phantom copy.
            audit.bcast_kind = "indicator"

    def coalesced(self, audit: RequestAudit) -> None:
        audit.coalesced_waits += 1

    def execution_started(self, audit: RequestAudit, url: str,
                          duplicate: bool, now: float) -> None:
        """The request fell through to CGI execution (the miss side)."""
        audit.executed = True
        key = (audit.node, url)
        count, first = self._inflight.get(key, (0, now))
        self._inflight[key] = (count + 1, first)
        if duplicate:
            audit.duplicate = True
            audit.inflight_window = now - first

    def execution_finished(self, node: str, url: str) -> None:
        key = (node, url)
        count, first = self._inflight.get(key, (1, 0.0))
        if count > 1:
            self._inflight[key] = (count - 1, first)
        else:
            self._inflight.pop(key, None)

    def execution_cost(self, audit: RequestAudit, seconds: float) -> None:
        audit.exec_seconds = seconds

    def insert_raced(self, audit: RequestAudit, url: str, now: float) -> None:
        """At insert time our replica already lists a peer copy: the
        paper's type-2 false miss.  The broadcast that revealed it is the
        one most recently *applied* here during our execution."""
        audit.insert_race = True
        audit.wasted_seconds += audit.exec_seconds
        applied = self._applied.get((audit.node, url))
        if applied is not None and applied["kind"] == "insert":
            audit.bcast_id = applied["bcast"]
            audit.bcast_kind = "insert"
            audit.staleness = applied["applied"] - applied["sent"]
        elif self.indicator_protocol is not None:
            # The peer copy surfaced through a digest/filter refresh,
            # not an attributable broadcast.
            audit.bcast_kind = "indicator"

    def duplicate_cost(self, audit: RequestAudit) -> None:
        """Charge a type-1 false miss's redundant execution as waste."""
        if audit.duplicate:
            audit.wasted_seconds += audit.exec_seconds

    def observe_double_cached(self, node: str, url: str, update: Any,
                              msg: Any, now: float) -> None:
        """An insert broadcast arrived for a url this node also caches:
        the complementary detection window for a false miss that already
        executed here (counted by ``NodeStats.double_cached``)."""
        if len(self.double_cached) >= self.max_records:
            self.dropped_records += 1
            return
        self.double_cached.append(
            {
                "type": "double-cached",
                "run": self.run,
                "node": node,
                "url": url,
                "bcast": getattr(update, "bcast_id", None),
                "staleness": now - msg.send_time,
            }
        )

    def finish(self, audit: RequestAudit, now: float, outcome: str) -> None:
        """Close the audit at response time; the classification is final."""
        audit.finished = now
        audit.outcome = outcome
        if audit.duplicate:
            self.duplicate_cost(audit)
        cls = audit.classification
        self.counts[cls] = self.counts.get(cls, 0) + 1

    # -- export ---------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Deterministic JSONL: request records in begin order, then the
        broadcast-lag samples, drops, and double-cached events (each in
        occurrence order).  Same seed => byte-identical output."""
        return jsonl_text(itertools.chain(
            (audit.to_dict() for audit in self.audits),
            self.lag_samples, self.drops, self.double_cached,
        ))

    def write(self, path: Union[str, Path], meta=None) -> Path:
        return export_jsonl(path, self.to_jsonl(), meta)

    def __repr__(self) -> str:
        return (
            f"<ConsistencyOracle run={self.run} audits={len(self.audits)} "
            f"lags={len(self.lag_samples)}>"
        )


# ---------------------------------------------------------------------------
# loading + report rendering
# ---------------------------------------------------------------------------

class AuditDump:
    """A loaded audit file, grouped by record type."""

    def __init__(self, requests, lags, drops, double_cached):
        self.requests: List[Dict[str, Any]] = requests
        self.lags: List[Dict[str, Any]] = lags
        self.drops: List[Dict[str, Any]] = drops
        self.double_cached: List[Dict[str, Any]] = double_cached

    def finished(self) -> List[Dict[str, Any]]:
        return [r for r in self.requests if r.get("end") is not None]

    def __len__(self) -> int:
        return len(self.requests)

    def __repr__(self) -> str:
        return (
            f"<AuditDump requests={len(self.requests)} lags={len(self.lags)} "
            f"drops={len(self.drops)}>"
        )


def load_audit(path: Union[str, Path]) -> AuditDump:
    """Load a file written by :meth:`ConsistencyOracle.write`."""
    requests: List[Dict[str, Any]] = []
    lags: List[Dict[str, Any]] = []
    drops: List[Dict[str, Any]] = []
    double_cached: List[Dict[str, Any]] = []
    sinks = {
        "request": requests,
        "bcast-lag": lags,
        "bcast-drop": drops,
        "double-cached": double_cached,
    }
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
        if data.get("type") == "meta":
            continue  # provenance manifest, not audit content
        sink = sinks.get(data.get("type"))
        if sink is None:
            raise ValueError(
                f"{path}:{lineno}: unknown record type {data.get('type')!r}"
            )
        sink.append(data)
    return AuditDump(requests, lags, drops, double_cached)


def render_taxonomy(dump: AuditDump) -> str:
    """The anomaly taxonomy table: one row per classification."""
    finished = dump.finished()
    if not finished:
        return "(no finished requests in the audit)"
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in finished:
        grouped.setdefault(record["class"], []).append(record)
    order = [c for c in AUDIT_CLASSES if c in grouped]
    order += sorted(c for c in grouped if c not in AUDIT_CLASSES)
    total = len(finished)
    rows = []
    for cls in order:
        group = grouped[cls]
        latencies = [r["end"] - r["start"] for r in group]
        wasted = sum(r.get("wasted_s", 0.0) for r in group)
        attributed = sum(1 for r in group if r.get("bcast") is not None)
        rows.append(
            (
                cls,
                len(group),
                f"{100.0 * len(group) / total:.1f}%",
                sum(latencies) / len(latencies),
                _percentile(latencies, 95),
                wasted,
                attributed,
            )
        )
    unfinished = len(dump.requests) - total
    notes = [
        "wasted = failed remote round-trips (false hits) + redundant "
        "executions (false misses)"
    ]
    indicator_caused = sum(
        1 for r in finished if r.get("bcast_kind") == "indicator"
    )
    if indicator_caused:
        notes.append(
            f"{indicator_caused} anomaly(ies) caused by stale/approximate "
            "summary indicators (digest/bloom), not broadcast lag"
        )
    if dump.double_cached:
        notes.append(
            f"{len(dump.double_cached)} double-cached event(s) — false "
            "misses surfacing on the peer that received the insert broadcast"
        )
    if dump.drops:
        notes.append(f"{len(dump.drops)} directory update(s) lost to injected loss")
    if unfinished:
        notes.append(f"{unfinished} request(s) still in flight at simulation end")
    return render_table(
        "Consistency-audit taxonomy (one classification per request)",
        ["class", "requests", "share", "mean rt (s)", "p95 rt (s)",
         "wasted (s)", "attributed"],
        rows,
        note="; ".join(notes),
    )


def render_staleness(dump: AuditDump) -> str:
    """Distribution of directory-replica staleness windows, by update
    kind: how long a broadcast was in flight before it was applied."""
    if not dump.lags:
        return "(no broadcast applications recorded)"
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in dump.lags:
        grouped.setdefault(record["kind"], []).append(record)
    rows = []
    for kind in sorted(grouped):
        lags = [r["lag"] for r in grouped[kind]]
        wires = [r["wire"] for r in grouped[kind] if r.get("wire") is not None]
        rows.append(
            (
                kind,
                len(lags),
                sum(lags) / len(lags),
                _percentile(lags, 50),
                _percentile(lags, 90),
                _percentile(lags, 99),
                max(lags),
                (sum(wires) / len(wires)) if wires else math.nan,
            )
        )
    return render_table(
        "Staleness windows: broadcast send -> replica apply (seconds)",
        ["update", "n", "mean", "p50", "p90", "p99", "max", "mean wire"],
        rows,
        note="lag spans NIC serialization + wire + receiver mailbox wait + "
        "directory write; 'mean wire' is the network share alone",
    )


def render_anomaly_timeline(
    dump: AuditDump, bins: int = 60, run: Optional[int] = None
) -> str:
    """Per-node sparklines: request volume and anomaly counts over time.

    Every run restarts the simulation clock at zero, so runs are charted
    separately; ``run`` limits the output to one of them.
    """
    finished = dump.finished()
    if not finished:
        return "(no finished requests in the audit)"
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    runs = sorted({r.get("run", 0) for r in finished})
    if run is not None:
        if run not in runs:
            return f"(no finished requests for run {run}; have runs {runs})"
        runs = [run]
    blocks = []
    for run_id in runs:
        records = [r for r in finished if r.get("run", 0) == run_id]
        t0 = min(r["start"] for r in records)
        t1 = max(r["end"] for r in records)
        extent = max(t1 - t0, 1e-12)
        lines = [
            f"== Anomaly timeline, run {run_id} ({bins} bins over "
            f"[{t0:.3f}s, {t1:.3f}s]) ==",
        ]
        for node in sorted({r["node"] for r in records}):
            node_records = [r for r in records if r["node"] == node]
            volume = [0] * bins
            anomalies = [0] * bins
            for r in node_records:
                b = min(bins - 1, int((r["end"] - t0) / extent * bins))
                volume[b] += 1
                if r["class"] in ANOMALY_CLASSES:
                    anomalies[b] += 1
            n_anom = sum(anomalies)
            lines.append(f"{node}:")
            lines.append(
                f"  requests  {sparkline(volume)}  ({len(node_records)} total)"
            )
            lines.append(
                f"  anomalies {sparkline(anomalies)}  ({n_anom} total)"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_audit_report(dump: AuditDump, bins: int = 60) -> str:
    """Default ``repro audit`` output: taxonomy + staleness + timelines."""
    finished = dump.finished()
    anomalies = sum(1 for r in finished if r["class"] in ANOMALY_CLASSES)
    head = (
        f"{len(dump.requests)} requests audited ({len(finished)} finished, "
        f"{anomalies} consistency anomalies), {len(dump.lags)} broadcast "
        f"applications, {len(dump.drops)} dropped updates"
    )
    return "\n\n".join(
        [
            head,
            render_taxonomy(dump),
            render_staleness(dump),
            render_anomaly_timeline(dump, bins=bins),
        ]
    )
