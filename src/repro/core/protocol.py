"""Wire messages of the Swala cluster protocol.

Three conversations exist (paper §4.1):

* **HTTP** — client -> server request, server -> client response;
* **directory updates** — asynchronous insert/delete broadcasts between
  cacher modules (the weak inter-node consistency protocol of §4.2), or —
  under the indicator protocols of :mod:`repro.core.dirsync` — periodic
  cache digests and batched Bloom-filter delta messages;
* **cache fetch** — a request/reply session that pulls a cached result body
  from the owning node.

Sizes are on-the-wire byte counts used for NIC serialization; response and
fetch-reply messages carry the body, so their size is the payload size plus
a small header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..cache import CacheEntry
from ..workload import Request

__all__ = [
    "HttpConnection",
    "HttpResponse",
    "CacheInsert",
    "CacheDelete",
    "CacheDigest",
    "IndicatorDeltas",
    "FetchRequest",
    "FetchReply",
    "HTTP_REQUEST_BYTES",
    "HTTP_RESPONSE_HEADER_BYTES",
    "DIRECTORY_UPDATE_BYTES",
    "DIGEST_HEADER_BYTES",
    "DIGEST_BYTES_PER_ENTRY",
    "DELTA_HEADER_BYTES",
    "DELTA_RECORD_BYTES",
    "FETCH_REQUEST_BYTES",
    "FETCH_MISS_BYTES",
    "FETCH_HEADER_BYTES",
]

#: A GET line + headers.
HTTP_REQUEST_BYTES = 300
#: Status line + response headers preceding the body.
HTTP_RESPONSE_HEADER_BYTES = 200
#: One replicated-directory insert/delete record.
DIRECTORY_UPDATE_BYTES = 250
#: Fixed preamble of a cache digest (owner, sequence, entry count).
DIGEST_HEADER_BYTES = 64
#: Per-entry cost of a cache digest: a hashed URL key, not the URL or the
#: 250-byte directory record (Squid digests spend ~5 bytes/entry; 8 here
#: keeps collisions negligible at digital-library catalog sizes).
DIGEST_BYTES_PER_ENTRY = 8
#: Fixed preamble of an indicator delta batch.
DELTA_HEADER_BYTES = 48
#: One batched insert/delete delta: op tag + hashed URL key.
DELTA_RECORD_BYTES = 12
#: Remote-fetch request (URL + requester identity).
FETCH_REQUEST_BYTES = 200
#: Remote-fetch negative reply (the "false hit" answer).
FETCH_MISS_BYTES = 80
#: Header preceding a remote-fetch body.
FETCH_HEADER_BYTES = 120


@dataclass
class HttpConnection:
    """An accepted client connection, queued for a request thread."""

    request: Request
    client: str
    reply_port: str
    sent_at: float


@dataclass
class HttpResponse:
    """Server's answer; ``source`` tells how the body was produced."""

    request: Request
    server: str
    #: "file" | "exec" | "local-cache" | "remote-cache"
    source: str
    ok: bool = True
    #: Echo of the connection's send time (lets open-loop clients compute
    #: per-request latency without bookkeeping).
    sent_at: float = -1.0

    @property
    def size(self) -> int:
        return HTTP_RESPONSE_HEADER_BYTES + self.request.response_size


@dataclass
class CacheInsert:
    """Broadcast when a node adds a cache entry.

    ``bcast_id`` is stamped by the consistency oracle (when attached) so
    receivers can attribute replica staleness to the exact broadcast; it
    is ``None`` — and costs nothing — in normal runs.
    """

    entry: CacheEntry
    bcast_id: Optional[int] = None


@dataclass
class CacheDelete:
    """Broadcast when a node evicts/expires a cache entry.

    ``bcast_id``: see :class:`CacheInsert`.
    """

    url: str
    owner: str
    bcast_id: Optional[int] = None


@dataclass
class CacheDigest:
    """Periodic full-cache summary (``directory_protocol = digest``).

    ``urls`` is the complete set the owner caches at send time; a
    receiver replaces its whole view of ``owner``, which makes applying
    the same digest twice a no-op.  On the wire this is
    ``DIGEST_HEADER_BYTES + DIGEST_BYTES_PER_ENTRY * len(urls)``.
    """

    owner: str
    urls: Tuple[str, ...] = field(default_factory=tuple)
    seq: int = 0


@dataclass
class IndicatorDeltas:
    """A batch of Bloom-indicator deltas (``directory_protocol = bloom``).

    ``ops`` is an ordered tuple of ``("i" | "d", url)`` pairs; receivers
    add/remove them in the sender's counting filter in order.  On the
    wire: ``DELTA_HEADER_BYTES + DELTA_RECORD_BYTES * len(ops)``.
    """

    owner: str
    ops: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)
    seq: int = 0
    #: Receiver-side memo, not on the wire: the filter a receiver held
    #: for ``owner`` before this batch -> that filter with the batch
    #: applied (see :meth:`repro.core.dirsync.BloomSync.handle_update`).
    applied: Dict[Any, Any] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass
class FetchRequest:
    """Ask ``owner`` for the body of a cached result.

    ``seq`` correlates the reply with its request so a late reply (after
    the requester timed out and moved on) is recognized and discarded.
    """

    url: str
    requester: str
    reply_port: str
    seq: int = 0


@dataclass
class FetchReply:
    """Owner's answer to a fetch; body rides along when ``hit``."""

    url: str
    hit: bool
    size: int = 0
    seq: int = 0
