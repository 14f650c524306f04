"""WebStone workload (paper §5.1).

WebStone is the benchmark tool the paper uses for single-node comparisons.
Its standard file mix, quoted verbatim in the paper: a 500-byte file 35% of
the time, 5 KB 50%, 50 KB 14%, 500 KB 0.9%, and 1 MB 0.1%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..sim import RandomStreams
from .request import Request
from .traces import Trace

__all__ = ["WEBSTONE_FILE_MIX", "webstone_file_trace", "nullcgi_trace"]

#: (file size in bytes, probability) — the paper's quoted mix.
WEBSTONE_FILE_MIX: Sequence[Tuple[int, float]] = (
    (500, 0.35),
    (5 * 1024, 0.50),
    (50 * 1024, 0.14),
    (500 * 1024, 0.009),
    (1024 * 1024, 0.001),
)


def webstone_file_trace(n_requests: int, seed: int = 0) -> Trace:
    """A random WebStone file-mix request sequence.

    Each size class is a single file (WebStone fetches a fixed file set), so
    the server's buffer cache warms quickly — as on the real testbed.
    """
    if n_requests < 0:
        raise ValueError(f"negative request count {n_requests}")
    rng = RandomStreams(seed).stream("webstone")
    sizes = [size for size, _ in WEBSTONE_FILE_MIX]
    weights = [p for _, p in WEBSTONE_FILE_MIX]
    files = {size: Request.file(url=f"/webstone/file{size}.bin", size=size) for size in sizes}
    requests = [files[rng.choices(sizes, weights=weights)[0]] for _ in range(n_requests)]
    return Trace(requests, name=f"webstone-files(n={n_requests})")


def nullcgi_trace(
    n_requests: int, output_bytes: int = 90, cpu_time: float = 0.0005
) -> Trace:
    """The paper's ``nullcgi``: a CGI that does no work and writes <100 B.

    "No work" still prints a Content-Type header, so the script body costs
    a sub-millisecond sliver of CPU (which also keeps it admissible to a
    cache configured with a zero execution-time limit).  Every request is
    identical, so with caching enabled everything after the first request
    is a hit — isolating the fork/exec overhead vs. the cache fetch
    overhead (Fig. 3).
    """
    if n_requests < 0:
        raise ValueError(f"negative request count {n_requests}")
    req = Request.cgi(
        url="/cgi-bin/nullcgi", cpu_time=cpu_time, response_size=output_bytes
    )
    return Trace([req] * n_requests, name=f"nullcgi(n={n_requests})")
