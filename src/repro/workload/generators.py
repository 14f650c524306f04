"""Purpose-built workloads for the paper's overhead and hit-ratio runs."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..sim import RandomStreams
from .request import Request
from .traces import Trace

__all__ = [
    "unique_cgi_trace",
    "uncacheable_cgi_trace",
    "hit_ratio_trace",
    "zipf_cgi_trace",
]


def unique_cgi_trace(
    n_requests: int = 180,
    cpu_time: float = 1.0,
    output_bytes: int = 4_000,
) -> Trace:
    """Every request unique and cacheable — all misses + inserts (Table 3).

    The paper sends 180 requests that each "run for one second on an
    unloaded CPU" to force a miss, insert, and broadcast per request.
    """
    reqs = [
        Request.cgi(
            url=f"/cgi-bin/unique?n={i}", cpu_time=cpu_time, response_size=output_bytes
        )
        for i in range(n_requests)
    ]
    return Trace(reqs, name=f"unique-cgi(n={n_requests})")


def uncacheable_cgi_trace(
    n_requests: int = 180,
    cpu_time: float = 1.0,
    output_bytes: int = 4_000,
) -> Trace:
    """Uncacheable 1-second CGIs (Table 4's foreground work)."""
    reqs = [
        Request.cgi(
            url=f"/cgi-bin/private?n={i}",
            cpu_time=cpu_time,
            response_size=output_bytes,
            cacheable=False,
        )
        for i in range(n_requests)
    ]
    return Trace(reqs, name=f"uncacheable-cgi(n={n_requests})")


def hit_ratio_trace(
    total: int = 1_600,
    unique: int = 1_122,
    seed: int = 0,
    cpu_time_mean: float = 1.0,
    cpu_time_sigma: float = 0.5,
    output_bytes: int = 6_000,
    zipf: float = 1.1,
) -> Trace:
    """The Tables 5/6 workload: ``total`` requests over ``unique`` URLs.

    Constructed exactly: ``unique`` distinct queries, with the ``total -
    unique`` repeat occurrences dealt over a Zipf-skewed subset of them, then
    deterministically shuffled.  The theoretical hit upper bound is thus
    exactly ``total - unique`` (478 for the paper's numbers).
    """
    if unique > total:
        raise ValueError(f"unique ({unique}) cannot exceed total ({total})")
    if unique < 1:
        raise ValueError("need at least one unique request")
    rng = RandomStreams(seed).numpy_stream("hit-ratio")

    times = np.maximum(
        0.05,
        rng.lognormal(
            np.log(cpu_time_mean) - 0.5 * cpu_time_sigma**2, cpu_time_sigma, unique
        ),
    )
    base = [
        Request.cgi(
            url=f"/cgi-bin/adl?item={i}",
            cpu_time=float(times[i]),
            response_size=output_bytes,
        )
        for i in range(unique)
    ]

    # Deal the repeats over the unique queries with Zipf skew.
    extra = total - unique
    ranks = np.arange(1, unique + 1, dtype=float)
    weights = ranks ** (-zipf)
    weights /= weights.sum()
    picks = rng.choice(unique, size=extra, p=weights)

    requests: List[Request] = list(base) + [base[i] for i in picks]
    order = rng.permutation(total)
    return Trace(
        [requests[i] for i in order],
        name=f"hit-ratio(total={total},unique={unique},seed={seed})",
    )


def zipf_cgi_trace(
    n_requests: int,
    n_distinct: int,
    zipf: float = 1.0,
    cpu_time_mean: float = 1.0,
    cpu_time_sigma: float = 0.6,
    output_bytes: int = 6_000,
    seed: int = 0,
    url_prefix: str = "/cgi-bin/zipf",
) -> Trace:
    """Generic Zipf-popularity CGI workload (ablations, examples)."""
    if n_distinct < 1:
        raise ValueError("need at least one distinct request")
    rng = RandomStreams(seed).numpy_stream("zipf-cgi")
    times = np.maximum(
        0.01,
        rng.lognormal(
            np.log(cpu_time_mean) - 0.5 * cpu_time_sigma**2, cpu_time_sigma, n_distinct
        ),
    )
    ranks = np.arange(1, n_distinct + 1, dtype=float)
    weights = ranks ** (-zipf)
    weights /= weights.sum()
    picks = rng.choice(n_distinct, size=n_requests, p=weights)
    pool = [
        Request.cgi(url=f"{url_prefix}?q={q}", cpu_time=t, response_size=output_bytes)
        for q, t in enumerate(times.tolist())
    ]
    return Trace(
        [pool[q] for q in picks.tolist()],
        name=f"zipf-cgi(n={n_requests},d={n_distinct},s={zipf})",
    )
