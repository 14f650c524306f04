"""Synthetic Alexandria Digital Library (ADL) access log.

The paper analyzes the real ADL server log for Sep–Oct 1997.  We do not
have that log, so this module synthesizes one calibrated to every statistic
the paper publishes:

* 69,337 analyzed requests, 28,663 (41.3%) CGI;
* mean response times 0.03 s (file) and 1.6 s (CGI); CGI is ~97% of the
  total service time (~46,000 s);
* Table 1's surviving row: caching CGIs longer than 1 s needs ~189 cache
  entries, yields ~2,899 hits and saves ~13,241 s ≈ 29% of service time.

The CGI population is a three-band mixture (the natural reading of those
numbers):

* **hot** — a couple hundred distinct, slow (mean ≈ 4.6 s), heavily
  repeated queries (map-browsing operations many users share).  These alone
  account for the 1-second row of Table 1.
* **warm** — a few thousand distinct mid-cost queries with mild repetition;
  they contribute repeats only at the 0.1/0.5-second thresholds.
* **cold** — one-off queries (unique session-specific searches) with a
  heavy-tailed duration distribution; they dominate request count and fill
  the remaining service time but are uncacheable *in effect* (no repeats).

Popularity within the hot and warm bands is Zipf-like, which also gives the
trace its temporal locality (the paper's Fig. 4 workload "contains the same
number of repeats and the same amount of temporal locality as the original
log").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..sim import RandomStreams
from .request import Request
from .traces import Trace

__all__ = ["AdlSpec", "generate_adl_trace", "PAPER_ADL"]


@dataclass(frozen=True)
class AdlSpec:
    """Knobs of the synthetic ADL log (defaults = paper calibration)."""

    total_requests: int = 69_337
    cgi_fraction: float = 0.4134

    # hot band
    hot_distinct: int = 200
    hot_draws: int = 3_120
    hot_mean_time: float = 4.57
    hot_sigma: float = 0.8
    hot_zipf: float = 0.9

    # warm band
    warm_distinct: int = 1_500
    warm_draws: int = 6_000
    warm_mean_time: float = 0.35
    warm_sigma: float = 0.6
    warm_zipf: float = 0.8

    # cold band (draws = remaining CGI requests, all distinct)
    cold_mean_time: float = 1.51
    cold_sigma: float = 1.2

    #: CGI output size (bytes), lognormal.
    cgi_mean_output: float = 8_000.0
    cgi_output_sigma: float = 1.0

    # static files
    file_distinct: int = 4_000
    file_zipf: float = 0.9
    file_mean_size: float = 6_000.0
    file_size_sigma: float = 1.3

    #: Fraction of *cold* CGI queries marked uncacheable (authenticated /
    #: per-user output).  Zero keeps Table 1 exactly comparable.
    uncacheable_fraction: float = 0.0

    def scaled(self, factor: float) -> "AdlSpec":
        """A proportionally smaller log (for fast tests and Fig. 4 runs)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")

        def s(n: int) -> int:
            return max(1, int(round(n * factor)))

        return AdlSpec(
            total_requests=s(self.total_requests),
            cgi_fraction=self.cgi_fraction,
            hot_distinct=s(self.hot_distinct),
            hot_draws=s(self.hot_draws),
            hot_mean_time=self.hot_mean_time,
            hot_sigma=self.hot_sigma,
            hot_zipf=self.hot_zipf,
            warm_distinct=s(self.warm_distinct),
            warm_draws=s(self.warm_draws),
            warm_mean_time=self.warm_mean_time,
            warm_sigma=self.warm_sigma,
            warm_zipf=self.warm_zipf,
            cold_mean_time=self.cold_mean_time,
            cold_sigma=self.cold_sigma,
            cgi_mean_output=self.cgi_mean_output,
            cgi_output_sigma=self.cgi_output_sigma,
            file_distinct=s(self.file_distinct),
            file_zipf=self.file_zipf,
            file_mean_size=self.file_mean_size,
            file_size_sigma=self.file_size_sigma,
            uncacheable_fraction=self.uncacheable_fraction,
        )

    @property
    def cgi_requests(self) -> int:
        return int(round(self.total_requests * self.cgi_fraction))

    @property
    def cold_draws(self) -> int:
        n = self.cgi_requests - self.hot_draws - self.warm_draws
        if n < 0:
            raise ValueError("hot_draws + warm_draws exceed total CGI requests")
        return n


#: The calibration used for the Table 1 reproduction.
PAPER_ADL = AdlSpec()


def _lognormal_with_mean(rng: np.random.Generator, mean: float, sigma: float, n: int) -> np.ndarray:
    """Lognormal samples with the requested *arithmetic* mean."""
    mu = np.log(mean) - 0.5 * sigma * sigma
    return rng.lognormal(mu, sigma, size=n)


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-s)
    return w / w.sum()


def generate_adl_trace(spec: AdlSpec = PAPER_ADL, seed: int = 0) -> Trace:
    """Synthesize the log: a shuffled mixture of files + three CGI bands."""
    streams = RandomStreams(seed)
    rng = streams.numpy_stream("adl")

    requests: List[Request] = []

    # --- CGI bands ----------------------------------------------------------
    # Hot and warm bands and static files build one frozen Request per
    # distinct URL and repeat it; the RNG draws are the same either way.
    def band(prefix: str, distinct: int, draws: int, mean_t: float, sigma: float,
             zipf: float) -> None:
        times = _lognormal_with_mean(rng, mean_t, sigma, distinct)
        sizes = np.maximum(
            64, _lognormal_with_mean(rng, spec.cgi_mean_output, spec.cgi_output_sigma, distinct)
        ).astype(int)
        picks = rng.choice(distinct, size=draws, p=_zipf_weights(distinct, zipf))
        pool = [
            Request.cgi(url=f"/cgi-bin/{prefix}?q={q}", cpu_time=t, response_size=n)
            for q, (t, n) in enumerate(zip(times.tolist(), sizes.tolist()))
        ]
        requests.extend([pool[q] for q in picks.tolist()])

    band("hot", spec.hot_distinct, spec.hot_draws, spec.hot_mean_time,
         spec.hot_sigma, spec.hot_zipf)
    band("warm", spec.warm_distinct, spec.warm_draws, spec.warm_mean_time,
         spec.warm_sigma, spec.warm_zipf)

    n_cold = spec.cold_draws
    cold_times = _lognormal_with_mean(rng, spec.cold_mean_time, spec.cold_sigma, n_cold)
    cold_sizes = np.maximum(
        64, _lognormal_with_mean(rng, spec.cgi_mean_output, spec.cgi_output_sigma, n_cold)
    ).astype(int)
    n_uncacheable = int(n_cold * spec.uncacheable_fraction)
    requests.extend(
        Request.cgi(
            url=f"/cgi-bin/cold?session={i}",
            cpu_time=t,
            response_size=n,
            cacheable=(i >= n_uncacheable),
        )
        for i, (t, n) in enumerate(zip(cold_times.tolist(), cold_sizes.tolist()))
    )

    # --- static files -----------------------------------------------------
    n_files = spec.total_requests - spec.cgi_requests
    file_sizes = np.maximum(
        128,
        _lognormal_with_mean(rng, spec.file_mean_size, spec.file_size_sigma,
                             spec.file_distinct),
    ).astype(int)
    picks = rng.choice(
        spec.file_distinct, size=n_files, p=_zipf_weights(spec.file_distinct, spec.file_zipf)
    )
    files = [
        Request.file(url=f"/docs/page{f}.html", size=n)
        for f, n in enumerate(file_sizes.tolist())
    ]
    requests.extend([files[f] for f in picks.tolist()])

    # --- shuffle into an arrival order ----------------------------------------
    order = rng.permutation(len(requests))
    shuffled = [requests[i] for i in order.tolist()]
    return Trace(shuffled, name=f"adl-synthetic(seed={seed})")
