"""Property tests for the streaming quantile sketches.

The windowed telemetry reports p50/p99 from online sketches instead of
exact ``Tally`` percentiles, so these tests pin down the error contract
on adversarial stream shapes (constant, bimodal, heavy-tail, monotone):

* t-digest: rank error at most ``TDigest.RANK_ERROR_BOUND`` (0.05) at
  every tested quantile, on every stream family.  This is the sketch
  the windows actually report from.
* t-digest below ``compression`` points: exact, equal to
  :func:`exact_percentile` of the samples, also across merges.
* ``StreamingWindow.merge`` is associative: counts and sums exactly,
  quantiles within the t-digest bound of the exact union percentile.

Rank error (not value error) is the right metric: a heavy-tail stream
can make any fixed value-error bound meaningless, but "the estimate
sits within 5% of the requested rank" survives arbitrary scales.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.streaming import (
    StreamingWindow,
    TDigest,
    exact_percentile,
    rank_error,
)

QS = (0.5, 0.9, 0.99)


# --------------------------------------------------------------------------
# Stream-shape strategies.  Each draws a list of floats with a distinct
# adversarial character; sizes stay >= 100 so rank granularity (1/n)
# does not dominate the sketch error being measured.
# --------------------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def constant_stream(draw):
    value = draw(finite)
    n = draw(st.integers(min_value=100, max_value=400))
    return [value] * n


@st.composite
def monotone_stream(draw):
    values = sorted(
        draw(st.lists(finite, min_size=100, max_size=400))
    )
    if draw(st.booleans()):
        values.reverse()
    return values


@st.composite
def bimodal_stream(draw):
    lo_center = draw(st.floats(min_value=0.001, max_value=1.0))
    hi_center = draw(st.floats(min_value=100.0, max_value=10_000.0))
    n = draw(st.integers(min_value=100, max_value=400))
    picks = draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    )
    jitter = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e-3),
            min_size=n,
            max_size=n,
        )
    )
    return [
        (hi_center if pick else lo_center) + j
        for pick, j in zip(picks, jitter)
    ]


@st.composite
def heavy_tail_stream(draw):
    alpha = draw(st.floats(min_value=1.05, max_value=2.5))
    n = draw(st.integers(min_value=100, max_value=400))
    uniforms = draw(
        st.lists(
            st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
            min_size=n,
            max_size=n,
        )
    )
    # Inverse-CDF Pareto: heavy tail, occasionally enormous outliers.
    return [u ** (-1.0 / alpha) for u in uniforms]


any_stream = st.one_of(
    constant_stream(), monotone_stream(), bimodal_stream(),
    heavy_tail_stream(),
)


def rank_err(data, estimate, q):
    return abs(rank_error(data, estimate, q))


class TestTDigest:
    @given(data=any_stream)
    @settings(max_examples=60, deadline=None)
    def test_rank_error_within_documented_bound(self, data):
        digest = TDigest()
        for x in data:
            digest.observe(x)
        for q in QS:
            err = rank_err(data, digest.quantile(q), q)
            bound = max(TDigest.RANK_ERROR_BOUND, 2.0 / len(data))
            assert err <= bound, (q, err, bound)

    @given(data=any_stream)
    @settings(max_examples=40, deadline=None)
    def test_weight_and_range_preserved(self, data):
        digest = TDigest(compression=50.0)
        for x in data:
            digest.observe(x)
        assert math.isclose(digest.count, len(data))
        assert digest.min == min(data)
        assert digest.max == max(data)
        # The k-scale merge criterion caps compressed centroids at
        # ~compression/2; the early-return path tolerates up to
        # `compression` uncompacted centroids.
        assert digest.centroid_count() <= 50 + 1
        for q in QS:
            assert min(data) <= digest.quantile(q) <= max(data)

    @given(
        a=st.lists(finite, min_size=1, max_size=60),
        b=st.lists(finite, max_size=60),
        q=st.sampled_from((0.0, 0.5, 0.9, 0.99, 1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_below_compression(self, a, b, q):
        """Up to ``compression`` points the digest answers exactly,
        through a merge and a state round trip; one point more and it
        falls back to the centroids."""
        digest, part = TDigest(), TDigest()
        for x in a:
            digest.observe(x)
        for x in b:
            part.observe(x)
        digest.merge(part)
        digest = TDigest.from_state(digest.to_state())
        expected = exact_percentile(sorted(a + b), q)
        assert digest.quantile(q) == expected
        for x in range(int(digest.compression) - len(a) - len(b) + 1):
            digest.observe(float(x))
        assert digest.to_state()["samples"] is None

    @given(
        chunks=st.lists(
            any_stream, min_size=2, max_size=4
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_matches_union(self, chunks):
        merged = TDigest()
        for chunk in chunks:
            part = TDigest()
            for x in chunk:
                part.observe(x)
            merged.merge(part)
        union = [x for chunk in chunks for x in chunk]
        assert math.isclose(merged.count, len(union))
        for q in QS:
            err = rank_err(union, merged.quantile(q), q)
            bound = max(TDigest.RANK_ERROR_BOUND, 2.0 / len(union))
            assert err <= bound, (q, err, bound)


class TestWindowMerge:
    @staticmethod
    def _window(samples, index=0, offset=0):
        """``offset`` keeps outcome assignment a function of a sample's
        global position, so splitting a stream across windows assigns
        the same outcomes the unsplit stream would."""
        w = StreamingWindow(run=1, index=index, t0=float(index),
                           t1=float(index + 1))
        for i, x in enumerate(samples, start=offset):
            outcome = ("local-cache", "exec", "remote-cache")[i % 3]
            w.observe(outcome, x, ok=(i % 7 != 6))
        return w

    @given(
        a=st.lists(finite, min_size=1, max_size=120),
        b=st.lists(finite, min_size=1, max_size=120),
        c=st.lists(finite, min_size=1, max_size=120),
    )
    @settings(max_examples=40, deadline=None)
    # Heavy ties in a 7-point union: the centroid interpolation put the
    # merged p50 at 0.0, rank error 0.357 against the 0.286 bound.
    @example(
        a=[0.0],
        b=[-9.0, -9.0, -5.87e-16],
        c=[-9.0, -5.79e-173, -2.50e-308],
    )
    def test_associative(self, a, b, c):
        nb, nc = len(a), len(a) + len(b)
        left = self._window(a, 0).merge(self._window(b, 1, nb)).merge(
            self._window(c, 2, nc))
        right = self._window(a, 0).merge(
            self._window(b, 1, nb).merge(self._window(c, 2, nc)))
        for field in ("completions", "errors", "hits", "misses"):
            assert getattr(left, field) == getattr(right, field)
        assert math.isclose(left.latency_sum, right.latency_sum)
        assert left.latency_min == right.latency_min
        assert left.latency_max == right.latency_max
        assert set(left.by_outcome) == set(right.by_outcome)
        for outcome, (count, total) in left.by_outcome.items():
            other_count, other_total = right.by_outcome[outcome]
            assert count == other_count
            # Float addition itself is not associative; counts are.
            assert math.isclose(total, other_total, rel_tol=1e-9,
                                abs_tol=1e-9)
        union = sorted(a + b + c)
        for q, estimate in ((0.5, left.p50), (0.99, left.p99)):
            bound = max(TDigest.RANK_ERROR_BOUND, 2.0 / len(union))
            assert rank_err(union, estimate, q) <= bound

    @given(samples=st.lists(finite, min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_merge_against_single_window(self, samples):
        """Splitting a stream across windows then merging equals one
        window fed the whole stream (counts exactly, quantiles within
        the sketch bound)."""
        whole = self._window(samples)
        half = len(samples) // 2
        split = self._window(samples[:half], 0).merge(
            self._window(samples[half:], 1, offset=half))
        assert split.completions == whole.completions
        assert split.hits == whole.hits
        assert math.isclose(split.latency_sum, whole.latency_sum)
        for q, estimate in ((0.5, split.p50), (0.99, split.p99)):
            data = sorted(samples)
            bound = max(TDigest.RANK_ERROR_BOUND, 2.0 / len(data))
            assert rank_err(data, estimate, q) <= bound
