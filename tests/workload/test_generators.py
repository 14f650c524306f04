"""Unit tests for workload generators: ADL, WebStone, hit-ratio, Zipf."""

import hashlib

import pytest

from repro.experiments import figure4_workload
from repro.workload import (
    PAPER_ADL,
    WEBSTONE_FILE_MIX,
    AdlSpec,
    generate_adl_trace,
    hit_ratio_trace,
    nullcgi_trace,
    uncacheable_cgi_trace,
    unique_cgi_trace,
    webstone_file_trace,
    zipf_cgi_trace,
)


class TestAdl:
    def test_counts_match_paper(self):
        trace = generate_adl_trace(PAPER_ADL, seed=0)
        assert len(trace) == 69_337
        cgi = trace.cgi_only()
        # 28,663 CGI requests (41.3%) in the paper.
        assert abs(len(cgi) - 28_663) <= 5

    def test_mean_cgi_time_near_paper(self):
        cgi = generate_adl_trace(PAPER_ADL, seed=0).cgi_only()
        assert 1.3 <= cgi.mean_cpu_time() <= 1.9  # paper: 1.6 s

    def test_deterministic_per_seed(self):
        a = generate_adl_trace(PAPER_ADL.scaled(0.01), seed=3)
        b = generate_adl_trace(PAPER_ADL.scaled(0.01), seed=3)
        assert [r.url for r in a] == [r.url for r in b]

    def test_different_seeds_differ(self):
        a = generate_adl_trace(PAPER_ADL.scaled(0.01), seed=1)
        b = generate_adl_trace(PAPER_ADL.scaled(0.01), seed=2)
        assert [r.url for r in a] != [r.url for r in b]

    def test_scaled_spec(self):
        small = PAPER_ADL.scaled(0.1)
        assert small.total_requests == pytest.approx(6_934, abs=2)
        assert small.hot_distinct == 20
        with pytest.raises(ValueError):
            PAPER_ADL.scaled(0)

    def test_cold_draws_consistency(self):
        assert (
            PAPER_ADL.cold_draws
            == PAPER_ADL.cgi_requests - PAPER_ADL.hot_draws - PAPER_ADL.warm_draws
        )

    def test_overcommitted_bands_rejected(self):
        bad = AdlSpec(total_requests=100, hot_draws=200, warm_draws=200)
        with pytest.raises(ValueError):
            bad.cold_draws

    def test_uncacheable_fraction(self):
        spec = AdlSpec(
            total_requests=2_000, hot_draws=100, warm_draws=100,
            hot_distinct=20, warm_distinct=50, file_distinct=100,
            uncacheable_fraction=0.5,
        )
        trace = generate_adl_trace(spec, seed=0)
        cold = [r for r in trace if r.is_cgi and "cold" in r.url]
        uncacheable = [r for r in cold if not r.cacheable]
        assert len(uncacheable) == pytest.approx(len(cold) / 2, abs=1)


class TestWebstone:
    def test_mix_probabilities_sum_to_one(self):
        assert sum(p for _, p in WEBSTONE_FILE_MIX) == pytest.approx(1.0)

    def test_trace_only_uses_mix_sizes(self):
        trace = webstone_file_trace(500, seed=0)
        sizes = {size for size, _ in WEBSTONE_FILE_MIX}
        assert {r.response_size for r in trace} <= sizes
        assert all(not r.is_cgi for r in trace)

    def test_empirical_mix_close_to_spec(self):
        trace = webstone_file_trace(20_000, seed=0)
        counts = trace.url_counts()
        frac_5k = counts["/webstone/file5120.bin"] / len(trace)
        assert frac_5k == pytest.approx(0.50, abs=0.02)

    def test_one_file_per_size_class(self):
        trace = webstone_file_trace(1_000, seed=0)
        assert trace.unique_count <= len(WEBSTONE_FILE_MIX)

    def test_deterministic(self):
        a = webstone_file_trace(100, seed=5)
        b = webstone_file_trace(100, seed=5)
        assert [r.url for r in a] == [r.url for r in b]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            webstone_file_trace(-1)


class TestNullCgi:
    def test_all_identical(self):
        trace = nullcgi_trace(10)
        assert trace.unique_count == 1
        assert trace.max_possible_hits() == 9

    def test_small_output(self):
        trace = nullcgi_trace(1)
        assert trace[0].response_size < 100

    def test_cacheable_with_default_threshold(self):
        assert nullcgi_trace(1)[0].cpu_time > 0


class TestUniqueTraces:
    def test_unique_cgi_all_distinct(self):
        trace = unique_cgi_trace(180)
        assert trace.unique_count == 180
        assert trace.max_possible_hits() == 0
        assert all(r.cacheable for r in trace)

    def test_uncacheable_trace(self):
        trace = uncacheable_cgi_trace(10)
        assert all(not r.cacheable for r in trace)

    def test_one_second_default(self):
        assert unique_cgi_trace(2)[0].cpu_time == 1.0


class TestHitRatioTrace:
    def test_exact_paper_counts(self):
        trace = hit_ratio_trace()
        assert len(trace) == 1_600
        assert trace.unique_count == 1_122
        assert trace.max_possible_hits() == 478

    def test_all_cacheable_cgi(self):
        trace = hit_ratio_trace(total=100, unique=60)
        assert all(r.is_cgi and r.cacheable for r in trace)

    def test_deterministic(self):
        a = hit_ratio_trace(seed=9)
        b = hit_ratio_trace(seed=9)
        assert [r.url for r in a] == [r.url for r in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            hit_ratio_trace(total=10, unique=20)
        with pytest.raises(ValueError):
            hit_ratio_trace(total=10, unique=0)

    def test_repeats_share_cpu_time(self):
        trace = hit_ratio_trace(total=200, unique=50, seed=0)
        by_url = trace.by_url()
        for reqs in by_url.values():
            assert len({r.cpu_time for r in reqs}) == 1


class TestZipfTrace:
    def test_shape(self):
        trace = zipf_cgi_trace(500, 50, seed=0)
        assert len(trace) == 500
        assert trace.unique_count <= 50

    def test_skew_concentrates_popularity(self):
        trace = zipf_cgi_trace(5_000, 100, zipf=1.5, seed=0)
        counts = trace.url_counts()
        top = max(counts.values())
        assert top > len(trace) * 0.2  # rank-1 dominates under heavy skew

    def test_bad_distinct_rejected(self):
        with pytest.raises(ValueError):
            zipf_cgi_trace(10, 0)


def trace_digest(trace):
    h = hashlib.sha256()
    for r in trace:
        fields = (r.url, r.kind.value, r.response_size, r.cpu_time.hex(), r.cacheable)
        h.update(repr(fields).encode())
    return h.hexdigest()


#: Trace contents recorded when every draw still built its own Request;
#: sharing one Request per distinct URL must not change a single field.
GOLDEN = {
    ("figure4", 0): "494214626fb395c481a5e13f5ea4908364e3657e5117cd015d6015f1636bc40c",
    ("adl", 0): "13eccd07ee93481f5a58779ddaa7da688ea0ce3621e56721c19963106b24796c",
    ("zipf", 0): "71d4208180435af5dd3ec70a953e1315d485aed8de52d9ce41bfa6506b5e8295",
    ("figure4", 3): "a7e8c30231a0235edb57418fde5643d49eac0e82cde63228e02209b0690fe5bd",
    ("adl", 3): "2558f613750fd900bcce8189edb8d6c00ad2756e4fd7684945565c6421bf223b",
    ("zipf", 3): "ab18d331fe4c204ae5ff823fa42236a6be4ad50433aad4f5bd977fefb80c653e",
    ("webstone", 0): "318b14d78772f498f2b311ae5a0940982e1700e115c16158f9e1b4b37997c9b0",
    ("webstone", 3): "c8b67e0ad03ed0a1a7ba82331f092302ea495f59b755dbd210260b6ddc271299",
}
MAKERS = {
    "figure4": lambda s: figure4_workload(0.05, s),
    "adl": lambda s: generate_adl_trace(PAPER_ADL.scaled(0.1), s),
    "zipf": lambda s: zipf_cgi_trace(2000, 50, seed=s),
    "webstone": lambda s: webstone_file_trace(2000, s),
}


class TestSharedRequests:
    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN))
    def test_contents_unchanged(self, kind, seed):
        assert trace_digest(MAKERS[kind](seed)) == GOLDEN[kind, seed]

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_repeats_are_one_instance(self, kind):
        trace = MAKERS[kind](0)
        assert trace.repeat_count > 0
        for reqs in trace.by_url().values():
            assert all(r is reqs[0] for r in reqs)
