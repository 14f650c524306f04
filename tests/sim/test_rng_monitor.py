"""Unit tests for named RNG streams and measurement helpers."""

import math

import pytest

from repro.sim import RandomStreams, Tally


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(42).stream("arrivals")
        b = RandomStreams(42).stream("arrivals")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("s").random()
        b = RandomStreams(2).stream("s").random()
        assert a != b

    def test_numpy_stream_reproducible(self):
        a = RandomStreams(7).numpy_stream("w").random(4)
        b = RandomStreams(7).numpy_stream("w").random(4)
        assert (a == b).all()

    def test_spawn_independent(self):
        root = RandomStreams(3)
        child = root.spawn("node0")
        assert child.seed != root.seed
        assert child.stream("s").random() != root.stream("s").random()


class TestTally:
    def test_empty(self):
        t = Tally()
        assert t.count == 0
        assert math.isnan(t.mean)

    def test_mean_min_max_total(self):
        t = Tally()
        for v in (1.0, 2.0, 3.0, 4.0):
            t.observe(v)
        assert t.mean == pytest.approx(2.5)
        assert t.minimum == 1.0
        assert t.maximum == 4.0
        assert t.total == 10.0
        assert len(t) == 4

    def test_variance_matches_textbook(self):
        t = Tally()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            t.observe(v)
        assert t.variance == pytest.approx(32.0 / 7.0)
        assert t.stdev == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_percentiles(self):
        t = Tally()
        for v in range(1, 101):
            t.observe(float(v))
        assert t.percentile(50) == pytest.approx(50.5)
        assert t.percentile(0) == 1.0
        assert t.percentile(100) == 100.0

    def test_percentile_without_samples_rejected(self):
        t = Tally(keep_samples=False)
        t.observe(1.0)
        with pytest.raises(RuntimeError):
            t.percentile(50)

    def test_merge_equals_combined_observation(self):
        combined = Tally()
        a, b = Tally(), Tally()
        for v in (1.0, 5.0, 2.0):
            a.observe(v)
            combined.observe(v)
        for v in (9.0, 3.0):
            b.observe(v)
            combined.observe(v)
        a.merge(b)
        assert a.count == combined.count
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.minimum == combined.minimum
        assert a.maximum == combined.maximum

    def test_merge_into_empty(self):
        a, b = Tally(), Tally()
        b.observe(4.0)
        a.merge(b)
        assert a.mean == 4.0
        a2 = Tally()
        a2.merge(Tally())
        assert a2.count == 0
