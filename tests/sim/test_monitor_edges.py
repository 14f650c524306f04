"""Edge cases for Tally (sim.monitor)."""

import math

import pytest

from repro.sim import Tally


# -- Tally -------------------------------------------------------------------

def test_empty_tally():
    t = Tally("empty")
    assert t.count == 0 and len(t) == 0
    assert math.isnan(t.mean)
    assert math.isnan(t.variance)
    assert math.isnan(t.stdev)
    assert math.isnan(t.percentile(50))
    assert "empty" in repr(t)


def test_single_sample_variance_is_zero():
    t = Tally()
    t.observe(3.5)
    assert t.mean == 3.5
    assert t.variance == 0.0
    assert t.stdev == 0.0
    assert t.minimum == t.maximum == 3.5
    assert t.percentile(0) == t.percentile(100) == 3.5


def test_percentile_interpolation_and_bounds():
    t = Tally()
    for v in (4.0, 1.0, 3.0, 2.0):
        t.observe(v)
    assert t.percentile(0) == 1.0
    assert t.percentile(100) == 4.0
    assert t.percentile(50) == pytest.approx(2.5)
    assert t.percentile(25) == pytest.approx(1.75)


def test_keep_samples_false_rejects_percentiles():
    t = Tally("stream", keep_samples=False)
    t.observe(1.0)
    assert t.samples == []
    with pytest.raises(RuntimeError, match="stream"):
        t.percentile(50)


def test_to_dict_empty_and_streaming():
    empty = Tally()
    d = empty.to_dict()
    assert d["count"] == 0 and d["total"] == 0.0
    assert d["mean"] is None and d["stdev"] is None
    assert d["min"] is None and d["max"] is None
    assert d["p50"] is None  # keep_samples tally exports percentiles

    stream = Tally(keep_samples=False)
    stream.observe(2.0)
    stream.observe(4.0)
    d = stream.to_dict()
    assert d == {
        "count": 2, "total": 6.0, "mean": 3.0,
        "stdev": pytest.approx(math.sqrt(2.0)), "min": 2.0, "max": 4.0,
    }
    assert "p50" not in d


def test_merge_matches_single_stream():
    a, b, both = Tally(), Tally(), Tally()
    for i, v in enumerate([1.0, 5.0, 2.0, 8.0, 3.0]):
        (a if i % 2 == 0 else b).observe(v)
        both.observe(v)
    a.merge(b)
    assert a.count == both.count
    assert a.mean == pytest.approx(both.mean)
    assert a.variance == pytest.approx(both.variance)
    assert a.minimum == both.minimum and a.maximum == both.maximum
    assert sorted(a.samples) == sorted(both.samples)


def test_merge_empty_cases():
    a = Tally()
    a.merge(Tally())          # empty into empty: still empty
    assert a.count == 0 and math.isnan(a.mean)
    b = Tally()
    b.observe(7.0)
    a.merge(b)                # into empty: adopts the other's state
    assert (a.count, a.mean) == (1, 7.0)
    b.merge(Tally())          # empty into populated: no-op
    assert (b.count, b.mean) == (1, 7.0)
