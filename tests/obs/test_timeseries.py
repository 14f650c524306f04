"""Unit tests for the sim-time telemetry sampler and its dashboard."""

import pytest

from repro.metrics.ascii import sparkline
from repro.obs import (
    TimeSeriesLog,
    TimeSeriesSampler,
    load_timeseries,
    render_timeseries_dashboard,
)
from repro.obs.timeseries import oracle_series
from repro.sim import Simulator


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_draws_minimum(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_ramp_spans_glyphs(self):
        line = sparkline(list(range(8)))
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 8

    def test_explicit_bounds_pin_scale(self):
        # With hi pinned far above the data everything stays low.
        assert sparkline([1, 2], lo=0, hi=100) == "▁▁"

    def test_clamps_out_of_range(self):
        assert sparkline([-5, 50], lo=0, hi=10) == "▁█"


class TestTimeSeriesLog:
    def test_record_and_runs(self):
        log = TimeSeriesLog()
        log.new_run()
        log.record(0.0, {"a": 1.0})
        log.new_run()
        log.record(0.0, {"a": 2.0})
        assert len(log) == 2
        assert log.runs() == [1, 2]

    def test_bounded(self):
        log = TimeSeriesLog(max_samples=1)
        log.record(0.0, {"a": 1.0})
        log.record(1.0, {"a": 2.0})
        assert len(log) == 1
        assert log.dropped == 1

    def test_record_copies_series(self):
        log = TimeSeriesLog()
        series = {"a": 1.0}
        log.record(0.0, series)
        series["a"] = 9.0
        assert log.samples[0]["series"]["a"] == 1.0

    def test_roundtrip(self, tmp_path):
        log = TimeSeriesLog()
        log.new_run()
        log.record(0.5, {"x": 1.0})
        path = log.write(tmp_path / "ts.jsonl")
        loaded = load_timeseries(path)
        assert loaded.samples == log.samples
        assert loaded.run == 1

    def test_deterministic_bytes(self):
        def build():
            log = TimeSeriesLog()
            log.new_run()
            log.record(0.0, {"b": 2.0, "a": 1.0})
            return log.to_jsonl()

        assert build() == build()

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            load_timeseries(path)


class TestSampler:
    def test_daemon_samples_every_interval(self):
        sim = Simulator()
        log = TimeSeriesLog()
        log.new_run()
        ticks = {"n": 0}

        def counting():
            ticks["n"] += 1
            return {"ticks_total": float(ticks["n"])}

        sampler = TimeSeriesSampler(sim, log, interval=0.5)
        sampler.add_source("ticks", counting)
        sampler.start()
        sim.run(until=2.01)
        times = [s["t"] for s in log.samples]
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])
        assert log.samples[-1]["series"]["ticks_total"] == 4.0

    def test_sources_merge(self):
        sim = Simulator()
        log = TimeSeriesLog()
        sampler = TimeSeriesSampler(sim, log, interval=1.0)
        sampler.add_source("a", lambda: {"a": 1.0})
        sampler.add_source("b", lambda: {"b": 2.0})
        sampler.sample()
        assert log.samples[0]["series"] == {"a": 1.0, "b": 2.0}

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            TimeSeriesSampler(Simulator(), TimeSeriesLog(), interval=0.0)

    def test_oracle_source(self):
        class FakeOracle:
            counts = {"local-hit": 3, "false-hit": 1}

        assert oracle_series(FakeOracle())() == {
            "oracle_local-hit_total": 3.0,
            "oracle_false-hit_total": 1.0,
        }


class TestDashboard:
    def make_log(self):
        log = TimeSeriesLog()
        log.new_run()
        for i in range(5):
            log.record(
                float(i),
                {
                    # Cumulative counter with a burst in the middle...
                    "swala_false_hits_total{node=n0}": float([0, 0, 3, 3, 4][i]),
                    # ...and a plain gauge.
                    "swala_cached_entries{node=n0}": float(i % 2),
                },
            )
        return log

    def test_empty(self):
        assert render_timeseries_dashboard(TimeSeriesLog()) == "(no samples)"

    def test_counter_rendered_as_rate(self):
        text = render_timeseries_dashboard(self.make_log())
        # Labeled *_total series are differenced: the burst of 3 shows as
        # the peak delta, not the cumulative final value.
        assert "peakΔ=3" in text
        assert "last=4" in text

    def test_gauge_rendered_raw(self):
        text = render_timeseries_dashboard(self.make_log())
        assert "min=0 max=1" in text

    def test_series_filter(self):
        text = render_timeseries_dashboard(
            self.make_log(), series=["false_hits"]
        )
        assert "false_hits" in text
        assert "cached_entries" not in text
        assert "(no series match the filter)" == render_timeseries_dashboard(
            self.make_log(), series=["nope"]
        )

    def test_run_selection(self):
        log = self.make_log()
        log.new_run()
        log.record(0.0, {"other": 1.0})
        # Default picks the last run.
        assert "other" in render_timeseries_dashboard(log)
        assert "false_hits" in render_timeseries_dashboard(log, run=1)
        assert "(no samples for run 7" in render_timeseries_dashboard(log, run=7)

    def test_downsampling_keeps_bursts(self):
        log = TimeSeriesLog()
        log.new_run()
        for i in range(200):
            log.record(float(i), {"g": 100.0 if i == 117 else 0.0})
        text = render_timeseries_dashboard(log, width=40)
        # Max-downsampling: the single spike survives the 200 -> 40 squeeze.
        assert "█" in text
