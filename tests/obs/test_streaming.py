"""Tests for the windowed streaming telemetry (``repro.obs.streaming``).

The two load-bearing claims:

1. **Perturbation-free**: attaching streaming telemetry schedules no
   events and draws no randomness, so the same seed produces
   bit-identical simulation results with streaming on or off.
2. **Lazy windowing**: windows close when a later observation arrives
   (or at ``finalize``), never via a scheduled timeout — that is what
   makes claim 1 possible (contrast ``TimeSeriesSampler``, which has to
   schedule wakeups and is therefore only attached when asked for).
"""

import gzip
import json
import math

import pytest

from repro.clients import ClientFleet
from repro.core import CacheMode, SwalaCluster, SwalaConfig
from repro.obs.streaming import (
    SLO,
    EwmaRate,
    StreamingTelemetry,
    collect_streaming,
    load_streaming,
    render_streaming_dashboard,
)
from repro.obs.registry import MetricsRegistry
from repro.sim import Simulator
from repro.workload import zipf_cgi_trace


def fed(telemetry, latencies, outcome="exec", dt=0.25):
    """Feed one completion per ``dt`` of sim-time."""
    t = 0.0
    for latency in latencies:
        t += dt
        telemetry.note_arrival(t)
        telemetry.record(t, "swala0", outcome, latency)
    return telemetry


class TestWindowing:
    def test_aggregation_basics(self):
        tel = StreamingTelemetry(window=1.0)
        tel.new_run()
        fed(tel, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], dt=0.25)
        tel.finalize()
        # t runs 0.25..2.0, so the last sample opens window [2, 3).
        assert len(tel.windows) == 3
        assert [w.completions for w in tel.windows] == [3, 4, 1]
        first = tel.windows[0]
        assert first.completions == 3  # t = 0.25, 0.5, 0.75
        assert first.rate == pytest.approx(3.0)
        assert first.mean_latency == pytest.approx((0.1 + 0.2 + 0.3) / 3)
        assert first.latency_min == pytest.approx(0.1)
        assert first.latency_max == pytest.approx(0.3)
        assert sum(w.completions for w in tel.windows) == 8

    def test_hit_ratio_counts_dynamic_outcomes_only(self):
        tel = StreamingTelemetry(window=10.0)
        tel.new_run()
        tel.record(1.0, "n", "local-cache", 0.01)
        tel.record(2.0, "n", "remote-cache", 0.02)
        tel.record(3.0, "n", "exec", 1.0)
        tel.record(4.0, "n", "file", 0.001)  # static: neither hit nor miss
        tel.finalize()
        (window,) = tel.windows
        assert window.hits == 2
        assert window.misses == 1
        assert window.hit_ratio == pytest.approx(2 / 3)
        assert window.by_outcome["exec"] == [1.0, 1.0]

    def test_out_of_order_within_window_tolerated(self):
        tel = StreamingTelemetry(window=1.0)
        tel.new_run()
        tel.record(0.9, "n", "exec", 0.1)
        tel.record(0.5, "n", "exec", 0.2)  # same window, earlier stamp
        tel.finalize()
        assert tel.windows[0].completions == 2

    def test_gap_windows_materialized_then_skipped(self):
        tel = StreamingTelemetry(window=1.0)
        tel.new_run()
        tel.record(0.5, "n", "exec", 0.1)
        tel.record(5.5, "n", "exec", 0.1)  # 4 empty windows in between
        tel.finalize()
        assert len(tel.windows) == 6
        assert [w.completions for w in tel.windows] == [1, 0, 0, 0, 0, 1]
        # A silly jump (e.g. one request at t=1e9) must not materialize
        # a billion empty windows.
        tel2 = StreamingTelemetry(window=1.0)
        tel2.new_run()
        tel2.record(0.5, "n", "exec", 0.1)
        tel2.record(1e9, "n", "exec", 0.1)
        tel2.finalize()
        assert len(tel2.windows) <= tel2.MAX_GAP_WINDOWS + 3
        assert tel2.gap_windows_skipped > 0

    def test_new_run_restamps(self):
        tel = StreamingTelemetry(window=1.0)
        tel.new_run()
        tel.record(0.5, "n", "exec", 0.1)
        tel.new_run()
        tel.record(0.5, "n", "exec", 0.1)
        tel.finalize()
        assert [w.run for w in tel.windows] == [1, 2]
        assert [w.index for w in tel.windows] == [0, 0]

    def test_summary_digest_spans_run(self):
        tel = StreamingTelemetry(window=1.0)
        tel.new_run()
        fed(tel, [float(i) for i in range(1, 101)], dt=0.1)
        tel.finalize()
        digest = tel.summary_digest()
        assert digest.count == pytest.approx(100)
        assert digest.quantile(0.5) == pytest.approx(50.0, rel=0.1)


class TestSaturationDetector:
    @staticmethod
    def stepped(slo, flat=0.1, spike=5.0, step_at=5.0, until=12.0):
        tel = StreamingTelemetry(window=1.0, slo=slo)
        tel.new_run()
        t = 0.0
        while t < until:
            t += 0.25
            tel.note_arrival(t)
            tel.record(t, "n", "exec", flat if t < step_at else spike)
        tel.finalize()
        return tel

    def test_p99_step_declares_after_k_windows(self):
        tel = self.stepped(SLO(p99_latency=1.0, consecutive=3,
                               warmup_windows=2))
        assert tel.saturated
        # Window 5 is the first fully-spiked one; K=3 consecutive
        # flagged windows declare saturation at window 7.
        assert tel.saturated_window == 7
        flagged = [w.index for w in tel.windows if w.saturated]
        assert flagged == list(range(5, 13))
        assert all("p99" in w.signals for w in tel.windows if w.saturated)

    def test_warmup_windows_exempt(self):
        tel = self.stepped(SLO(p99_latency=1.0, consecutive=1,
                               warmup_windows=3),
                           flat=5.0, spike=5.0)  # over SLO from t=0
        # Windows 0-2 are warmup; the first eligible window declares.
        assert tel.saturated_window == 3

    def test_reset_saturation_forgets_streak(self):
        slo = SLO(p99_latency=1.0, consecutive=3, warmup_windows=0)
        tel = StreamingTelemetry(window=1.0, slo=slo)
        tel.new_run()
        t = 0.0
        for _ in range(10):
            t += 1.0
            tel.record(t - 0.5, "n", "exec", 5.0)
            if tel._streak == 2:
                tel.reset_saturation()  # a ramp step retargeted
        assert not tel.saturated or tel.saturated_window > 2

    def test_rho_signal_uses_littles_law(self):
        # 10 completions/s of 0.5 s each on 2 servers: rho = 2.5 > 1.
        slo = SLO(max_rho=1.0, consecutive=2, warmup_windows=0)
        tel = StreamingTelemetry(window=1.0, slo=slo)
        tel.n_servers = 2
        tel.new_run()
        fed(tel, [0.5] * 40, dt=0.1)
        tel.finalize()
        assert tel.saturated
        assert any("rho" in w.signals for w in tel.windows)
        assert tel.windows[0].rho == pytest.approx(10 * 0.5 / 2)

    def test_queue_growth_signal_from_backlog(self):
        slo = SLO(max_queue_growth=2.0, consecutive=1, warmup_windows=0)
        tel = StreamingTelemetry(window=1.0, slo=slo)
        tel.new_run()
        t = 0.0
        for _ in range(20):  # 10 arrivals/s, only 2 completions/s
            t += 0.1
            tel.note_arrival(t)
        tel.record(1.5, "n", "exec", 0.2)
        tel.finalize()
        assert tel.backlog == 19
        assert any("queue" in w.signals for w in tel.windows)

    def test_no_slo_never_saturates(self):
        tel = fed(StreamingTelemetry(window=1.0), [100.0] * 20)
        tel.finalize()
        assert not tel.saturated
        assert all(not w.saturated for w in tel.windows)


class TestEwma:
    def test_halflife_semantics(self):
        ewma = EwmaRate(halflife=1.0)
        ewma.update(10.0, 1.0)
        assert ewma.value == pytest.approx(10.0)
        ewma.update(0.0, 1.0)  # one halflife: halfway to the new sample
        assert ewma.value == pytest.approx(5.0)
        ewma.update(0.0, 1e9)  # many halflives: converged
        assert ewma.value == pytest.approx(0.0, abs=1e-6)

    def test_unprimed_is_nan(self):
        assert math.isnan(EwmaRate(1.0).value)


class TestExportAndDashboard:
    @staticmethod
    def sample_telemetry():
        tel = StreamingTelemetry(window=1.0, slo=SLO(p99_latency=0.5,
                                                     consecutive=2,
                                                     warmup_windows=0))
        tel.new_run()
        fed(tel, [0.1, 0.2, 0.9, 1.5, 1.8, 0.1, 0.2, 0.3], dt=0.5)
        tel.finalize()
        return tel

    def test_jsonl_round_trip(self, tmp_path):
        tel = self.sample_telemetry()
        path = tmp_path / "windows.jsonl"
        assert tel.write(path) == path
        records = load_streaming(path)
        assert len(records) == len(tel.windows)
        assert all(r["type"] == "window" for r in records)
        assert records[0]["completions"] == tel.windows[0].completions

    def test_gzip_round_trip_is_transparent(self, tmp_path):
        tel = self.sample_telemetry()
        plain = tmp_path / "w.jsonl"
        gz = tmp_path / "w.jsonl.gz"
        tel.write(plain)
        tel.write(gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        assert gzip.decompress(gz.read_bytes()) == plain.read_bytes()
        assert load_streaming(gz) == load_streaming(plain)

    def test_json_values_are_finite_or_null(self):
        tel = StreamingTelemetry(window=1.0)
        tel.new_run()
        tel.record(0.5, "n", "file", 0.1)  # hit_ratio is NaN (no cgi)
        tel.finalize()
        text = tel.to_jsonl()
        record = json.loads(text)
        assert record["hit_ratio"] is None  # NaN must not leak into JSON

    def test_dashboard_renders_sparklines(self):
        tel = self.sample_telemetry()
        art = render_streaming_dashboard([w.to_dict() for w in tel.windows])
        assert "rate req/s" in art
        assert "p99 latency" in art
        assert "saturated" in art
        assert "!" in art  # flagged windows marked
        # Accepts live window objects too, not just exported dicts.
        art2 = render_streaming_dashboard(list(tel.windows))
        assert art.splitlines()[1:] == art2.splitlines()[1:]

    def test_collect_streaming_passes_registry_self_check(self):
        tel = self.sample_telemetry()
        registry = MetricsRegistry()
        collect_streaming(registry, tel)
        exposition = registry.render_prometheus()  # runs self_check
        assert "swala_streaming_windows_total" in exposition
        assert "swala_streaming_saturated_windows_total" in exposition


class TestPerturbationFreedom:
    @staticmethod
    def run_cell(attach: bool):
        sim = Simulator()
        cluster = SwalaCluster(sim, 2,
                               SwalaConfig(mode=CacheMode.COOPERATIVE))
        cluster.start()
        telemetry = None
        if attach:
            telemetry = StreamingTelemetry(window=0.5,
                                           slo=SLO(p99_latency=0.75))
            telemetry.new_run()
            cluster.attach_streaming(telemetry)
        trace = zipf_cgi_trace(150, 40, cpu_time_mean=0.1, seed=3)
        fleet = ClientFleet(sim, cluster.network, trace,
                            servers=cluster.node_names, n_threads=4)
        times = fleet.run()
        if telemetry is not None:
            telemetry.finalize()
        return sim, times, telemetry

    def test_streaming_on_off_bit_identical(self):
        sim_off, times_off, _ = self.run_cell(attach=False)
        sim_on, times_on, telemetry = self.run_cell(attach=True)
        assert sim_on.ticks == sim_off.ticks
        assert sim_on.now == sim_off.now
        assert times_on.count == times_off.count
        assert times_on.mean == times_off.mean  # bit-equal, not approx
        assert times_on.percentile(99) == times_off.percentile(99)
        # And the telemetry actually saw the run.
        assert sum(w.completions for w in telemetry.windows) == 150

    def test_same_seed_same_export(self):
        _, _, a = self.run_cell(attach=True)
        _, _, b = self.run_cell(attach=True)
        assert a.to_jsonl() == b.to_jsonl()
