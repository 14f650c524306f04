"""RunObserver.fresh(): what a ``--jobs`` worker runs its cell under."""

import pickle

import pytest

from repro.experiments.common import RunObserver, observe_runs
from repro.experiments.figure4 import run_figure4
from repro.obs import (
    ConsistencyOracle,
    MetricsRegistry,
    ResourceProfiler,
    StreamingTelemetry,
    TimeSeriesLog,
    TraceCollector,
)


def test_fresh_keeps_settings_and_drops_data():
    observer = RunObserver(
        tracer=TraceCollector(max_spans=50_000),
        registry=MetricsRegistry(),
        timeseries=TimeSeriesLog(max_samples=900),
        timeseries_dt=0.25,
        profiler=ResourceProfiler(
            max_resources=77, record_intervals=True, max_intervals=1234
        ),
        streaming=StreamingTelemetry(window=0.5, max_windows=99),
    )
    with observe_runs(observer):
        run_figure4(node_counts=(1,), scale=0.005)
    observer.collect_all()
    assert observer.tracer.spans and observer.tracer.run
    assert observer.profiler.probes and observer.streaming.windows

    fresh = pickle.loads(pickle.dumps(observer.fresh()))
    assert list(fresh.collectors) == list(observer.collectors)
    assert fresh.oracle is None
    assert fresh.timeseries_dt == 0.25
    assert fresh.tracer.max_spans == 50_000
    assert fresh.timeseries.max_samples == 900
    assert fresh.profiler.max_resources == 77
    assert fresh.profiler.linker is not None  # record_intervals survives
    assert fresh.profiler.max_intervals == 1234
    assert fresh.streaming.window == 0.5
    assert fresh.streaming.max_windows == 99
    assert fresh.streaming.rate_ewma.halflife == 1.5
    # no data, runs or targets carry over
    assert fresh.targets == []
    for collector in fresh.collectors.values():
        assert getattr(collector, "run", 0) == 0
    assert not fresh.tracer.spans and not fresh.timeseries.samples
    assert not fresh.profiler.probes and not fresh.profiler.intervals
    assert not fresh.streaming.windows and len(fresh.registry) == 0


def test_fresh_oracle_keeps_its_capacity():
    observer = RunObserver(oracle=ConsistencyOracle(max_records=10))
    assert observer.fresh().oracle.max_records == 10


def test_unknown_collector_is_rejected():
    with pytest.raises(TypeError, match="tracr"):
        RunObserver(tracr=TraceCollector())
