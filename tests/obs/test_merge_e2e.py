"""End-to-end: merged ``--jobs`` worker telemetry equals the serial run's.

The property tests in ``tests/properties/test_merge_properties.py`` pin
the merge algebra on synthetic splits; this test closes the loop on
real sweeps with every mergeable collector attached at once.  A sweep
observed with per-worker collectors must export *byte*-identical
artifacts to the serial sweep (worker snapshots fold in cell order,
reproducing serial run numbering), with the registry — whose histogram
sums fold partial sums rather than observations — held to the
drift-free ``repro diff`` bar instead (abs 1e-9, which admits only
float reassociation).

The consistency oracle is deliberately absent: it audits the global
event order and stays serial-only (see test_determinism for the
warning/fallback contract).
"""

import pytest

from repro.experiments.common import RunObserver, observe_runs
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.obs import (
    MetricsRegistry,
    ResourceProfiler,
    StreamingTelemetry,
    TimeSeriesLog,
    TraceCollector,
)
from repro.obs.diff import diff_counters, load_counters


def _full_observer() -> RunObserver:
    return RunObserver(
        tracer=TraceCollector(),
        registry=MetricsRegistry(),
        timeseries=TimeSeriesLog(),
        profiler=ResourceProfiler(record_intervals=True),
        streaming=StreamingTelemetry(window=1.0),
    )


def _write_exports(observer: RunObserver, outdir):
    outdir.mkdir(exist_ok=True)
    observer.collect_all()
    paths = {
        "trace": outdir / "trace.jsonl",
        "metrics": outdir / "metrics.json",
        "timeseries": outdir / "timeseries.jsonl",
        "profile": outdir / "profile.json",
        "streaming": outdir / "streaming.jsonl",
    }
    observer.tracer.write(paths["trace"])
    observer.registry.write(paths["metrics"])
    observer.timeseries.write(paths["timeseries"])
    observer.profiler.write(paths["profile"])
    observer.streaming.write(paths["streaming"])
    return paths


SWEEPS = {
    # Single-server cells: streaming ρ always divides by one server.
    "figure3": lambda jobs: run_figure3(
        n_clients=4, requests_per_client=3, jobs=jobs
    ),
    # A 1-node then a 2-node cluster: the merge replays each run's ρ
    # against that run's own server count.
    "figure4": lambda jobs: run_figure4(
        node_counts=(1, 2), scale=0.005, jobs=jobs
    ),
}


def _observed_sweep(tmp_path, sweep, label, jobs=None):
    observer = _full_observer()
    with observe_runs(observer):
        SWEEPS[sweep](jobs)
    return _write_exports(observer, tmp_path / label)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_jobs_observed_exports_match_serial(tmp_path, sweep):
    serial = _observed_sweep(tmp_path, sweep, "serial")
    jobs = _observed_sweep(tmp_path, sweep, "jobs", jobs=4)
    # Worker snapshots concatenate in cell order: raw-record exports
    # reproduce the serial bytes exactly.
    for kind in ("trace", "timeseries", "profile", "streaming"):
        assert jobs[kind].read_bytes() == serial[kind].read_bytes(), kind
    # Registry histograms fold per-worker partial sums — equal up to
    # float reassociation, which the diff thresholds bound at 1e-9.
    drift = diff_counters(
        load_counters(serial["metrics"]), load_counters(jobs["metrics"])
    )
    assert not drift, [d.name for d in drift[:5]]
