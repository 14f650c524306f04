"""End-to-end: merged shard/worker telemetry equals the serial run's.

The property tests in ``tests/properties/test_merge_properties.py`` pin
the merge algebra on synthetic splits; these tests close the loop on
real cluster runs with every mergeable collector attached at once:

* ``--parallel-sim`` twin: the same workload observed serial and
  observed through 2 PDES shards (inline and process backends) must
  export drift-free artifacts — counters and integrals within the
  ``repro diff`` default thresholds (abs 1e-9, which admits only float
  reassociation in histogram sums), span sets identical.
* ``--jobs`` twin: a sweep observed with per-worker collectors must
  export *byte*-identical artifacts to the serial sweep (worker
  snapshots fold in cell order, reproducing serial run numbering), with
  the registry — whose histogram sums fold partial sums rather than
  observations — held to the same drift-free bar instead.

The consistency oracle is deliberately absent: it audits the global
event order and stays serial-only (see test_determinism and test_pdes
for the warning/fallback contract).
"""

from collections import Counter

import pytest

from repro.core import CacheMode
from repro.experiments.common import RunObserver, observe_runs, run_cluster_trace
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
from repro.sim import using_partitions
from repro.workload import zipf_cgi_trace


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
    observer.tracer.write_jsonl(paths["trace"])
    observer.registry.write(paths["metrics"])
    observer.timeseries.write_jsonl(paths["timeseries"])
    observer.profiler.write_json(paths["profile"])
    observer.streaming.write_jsonl(paths["streaming"])
    return paths


def _span_set(observer: RunObserver) -> Counter:
    return Counter(
        (s.attrs.get("run"), s.name, s.start, s.end)
        for s in observer.tracer.spans
    )


def _observed_cluster_run(tmp_path, label, partitions=None):
    trace = zipf_cgi_trace(120, 30, zipf=0.9, cpu_time_mean=0.25, seed=6)
    observer = _full_observer()
    if partitions is not None:
        with using_partitions(*partitions):
            with observe_runs(observer):
                times, cluster = run_cluster_trace(
                    2, CacheMode.COOPERATIVE, trace, n_threads=4, n_hosts=2
                )
    else:
        with observe_runs(observer):
            times, cluster = run_cluster_trace(
                2, CacheMode.COOPERATIVE, trace, n_threads=4, n_hosts=2
            )
    paths = _write_exports(observer, tmp_path / label)
    return times, observer, paths


def _assert_no_drift(serial_paths, parallel_paths):
    for kind, base in serial_paths.items():
        drift = diff_counters(
            load_counters(base), load_counters(parallel_paths[kind])
        )
        assert not drift, f"{kind} drifted: {[d.name for d in drift[:5]]}"


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_partitioned_observed_exports_match_serial(tmp_path, backend):
    serial_times, serial_obs, serial_paths = _observed_cluster_run(
        tmp_path, "serial"
    )
    par_times, par_obs, par_paths = _observed_cluster_run(
        tmp_path, backend, partitions=(2, backend)
    )
    assert par_times.count == serial_times.count
    assert par_times.mean == serial_times.mean
    assert _span_set(par_obs) == _span_set(serial_obs)
    assert par_obs.profiler.resource_count() \
        == serial_obs.profiler.resource_count()
    _assert_no_drift(serial_paths, par_paths)


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
