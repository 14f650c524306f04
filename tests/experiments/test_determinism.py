"""Determinism guarantees the perf work must not erode.

Two independent contracts are pinned here:

1. Same seed ⇒ identical results.  Running an experiment twice in the
   same process (fresh ``Simulator`` each time) must produce equal stats
   and, with tracing enabled, byte-identical span dumps.  This is the
   ``(time, priority, sequence)`` heap-ordering contract: any engine
   "optimization" that reorders same-timestamp events breaks it.

2. Serial ≡ parallel.  ``--jobs N`` fans cells over worker processes;
   because every cell regenerates its workload from the seed, the fanout
   must return exactly what a serial run returns, in the same order.
"""

from __future__ import annotations

import dataclasses

from repro.experiments import run_figure3, run_figure4, run_table2, run_table3
from repro.experiments.ablations import run_policy_ablation
from repro.experiments.common import RunObserver, observe_runs
from repro.cache import policies
from repro.experiments.parallel import effective_jobs, fanout
from repro.net import Network
from repro.obs import TraceCollector
from tests.cache.scan_policies import SCAN_POLICIES
from tests.net.unicast import broadcast_unicast

FIG3_KW = dict(n_clients=4, requests_per_client=3)
FIG4_KW = dict(node_counts=(1, 2), scale=0.005)


def _traced_figure3(path, jobs=None):
    observer = RunObserver(tracer=TraceCollector())
    with observe_runs(observer):
        run_figure3(**FIG3_KW, jobs=jobs)
    observer.collect_all()
    observer.tracer.write(path)
    return path.read_bytes()


def test_same_seed_identical_stats():
    a = run_figure4(**FIG4_KW)
    b = run_figure4(**FIG4_KW)
    assert a == b  # frozen dataclasses: field-for-field equality


def test_same_seed_byte_identical_trace(tmp_path):
    dumps = [
        _traced_figure3(tmp_path / f"spans{i}.jsonl") for i in range(2)
    ]
    assert dumps[0] == dumps[1]
    # sanity: the trace actually recorded spans
    assert len(dumps[0].splitlines()) > 10


def test_same_seed_identical_table3():
    """The broadcast-heaviest experiment (insert + invalidate fan-out on
    every request) is bit-stable across runs — pins the flattened
    broadcast's event ordering."""
    kw = dict(node_counts=(2, 4), n_requests=30)
    assert run_table3(**kw) == run_table3(**kw)


def test_flattened_broadcast_matches_replicated_unicast(monkeypatch):
    """Swapping ``Network.broadcast`` for the replicated-unicast reference
    must not change experiment output at all: the flattening is a pure
    mechanics change, not a model change."""
    kw = dict(node_counts=(3,), n_requests=30)
    flat = run_table3(**kw)
    monkeypatch.setattr(Network, "broadcast", broadcast_unicast)
    unicast = run_table3(**kw)
    assert flat == unicast


ABLATION_KW = dict(cache_size=20, n_nodes=3, total=400, unique=280)


def test_same_seed_identical_policy_ablation():
    kw = dict(policies=("lfu", "size", "cost", "fifo"), **ABLATION_KW)
    assert run_policy_ablation(**kw) == run_policy_ablation(**kw)


def test_heap_policy_matches_scan_twin_end_to_end(monkeypatch):
    """A full cluster run under a heap-indexed policy equals the same run
    under its O(n) scan twin in every statistic (only the policy label
    differs) — the index changes victim *lookup*, never victim *choice*."""
    for scan_name, cls in SCAN_POLICIES.items():
        monkeypatch.setitem(policies._POLICIES, scan_name, cls)
    for name in ("lfu", "size"):
        (heap_row,) = run_policy_ablation(policies=(name,), **ABLATION_KW)
        (scan_row,) = run_policy_ablation(policies=(f"{name}-scan",), **ABLATION_KW)
        heap_fields = dataclasses.asdict(heap_row)
        scan_fields = dataclasses.asdict(scan_row)
        assert heap_fields.pop("policy") == name
        assert scan_fields.pop("policy") == f"{name}-scan"
        assert heap_fields == scan_fields


def test_serial_matches_parallel_figure4():
    serial = run_figure4(**FIG4_KW)
    parallel = run_figure4(**FIG4_KW, jobs=2)
    assert serial == parallel


def test_serial_matches_parallel_figure3():
    assert run_figure3(**FIG3_KW) == run_figure3(**FIG3_KW, jobs=2)


def test_serial_matches_parallel_table2():
    kw = dict(client_counts=(2, 4), requests_per_client=4)
    assert run_table2(**kw) == run_table2(**kw, jobs=2)


def test_tracing_no_longer_forces_serial():
    """Mergeable observers ride along with ``--jobs``: each worker runs a
    worker-local collector and the parent folds the snapshots back in cell
    order, so an active tracer keeps the requested parallelism."""
    with observe_runs(RunObserver(tracer=TraceCollector())):
        assert effective_jobs(4, 10) == 4
    assert effective_jobs(4, 10) == 4


def test_oracle_still_forces_serial():
    """The consistency oracle audits the global event order; it cannot be
    merged from per-worker snapshots, so it pins fanout to one process (with
    a warning the CLI surfaces)."""
    import pytest
    from repro.obs import ConsistencyOracle

    with observe_runs(RunObserver(oracle=ConsistencyOracle())):
        with pytest.warns(RuntimeWarning, match="audit-out"):
            assert effective_jobs(4, 10) == 1


def test_effective_jobs_clamps():
    assert effective_jobs(None, 10) == 1
    assert effective_jobs(1, 10) == 1
    assert effective_jobs(8, 3) == 3
    assert effective_jobs(2, 1) == 1
    assert effective_jobs(0, 10) == 1
    assert effective_jobs(-2, 10) == 1


def _square(x):
    return x * x


def test_fanout_preserves_cell_order():
    cells = [dict(x=i) for i in range(7)]
    assert fanout(_square, cells, jobs=3) == [i * i for i in range(7)]
    assert fanout(_square, cells, jobs=None) == [i * i for i in range(7)]


def test_traced_run_identical_under_jobs_flag(tmp_path):
    """--jobs plus tracing produces a byte-identical span file to the
    serial run: per-worker snapshots merge in cell order, reproducing the
    serial run numbering and span ids exactly."""
    serial = _traced_figure3(tmp_path / "serial.jsonl")
    jobs = _traced_figure3(tmp_path / "jobs.jsonl", jobs=4)
    assert serial == jobs
