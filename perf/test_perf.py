"""Harness tests for the end-to-end benchmark, ``perf/run.py``.

One module-scoped run covers every workload at ``--scale 0.02`` with one
rep each; the tests read its printed report and its ``--out`` file.  The
rest exercise the harness's bookkeeping on synthetic reps.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
RUN = os.path.join(PERF, "run.py")

_spec = importlib.util.spec_from_file_location("perf_run", RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "result.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--scale", "0.02", "--reps", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return proc.stdout, json.load(fh)


def fake_rep(status, attempted, completed=None):
    """A finished rep with plausible clocks: 1 s set-up, 2 s simulating."""
    result = {}
    if status == "ok":
        result = {
            "status": "ok",
            "clock": {"start": 0.1, "imported": 0.8, "input": 0.9,
                      "built": 1.0, "sim_end": 3.0},
            "outputs": {"completed": attempted if completed is None else completed},
            "counts": {"peak_rss_kb": 102400},
        }
    return run.Rep(status, attempted, 0.0, 3.5, result)


def test_every_end_to_end_metric_prints_with_its_unit(small_run):
    stdout, _ = small_run
    for metric, (unit, _) in run.E2E.items():
        rows = re.findall(rf"^  {re.escape(metric)} +{re.escape(unit)} ", stdout,
                          flags=re.MULTILINE)
        assert len(rows) == len(run.WORKLOADS), metric


def test_result_carries_every_declared_name(small_run):
    _, document = small_run
    declared = run.declared_metrics()
    for key in ("seed", "reps", "git_commit", "python", "nproc"):
        assert key in document
    assert document["correct"]
    assert set(document["workloads"]) == set(run.WORKLOADS)
    for name, record in document["workloads"].items():
        assert record["correct"], (name, record["failures"])
        assert record["end_to_end"]["error_rate"]["median"] == 0
        assert set(declared["end_to_end"]) <= set(record["end_to_end"]), name
        assert set(declared["per_layer"]) <= set(record["layers"]), name
        for trace, names in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
            line = json.loads(run.contract_line(record, trace, declared))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == names


def test_open_probe_generator_never_lags(small_run):
    _, document = small_run
    layers = document["workloads"]["open_probe"]["layers"]
    assert layers["clients.generator_lag_s"]["value"] == 0.0
    assert layers["obs.streaming.windows"]["value"] > 0


def test_failed_rep_counts_all_its_requests():
    reps = [fake_rep("ok", 100), fake_rep("stall", 100), fake_rep("timeout", 0)]
    # The timed-out rep never reported its size: it counts as the largest
    # size seen, so a failure is never under-counted.
    assert run.error_counts(reps) == (300, 200)
    metrics = run.end_to_end(reps, [])
    assert metrics["error_rate"]["median"] == pytest.approx(2 / 3)
    assert metrics["req_per_s"]["median"] == pytest.approx(50.0)
    assert metrics["setup_s"]["median"] == pytest.approx(1.0)
    assert metrics["req_per_s"]["n"] == 1


def test_wrong_or_nondeterministic_outputs_fail_the_rep():
    spec = run.WORKLOADS["coop_hot"]["spec"](1.0)
    expected = run.load_json("expected.json")
    good = expected["coop_hot"]["0"]
    reps = [fake_rep("ok", 20_000) for _ in range(3)]
    reps[0].result["outputs"] = dict(good)
    reps[1].result["outputs"] = dict(good, remote_hits=good["remote_hits"] - 1,
                                      misses=good["misses"] + 1)
    reps[2].result["outputs"] = dict(good, mean_rt=good["mean_rt"] * (1 + 1e-6))
    run.check_reps("coop_hot", reps, spec, 0, 1.0, expected)
    assert [rep.status for rep in reps] == ["ok", "wrong", "wrong"]
    assert "misses" in reps[1].detail and "mean_rt" in reps[2].detail
    # A seed without recorded outputs gets only the invariants and the
    # agreement between reps.
    assert "12" not in expected["coop_hot"]
    reps = [fake_rep("ok", 20_000) for _ in range(2)]
    reps[0].result["outputs"] = dict(good)
    reps[1].result["outputs"] = dict(good, requests=good["requests"] - 1)
    run.check_reps("coop_hot", reps, spec, 12, 1.0, expected)
    assert [rep.status for rep in reps] == ["ok", "wrong"]


def test_reference_row_matches_committed_grid():
    reference = run.load_json("expected.json")["reference"]["grid_broadcast"]
    with open(os.path.join(ROOT, "results", "directory_grid.json")) as fh:
        rows = json.load(fh)
    row = next(r for r in rows if (r["mix"], r["protocol"], r["nodes"])
               == ("webstone", "broadcast", 64))
    for key in ("dir_msgs", "hit_ratio", "mean_rt"):
        assert row[key] == reference[key]


def test_agree_passes_identical_and_fails_worse(tmp_path, small_run, capsys):
    _, document = small_run
    bounds = run.declared_metrics()["bounds"]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(document))
    assert run.agree(str(a), str(a), bounds)
    report = capsys.readouterr().out
    assert "FAIL" not in report
    assert report.count("PASS") == len(run.E2E) * len(run.WORKLOADS)
    slower = json.loads(json.dumps(document))
    e2e = slower["workloads"]["grid_broadcast"]["end_to_end"]
    e2e["req_per_s"]["median"] *= 1 - 2 * bounds["req_per_s"]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    assert not run.agree(str(a), str(b), bounds)
    failing = [l for l in capsys.readouterr().out.splitlines() if "FAIL" in l]
    assert len(failing) == 1 and "grid_broadcast" in failing[0]


def test_without_the_simulator_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "coop_hot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
