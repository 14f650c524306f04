"""CLI tests for `repro critical`, `repro whatif`, and --critical-out."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def critical_files(tmp_path_factory):
    """One tiny observed table3 run with every artifact kind."""
    outdir = tmp_path_factory.mktemp("critical")
    crit = outdir / "crit.json"
    trace = outdir / "t.jsonl"
    profile = outdir / "p.json"
    rc = main([
        "table3", "--nodes", "2", "--requests", "8",
        "--critical-out", str(crit), "--trace-out", str(trace),
        "--profile-out", str(profile),
    ])
    assert rc == 0
    return {"critical": crit, "trace": trace, "profile": profile}


class TestCriticalOut:
    def test_export_is_deterministic(self, capsys, critical_files, tmp_path):
        again = tmp_path / "crit2.json"
        rc = main([
            "table3", "--nodes", "2", "--requests", "8",
            "--critical-out", str(again),
        ])
        assert rc == 0
        assert again.read_bytes() == critical_files["critical"].read_bytes()

    def test_export_shape(self, critical_files):
        data = json.loads(critical_files["critical"].read_text())
        assert data["version"] == 1
        assert data["requests"] == 16  # 8 requests x (no-cache + coop runs)
        assert data["segments"]["cpu-service"]["share"] > 0.9
        text = critical_files["critical"].read_text()
        assert "NaN" not in text and "Infinity" not in text

    def test_profile_alongside_critical_gains_intervals(self, critical_files):
        profile = json.loads(critical_files["profile"].read_text())
        assert profile["intervals"], "span-linked intervals missing"
        record = profile["intervals"][0]
        assert {"trace", "span", "resource", "kind", "wait", "service"} <= set(
            record
        )

    def test_zero_perturbation_of_results(self, capsys, tmp_path):
        rc = main(["table3", "--nodes", "2", "--requests", "8"])
        assert rc == 0
        plain = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("(")
        ]
        rc = main([
            "table3", "--nodes", "2", "--requests", "8",
            "--critical-out", str(tmp_path / "c.json"),
        ])
        assert rc == 0
        observed = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("(")
        ]
        assert plain == observed


def _unfinished_trace(tmp_path) -> str:
    """A trace file whose one request never finished: spans, but zero
    complete requests to decompose."""
    path = tmp_path / "unfinished.jsonl"
    path.write_text(json.dumps({
        "type": "span", "trace": 1, "span": 1, "parent": None,
        "name": "request", "node": "n0", "category": "other",
        "start": 0.0, "end": None, "tick": 0, "attrs": {},
    }) + "\n")
    return str(path)


class TestCriticalCommand:
    def test_default_report(self, capsys, critical_files):
        rc = main(["critical", str(critical_files["critical"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Critical-path blame" in out
        assert "cpu-service" in out
        assert "Flame" in out

    def test_section_flags(self, capsys, critical_files):
        rc = main(["critical", str(critical_files["critical"]),
                   "--segments"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Critical-path blame" in out and "Flame" not in out
        rc = main(["critical", str(critical_files["critical"]),
                   "--by-outcome"])
        assert rc == 0
        assert "outcome" in capsys.readouterr().out

    def test_recompute_from_raw_exports(self, capsys, critical_files,
                                        tmp_path):
        export = tmp_path / "recomputed.json"
        rc = main([
            "critical", "--trace", str(critical_files["trace"]),
            "--profile", str(critical_files["profile"]),
            "--export", str(export),
        ])
        assert rc == 0
        recomputed = json.loads(export.read_text())
        committed = json.loads(critical_files["critical"].read_text())
        # The --critical-out export carries the run's provenance manifest;
        # the recomputed aggregate is a derived artifact and does not.
        committed.pop("meta", None)
        assert recomputed == committed

    def test_missing_and_garbage_files(self, capsys, tmp_path):
        assert main(["critical", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"resources": {}}))
        assert main(["critical", str(bad)]) == 2
        assert main(["critical"]) == 2  # neither file nor --trace

    def test_zero_request_trace_regression(self, capsys, tmp_path):
        """Zero-request runs must render, not divide by zero.  (A trace
        file with no spans at all is a usage error; one whose only
        request never finished decomposes into zero requests.)"""
        rc = main(["critical", "--trace", _unfinished_trace(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(no complete request traces)" in out
        assert "nan" not in out.lower()


class TestWhatifCommand:
    def test_replay_mode_ranks_scenarios(self, capsys, critical_files):
        rc = main([
            "whatif", "--scenarios", "cpu:2", "lan:4",
            "--trace", str(critical_files["trace"]),
            "--profile", str(critical_files["profile"]),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "What-if predictions" in out
        assert "cpu:2" in out and "identity" in out

    def test_replay_mode_requires_trace(self, capsys):
        assert main(["whatif", "--scenarios", "cpu:2"]) == 2

    def test_bad_scenario_is_usage_error(self, capsys):
        assert main(["whatif", "--scenarios", "warp:9", "--validate"]) == 2

    def test_zero_request_trace_degenerate(self, capsys, tmp_path):
        rc = main([
            "whatif", "--scenarios", "cpu:2",
            "--trace", _unfinished_trace(tmp_path),
        ])
        assert rc == 0
        assert "nan" not in capsys.readouterr().out.lower()

    def test_validate_mode_within_bound(self, capsys):
        rc = main([
            "whatif", "--validate", "--scenarios", "cpu:2",
            "--nodes", "2", "--requests", "6", "--max-error", "0.10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK: worst error" in out and "identity" in out

    def test_validate_mode_gate_trips(self, capsys):
        # An absurdly tight bound must trip the exit-code gate.
        rc = main([
            "whatif", "--validate", "--scenarios", "cpu:2",
            "--nodes", "2", "--requests", "6", "--max-error", "1e-9",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
