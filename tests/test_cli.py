"""Tests for the command-line interface."""

import argparse
import inspect

import pytest

from repro import experiments as ex
from repro.cli import build_parser, main

CLF_SAMPLE = """\
h - - [10/Oct/1997:13:55:36 -0700] "GET /index.html HTTP/1.0" 200 2326
h - - [10/Oct/1997:13:55:38 -0700] "GET /cgi-bin/browse?item=42 HTTP/1.0" 200 8192 2.75
h - - [10/Oct/1997:13:55:39 -0700] "GET /cgi-bin/browse?item=42 HTTP/1.0" 200 8192 2.75
h - - [10/Oct/1997:13:55:40 -0700] "HEAD /x HTTP/1.0" 200 0
"""


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in (
            ["table1"], ["table2"], ["figure3"], ["figure4"], ["table3"],
            ["table4"], ["table5"], ["table6"], ["ablation", "ttl"],
            ["analyze-log", "x.log"], ["gen-trace", "zipf", "-o", "t"],
            ["all"], ["trace", "t.jsonl"], ["capacity"],
        ):
            args = parser.parse_args(cmd)
            assert callable(args.func)

    def test_observability_flags_on_experiment_commands(self):
        parser = build_parser()
        for cmd in (["figure3"], ["table3"], ["run-config", "c.ini",
                                             "--trace", "t.jsonl"]):
            args = parser.parse_args(
                cmd + ["--trace-out", "s.jsonl", "--metrics-out", "m.prom"]
            )
            assert args.trace_out == "s.jsonl"
            assert args.metrics_out == "m.prom"

    def test_streaming_flags_on_experiment_commands(self):
        parser = build_parser()
        for cmd in (["table3"], ["figure3"]):
            args = parser.parse_args(
                cmd + ["--streaming-out", "w.jsonl.gz",
                       "--streaming-window", "0.5"]
            )
            assert args.streaming_out == "w.jsonl.gz"
            assert args.streaming_window == 0.5

    @pytest.mark.parametrize("cmd", [
        ["figure3", "--timeseries-dt"],
        ["table3", "--streaming-window"],
        ["capacity", "--window"],
    ])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_width_is_usage_error(self, capsys, cmd, value):
        with pytest.raises(SystemExit) as exc:
            main(cmd + [value])
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ["figure4", "--scale", "0", "--nodes", "1"],
        ["figure4", "--nodes", "0"],
        ["table3", "--nodes", "0"],
        ["table2", "--clients", "0"],
        ["directory-grid", "--nodes", "0", "--mixes", "webstone",
         "--scale", "0.02"],
        ["directory-grid", "--scale", "0"],
        ["capacity", "--nodes", "0", "--duration", "1", "--max-probes", "1"],
        ["directory-grid", "--threads", "0"],
        ["run-config", "c.ini", "--trace", "t.jsonl", "--nodes", "0"],
        ["run-config", "c.ini", "--trace", "t.jsonl", "--clients", "0"],
        ["whatif", "--scenarios", "cpu:2", "--validate", "--nodes", "0"],
        ["whatif", "--scenarios", "cpu:2", "--validate", "--requests", "0"],
        ["gen-trace", "zipf", "-o", "t.jsonl", "-d", "0"],
        ["gen-trace", "zipf", "-o", "t.jsonl", "-n", "0"],
        ["capacity", "--distinct", "0"],
        ["capacity", "--consecutive", "0"],
        ["capacity", "--growth", "1"],
        ["audit", "a.jsonl", "--bins", "0"],
        ["figure4", "--jobs", "0"],
        ["figure4", "--jobs", "-1"],
        ["all", "--jobs", "0"],
        ["gen-trace", "adl", "-o", "t.jsonl", "--scale", "0"],
        ["trace", "s.jsonl", "--width", "0"],
        ["profile", "p.json", "--top", "0"],
        ["profile", "p.json", "--width", "0"],
        ["critical", "c.json", "--width", "0"],
    ])
    def test_non_positive_size_is_usage_error(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2
        assert "must be >" in capsys.readouterr().err


#: The observability flags: the seven exports and their two knobs.
OBSERVE = {
    "--trace-out", "--metrics-out", "--audit-out", "--timeseries-out",
    "--profile-out", "--streaming-out", "--critical-out", "--timeseries-dt",
    "--streaming-window",
}

#: Every subcommand's options: only the flags its runner reads.
OPTIONS = {
    "table1": {"--output", "--scale", "--seed"},
    "table2": OBSERVE | {"--clients", "--export", "--jobs", "--output",
                         "--requests-per-client", "--seed"},
    "figure3": OBSERVE | {"--clients", "--jobs", "--output",
                          "--requests-per-client"},
    "figure4": OBSERVE | {"--export", "--jobs", "--nodes", "--output",
                          "--scale", "--seed"},
    "table3": OBSERVE | {"--directory", "--export", "--nodes", "--output",
                         "--requests"},
    "directory-grid": OBSERVE | {"--export", "--json-out", "--mixes",
                                 "--nodes", "--output", "--protocols",
                                 "--scale", "--seed", "--threads"},
    "table4": OBSERVE | {"--export", "--output", "--rates", "--requests"},
    "table5": OBSERVE | {"--jobs", "--nodes", "--output", "--seed"},
    "table6": OBSERVE | {"--jobs", "--nodes", "--output", "--seed"},
    "ablation": OBSERVE | {"--output"},
    "study": OBSERVE | {"--output"},
    "capacity": {"--consecutive", "--cpu-time", "--dashboard", "--distinct",
                 "--duration", "--growth", "--json-out", "--max-probes",
                 "--max-rate", "--max-rho", "--mode", "--nodes", "--output",
                 "--precision", "--queue-growth-frac", "--seed", "--slo-p99",
                 "--start-rate", "--txt-out", "--warmup-windows", "--window",
                 "--windows-out"},
    "analyze-log": {"--default-cgi-time", "--output", "--thresholds"},
    "gen-trace": {"--distinct", "--out", "--scale", "--seed", "-d", "-n",
                  "-o"},
    "run-config": OBSERVE | {"--clients", "--nodes", "--output", "--trace"},
    "trace": {"--breakdown", "--output", "--percentiles", "--timeline",
              "--trace-id", "--width"},
    "audit": {"--bins", "--output", "--series", "--staleness", "--taxonomy",
              "--timeline", "--timeseries"},
    "profile": {"--bottlenecks", "--folded-out", "--node", "--output",
                "--resources", "--run", "--top", "--trace", "--width"},
    "diff": {"--abs-threshold", "--ignore", "--max-rows", "--only",
             "--output", "--threshold"},
    "critical": {"--by-outcome", "--export", "--output", "--profile",
                 "--segments", "--trace", "--width"},
    "whatif": {"--cpu-time", "--max-error", "--nodes", "--output",
               "--profile", "--requests", "--scenarios", "--trace",
               "--validate"},
    "describe-trace": {"--output", "--top"},
    "all": {"--jobs", "--output-dir"},
}

#: Flags these commands once accepted and never read, with the
#: positionals each command needs.
REMOVED = [
    (["table1"], ["--export", "--jobs"] + sorted(OBSERVE)),
    (["figure3"], ["--seed", "--export"]),
    (["table3"], ["--seed", "--jobs"]),
    (["table4"], ["--seed", "--jobs"]),
    (["directory-grid"], ["--jobs"]),
    (["table5"], ["--export"]),
    (["table6"], ["--export"]),
    (["ablation", "ttl"], ["--seed", "--export", "--jobs"]),
    (["study", "proxy"], ["--seed", "--export", "--jobs"]),
    (["analyze-log", "x.log"], ["--seed", "--export", "--jobs"]
     + sorted(OBSERVE)),
]


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionSets:
    def test_each_command_declares_exactly_its_options(self):
        commands = _subparsers()
        assert set(commands) == set(OPTIONS)
        for name, sub in commands.items():
            options = {o for a in sub._actions for o in a.option_strings}
            assert options - {"-h", "--help"} == OPTIONS[name], name

    @pytest.mark.parametrize("argv", [
        argv + [flag, "1"] for argv, flags in REMOVED for flag in flags
    ], ids=lambda argv: " ".join(argv[:-1]))
    def test_removed_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, runner, param", [
        (["table2"], ex.run_table2, "requests_per_client"),
        (["directory-grid"], ex.run_directory_grid, "seed"),
    ], ids=["table2", "directory-grid"])
    def test_parser_default_is_the_library_default(self, argv, runner, param):
        parsed = vars(build_parser().parse_args(argv))[param]
        default = inspect.signature(runner).parameters[param].default
        assert parsed == default


def test_all_runs_each_paper_command_at_its_defaults(capsys, monkeypatch,
                                                    tmp_path):
    """``repro all`` is the eight paper subcommands, each parsed at its
    own defaults with ``--output <dir>/<name>.txt``; only the sweeps
    take ``--jobs``."""
    import repro.cli as cli

    seen = []
    for name in ("_cmd_table1", "_cmd_table2", "_cmd_figure3",
                 "_cmd_figure4", "_cmd_table3", "_cmd_table4",
                 "_cmd_hit_ratio"):
        monkeypatch.setattr(cli, name, seen.append)
    assert main(["all", "--jobs", "3", "--output-dir", str(tmp_path)]) == 0
    assert [args.command for args in seen] == [
        "table1", "table2", "figure3", "figure4", "table3", "table4",
        "table5", "table6",
    ]
    sweeps = {"table2", "figure3", "figure4", "table5", "table6"}
    for args in seen:
        argv = [args.command, "--output", str(tmp_path / f"{args.command}.txt")]
        if args.command in sweeps:
            argv += ["--jobs", "3"]
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_whatif_gate_fails_on_nan_error(capsys, monkeypatch):
    """A nan prediction error (no comparable rerun) fails the gate
    wherever it sits among the rows."""
    from repro.obs import whatif

    nan_row = whatif.ValidationRow("cpu:2", 1.0, 0.5, float("nan"))
    ok_row = whatif.ValidationRow("disk:2", 1.0, 0.5, 0.5)
    for rows in ([nan_row, ok_row], [ok_row, nan_row]):
        monkeypatch.setattr(
            whatif, "validate_scenarios", lambda *a, rows=rows, **k: rows
        )
        rc = main(["whatif", "--scenarios", "cpu:2", "disk:2", "--validate"])
        assert rc == 1
        assert "FAIL: cpu:2 error nan% exceeds 10.00%" in capsys.readouterr().out


class TestProvenanceMeta:
    """The manifest every ``--*-out`` export embeds (``_provenance_meta``)."""

    KEYS = {"version", "command", "seed", "directory", "jobs", "config_hash"}

    @staticmethod
    def meta(argv):
        from repro.cli import _provenance_meta

        return _provenance_meta(build_parser().parse_args(argv))

    def test_manifest_has_exactly_the_provenance_keys(self):
        meta = self.meta(["figure4", "--seed", "5", "--jobs", "2"])
        assert set(meta) == self.KEYS
        assert meta["command"] == "figure4"
        assert meta["seed"] == 5
        assert meta["jobs"] == 2
        meta = self.meta(["table3", "--directory", "bloom"])
        assert set(meta) == self.KEYS
        assert meta["directory"] == "bloom"
        # table3 takes neither flag: its runs draw no seed and fan out no jobs
        assert meta["seed"] is None
        assert meta["jobs"] is None

    def test_grid_names_its_protocols_as_the_directory(self):
        meta = self.meta(["directory-grid", "--protocols", "digest", "bloom"])
        assert set(meta) == self.KEYS
        assert meta["directory"] == "digest,bloom"

    def test_config_hash_ignores_output_paths(self):
        base = self.meta(["table3", "--nodes", "2", "3"])
        moved = self.meta([
            "table3", "--nodes", "2", "3",
            "--output", "elsewhere/t3.txt",
            "--export", "elsewhere/t3.json",
            "--trace-out", "elsewhere/spans.jsonl",
            "--metrics-out", "elsewhere/m.prom",
            "--audit-out", "elsewhere/a.jsonl",
            "--timeseries-out", "elsewhere/ts.jsonl",
            "--profile-out", "elsewhere/p.json",
            "--critical-out", "elsewhere/c.json",
            "--streaming-out", "elsewhere/w.jsonl.gz",
        ])
        assert moved == base

    @pytest.mark.parametrize("knob", [
        ("figure4", ["--seed", "1"]), ("figure4", ["--jobs", "2"]),
        ("table3", ["--nodes", "2", "4"]), ("table3", ["--requests", "40"]),
        ("table3", ["--directory", "digest"]),
    ])
    def test_config_hash_tracks_every_run_knob(self, knob):
        command, flags = knob
        base = self.meta([command])["config_hash"]
        assert self.meta([command] + flags)["config_hash"] != base

    def test_exported_manifest_matches(self, capsys, tmp_path):
        import json

        profile = tmp_path / "p.json"
        rc = main(["table3", "--nodes", "2", "--requests", "4",
                   "--output", str(tmp_path / "t3.txt"),
                   "--profile-out", str(profile)])
        assert rc == 0
        capsys.readouterr()
        meta = json.loads(profile.read_text())["meta"]
        assert meta == self.meta(["table3", "--nodes", "2",
                                  "--requests", "4"])


class TestCapacityCommand:
    def test_tiny_search_end_to_end(self, capsys, tmp_path):
        json_out = tmp_path / "knee.json"
        txt_out = tmp_path / "knee.txt"
        windows_out = tmp_path / "windows.jsonl.gz"
        rc = main([
            "capacity", "--nodes", "1", "--duration", "4",
            "--start-rate", "2", "--max-rate", "32", "--max-probes", "3",
            "--distinct", "30", "--dashboard",
            "--json-out", str(json_out), "--txt-out", str(txt_out),
            "--windows-out", str(windows_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "knee req/s" in out
        assert "@ knee" in out  # dashboard panel title
        import json as _json

        document = _json.loads(json_out.read_text())
        assert document["schema"] == "repro-capacity-v1"
        assert document["cells"][0]["nodes"] == 1
        assert "knee req/s" in txt_out.read_text()
        assert windows_out.read_bytes()[:2] == b"\x1f\x8b"

        from repro.obs import load_streaming

        windows = load_streaming(windows_out)
        assert windows
        assert {w["phase"] for w in windows} <= {"ramp", "bisect", "knee"}

    def test_export_reproducible(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = main([
                "capacity", "--nodes", "1", "--duration", "4",
                "--start-rate", "2", "--max-rate", "16",
                "--max-probes", "2", "--distinct", "30",
                "--json-out", str(path),
            ])
            assert rc == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCommands:
    def test_table1_scaled(self, capsys, tmp_path):
        out = tmp_path / "t1.txt"
        rc = main(["table1", "--scale", "0.02", "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "Table 1" in stdout
        assert out.read_text().startswith("== Table 1")

    def test_table3_small(self, capsys):
        rc = main(["table3", "--nodes", "2", "--requests", "10"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out

    def test_table6_small(self, capsys):
        rc = main(["table6", "--nodes", "1", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 6" in out

    def test_analyze_log(self, capsys, tmp_path):
        log = tmp_path / "access.log"
        log.write_text(CLF_SAMPLE)
        rc = main(["analyze-log", str(log), "--thresholds", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Caching potential" in out
        assert "access.log" in out

    def test_analyze_log_missing_file(self, capsys):
        rc = main(["analyze-log", "/nonexistent.log"])
        assert rc == 2
        assert "no such log file" in capsys.readouterr().err

    def test_analyze_log_empty(self, capsys, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("garbage\n")
        rc = main(["analyze-log", str(log)])
        assert rc == 2

    def test_gen_trace_round_trips(self, capsys, tmp_path):
        from repro.workload import load_trace

        out = tmp_path / "trace.jsonl"
        rc = main(["gen-trace", "zipf", "-o", str(out), "-n", "50", "-d", "10"])
        assert rc == 0
        trace = load_trace(out)
        assert len(trace) == 50
        assert "wrote 50 requests" in capsys.readouterr().out

    def test_gen_trace_hit_ratio(self, tmp_path):
        from repro.workload import load_trace

        out = tmp_path / "hr.jsonl"
        rc = main(["gen-trace", "hit-ratio", "-o", str(out), "-n", "100",
                   "-d", "60"])
        assert rc == 0
        trace = load_trace(out)
        assert trace.unique_count == 60

    def test_gen_trace_adl(self, tmp_path):
        out = tmp_path / "adl.jsonl"
        rc = main(["gen-trace", "adl", "-o", str(out), "--scale", "0.01"])
        assert rc == 0
        assert out.exists()

    def test_gen_trace_webstone(self, tmp_path):
        out = tmp_path / "ws.jsonl"
        rc = main(["gen-trace", "webstone", "-o", str(out), "-n", "30"])
        assert rc == 0
        assert out.exists()


class TestRunConfig:
    def test_run_config_end_to_end(self, capsys, tmp_path):
        from repro.workload import save_trace, zipf_cgi_trace

        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = cooperative\ncapacity = 40\n")
        trace = tmp_path / "t.jsonl"
        save_trace(zipf_cgi_trace(80, 15, seed=2), trace)
        rc = main(["run-config", str(conf), "--trace", str(trace),
                   "--nodes", "2", "--clients", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit ratio" in out
        assert "mode=cooperative" in out

    def test_missing_config(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        rc = main(["run-config", "/nope.conf", "--trace", str(trace)])
        assert rc == 2

    def test_missing_trace(self, capsys, tmp_path):
        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = none\n")
        rc = main(["run-config", str(conf), "--trace", "/nope.jsonl"])
        assert rc == 2

    def test_empty_trace_rejected(self, capsys, tmp_path):
        from repro.workload import Trace, save_trace

        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = none\n")
        trace = tmp_path / "t.jsonl"
        save_trace(Trace([], name="empty"), trace)
        rc = main(["run-config", str(conf), "--trace", str(trace)])
        assert rc == 2


MALFORMED_INPUTS = {
    # a file that does not parse where a trace/config is loaded strictly
    "describe-trace": ["describe-trace", "{bad}"],
    "run-config-config": ["run-config", "{bad_json}", "--trace", "{ok}"],
    "run-config-trace": ["run-config", "{ini}", "--trace", "{bad}"],
    "audit-timeseries": ["audit", "{audit}", "--timeseries", "{bad}"],
    "audit-timeseries-kind": ["audit", "{audit}", "--timeseries", "{ok}"],
    # lenient span loads: torn lines are skipped, and then no span is left
    "trace": ["trace", "{bad}"],
    "critical": ["critical", "--trace", "{bad}"],
    "whatif": ["whatif", "--scenarios", "cpu:2", "--trace", "{bad}"],
    "profile": ["profile", "{profile}", "--trace", "{bad}"],
}


class TestMalformedInputs:
    """Malformed input files are usage errors (exit 2, ``error:`` on
    stderr), never tracebacks."""

    @pytest.fixture
    def files(self, tmp_path):
        import json

        from repro.workload import save_trace, zipf_cgi_trace

        paths = {name: tmp_path / name for name in (
            "bad.jsonl", "bad.json", "ok.jsonl", "swala.ini", "a.jsonl",
            "p.json",
        )}
        paths["bad.jsonl"].write_text("not json\n")
        paths["bad.json"].write_text("{not json\n")
        save_trace(zipf_cgi_trace(10, 3, seed=1), paths["ok.jsonl"])
        paths["swala.ini"].write_text("[cache]\nmode = cooperative\n")
        paths["a.jsonl"].write_text(json.dumps({
            "type": "request", "run": 1, "node": "n0", "url": "/cgi/x",
            "kind": "cgi", "started": 0.0, "finished": 1.0,
            "classification": "cold-miss",
        }) + "\n")
        paths["p.json"].write_text(json.dumps({
            "version": 1, "runs": 0, "dropped": 0, "resources": [],
            "locks": [],
        }))
        return {
            "bad": paths["bad.jsonl"], "bad_json": paths["bad.json"],
            "ok": paths["ok.jsonl"], "ini": paths["swala.ini"],
            "audit": paths["a.jsonl"], "profile": paths["p.json"],
        }

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_is_usage_error(self, capsys, files, case):
        argv = [arg.format(**files) for arg in MALFORMED_INPUTS[case]]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err


def test_metrics_written_once_with_streaming(capsys, tmp_path, monkeypatch):
    """``--streaming-out`` publishes its totals into the registry before
    the one write of ``--metrics-out``."""
    from repro.obs import MetricsRegistry

    writes = []
    real_write = MetricsRegistry.write

    def counting_write(self, path, meta=None):
        writes.append(path)
        return real_write(self, path, meta=meta)

    monkeypatch.setattr(MetricsRegistry, "write", counting_write)
    metrics = tmp_path / "m.prom"
    rc = main([
        "table3", "--nodes", "2", "--requests", "10",
        "--metrics-out", str(metrics),
        "--streaming-out", str(tmp_path / "s.jsonl"),
    ])
    assert rc == 0
    assert len(writes) == 1
    assert "swala_streaming_windows_total" in metrics.read_text()


class TestTracing:
    @pytest.fixture
    def span_file(self, capsys, tmp_path):
        """Run a small cooperative cluster with --trace-out."""
        from repro.workload import save_trace, zipf_cgi_trace

        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = cooperative\ncapacity = 40\n")
        trace = tmp_path / "t.jsonl"
        save_trace(zipf_cgi_trace(80, 15, seed=2), trace)
        spans = tmp_path / "out" / "spans.jsonl"
        metrics = tmp_path / "out" / "metrics.prom"
        rc = main(["run-config", str(conf), "--trace", str(trace),
                   "--nodes", "2", "--clients", "4",
                   "--trace-out", str(spans), "--metrics-out", str(metrics)])
        assert rc == 0
        capsys.readouterr()
        return spans, metrics

    def test_run_config_writes_artifacts(self, span_file):
        spans, metrics = span_file
        assert spans.exists()
        # First line is the provenance manifest, then Prometheus text.
        meta, rest = metrics.read_text().split("\n", 1)
        assert meta.startswith("# meta {")
        assert '"command":"run-config"' in meta
        assert rest.startswith("# HELP")

    def test_trace_default_report(self, capsys, span_file):
        spans, _ = span_file
        rc = main(["trace", str(spans)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "complete requests" in out
        assert "Latency breakdown" in out
        assert "percentiles" in out

    def test_trace_breakdown_only(self, capsys, span_file):
        spans, _ = span_file
        rc = main(["trace", str(spans), "--breakdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queue %" in out
        assert "percentiles" not in out

    def test_trace_timeline(self, capsys, span_file):
        spans, _ = span_file
        rc = main(["trace", str(spans), "--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "█" in out

    def test_trace_timeline_bad_id(self, capsys, span_file):
        spans, _ = span_file
        rc = main(["trace", str(spans), "--timeline", "--trace-id", "99999"])
        assert rc == 2
        assert "no trace with id" in capsys.readouterr().err

    def test_trace_missing_file(self, capsys):
        rc = main(["trace", "/nonexistent.jsonl"])
        assert rc == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_trace_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rc = main(["trace", str(bad)])
        assert rc == 2

    def test_trace_out_deterministic(self, capsys, tmp_path):
        from repro.workload import save_trace, zipf_cgi_trace

        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = cooperative\n")
        trace = tmp_path / "t.jsonl"
        save_trace(zipf_cgi_trace(40, 10, seed=5), trace)

        def run(tag):
            out = tmp_path / f"spans-{tag}.jsonl"
            rc = main(["run-config", str(conf), "--trace", str(trace),
                       "--nodes", "2", "--clients", "4",
                       "--trace-out", str(out)])
            assert rc == 0
            return out.read_bytes()

        first, second = run("a"), run("b")
        capsys.readouterr()
        assert first == second

    def test_figure3_trace_out(self, capsys, tmp_path):
        spans = tmp_path / "f3.jsonl"
        rc = main(["figure3", "--clients", "4", "--requests-per-client", "2",
                   "--trace-out", str(spans)])
        assert rc == 0
        rc = main(["trace", str(spans), "--breakdown"])
        assert rc == 0
        out = capsys.readouterr().out
        # Figure 3 exercises local hits, remote hits, misses, and files.
        assert "local-hit" in out
        assert "remote-hit" in out


class TestProfiling:
    @pytest.fixture
    def profile_files(self, capsys, tmp_path):
        """Run a small cooperative cluster with --profile-out/--trace-out."""
        from repro.workload import save_trace, zipf_cgi_trace

        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = cooperative\ncapacity = 40\n")
        trace = tmp_path / "t.jsonl"
        save_trace(zipf_cgi_trace(60, 12, seed=3), trace)
        profile = tmp_path / "out" / "profile.json"
        spans = tmp_path / "out" / "spans.jsonl"
        rc = main(["run-config", str(conf), "--trace", str(trace),
                   "--nodes", "2", "--clients", "4",
                   "--profile-out", str(profile), "--trace-out", str(spans)])
        assert rc == 0
        capsys.readouterr()
        return profile, spans

    def test_profile_default_report(self, capsys, profile_files):
        profile, _ = profile_files
        rc = main(["profile", str(profile)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-node bottlenecks" in out
        assert "ρ=λ·W" in out
        assert "Resources" in out
        assert "swala0" in out

    def test_profile_bottlenecks_only_and_top(self, capsys, profile_files):
        profile, _ = profile_files
        rc = main(["profile", str(profile), "--bottlenecks"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-node bottlenecks" in out
        assert "Resources (run" not in out
        rc = main(["profile", str(profile), "--resources", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "omitted" in out

    def test_profile_flame_from_trace(self, capsys, profile_files, tmp_path):
        profile, spans = profile_files
        folded = tmp_path / "stacks.folded"
        rc = main(["profile", str(profile), "--trace", str(spans),
                   "--folded-out", str(folded)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== Flame" in out
        text = folded.read_text()
        # Folded stacks root at the outcome taxonomy with µs counts.
        assert ";request" in text
        assert text.splitlines()[0].rsplit(" ", 1)[1].isdigit()

    def test_profile_missing_and_garbage_files(self, capsys, tmp_path):
        rc = main(["profile", "/nonexistent.json"])
        assert rc == 2
        assert "no such profile file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a profile"}')
        rc = main(["profile", str(bad)])
        assert rc == 2
        assert "not a profiler export" in capsys.readouterr().err

    def test_profile_out_deterministic(self, capsys, tmp_path):
        from repro.workload import save_trace, zipf_cgi_trace

        conf = tmp_path / "swala.conf"
        conf.write_text("[cache]\nmode = cooperative\n")
        trace = tmp_path / "t.jsonl"
        save_trace(zipf_cgi_trace(40, 10, seed=5), trace)

        def run(tag):
            import itertools

            from repro.clients import client as client_mod
            from repro.core import server as server_mod

            # Pin the process-global name counters so resource names
            # (not just numbers) repeat across in-process runs.
            client_mod._client_ids = itertools.count()
            server_mod._adhoc_ports = itertools.count()
            out = tmp_path / f"profile-{tag}.json"
            rc = main(["run-config", str(conf), "--trace", str(trace),
                       "--nodes", "2", "--clients", "4",
                       "--profile-out", str(out)])
            assert rc == 0
            return out.read_bytes()

        first, second = run("a"), run("b")
        capsys.readouterr()
        assert first == second
