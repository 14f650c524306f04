"""Tests for gzip-transparent observability I/O (``repro.obs.ioutil``).

Every ``--*-out`` flag gzips when the path ends in ``.gz``, and every
loader sniffs the gzip magic bytes instead of trusting the suffix —
so renamed files still load, and compressed artifacts flow through
``repro trace`` / ``repro audit`` / ``repro diff`` unchanged.
"""

import gzip
import json

import pytest

from repro.obs.ioutil import is_gzip_path, logical_suffix, read_text, write_text


class TestIoutil:
    def test_suffix_detection(self):
        assert is_gzip_path("a/b.jsonl.gz")
        assert not is_gzip_path("a/b.jsonl")
        assert logical_suffix("m.json.gz") == ".json"
        assert logical_suffix("m.json") == ".json"
        assert logical_suffix("t.jsonl.gz") == ".jsonl"
        assert logical_suffix("plain.prom") == ".prom"

    def test_round_trip_plain_and_gz(self, tmp_path):
        for name in ("x.txt", "x.txt.gz"):
            path = tmp_path / name
            write_text(path, "hello\nwindows\n")
            assert read_text(path) == "hello\nwindows\n"
        assert (tmp_path / "x.txt.gz").read_bytes()[:2] == b"\x1f\x8b"

    def test_read_sniffs_magic_not_suffix(self, tmp_path):
        """A gzipped file renamed without .gz still loads."""
        path = tmp_path / "renamed.jsonl"
        path.write_bytes(gzip.compress(b'{"a": 1}\n'))
        assert json.loads(read_text(path)) == {"a": 1}

    def test_gzip_output_deterministic(self, tmp_path):
        """mtime=0 in the gzip header: same text => same bytes, so CI
        can `cmp` two same-seed exports."""
        a, b = tmp_path / "a.gz", tmp_path / "b.gz"
        write_text(a, "payload")
        write_text(b, "payload")
        assert a.read_bytes() == b.read_bytes()

    def test_write_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "er" / "x.gz"
        write_text(path, "x")
        assert read_text(path) == "x"


class TestLoadersTransparent:
    """Each observability loader accepts gzipped input transparently."""

    def test_trace_dump(self, tmp_path):
        from repro.obs import TraceCollector, load_jsonl

        collector = TraceCollector()
        span = collector.start_trace("req", node="n0", start=0.0,
                                     url="/cgi/x")
        span.close(1.5, outcome="exec")
        plain = tmp_path / "t.jsonl"
        gz = tmp_path / "t.jsonl.gz"
        collector.write(plain)
        collector.write(gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        a, b = load_jsonl(plain), load_jsonl(gz)
        assert len(a.spans) == len(b.spans) == 1
        assert a.spans[0].attrs == b.spans[0].attrs

    def test_diff_counters(self, tmp_path):
        from repro.obs.diff import load_counters

        record = {"type": "window", "completions": 5, "arrivals": 6,
                  "errors": 0, "hits": 3, "misses": 2, "saturated": True}
        for name in ("w.jsonl", "w.jsonl.gz"):
            write_text(tmp_path / name, json.dumps(record) + "\n")
        a = load_counters(tmp_path / "w.jsonl")
        b = load_counters(tmp_path / "w.jsonl.gz")
        assert a == b
        assert a["window.completions"] == 5
        assert a["window.saturated_windows"] == 1

    def test_diff_json_metrics(self, tmp_path):
        from repro.obs.diff import load_counters

        payload = {"req_total": {"type": "counter",
                                 "series": [{"labels": {}, "value": 7}]}}
        for name in ("m.json", "m.json.gz"):
            write_text(tmp_path / name, json.dumps(payload))
        assert load_counters(tmp_path / "m.json") == \
            load_counters(tmp_path / "m.json.gz")


class TestCliGzip:
    """End-to-end: --*-out gzips on .gz, and readers accept it back."""

    def test_table3_artifacts_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "spans.jsonl.gz"
        metrics_out = tmp_path / "metrics.json.gz"
        streaming_out = tmp_path / "windows.jsonl.gz"
        rc = main([
            "table3", "--nodes", "2", "--requests", "30",
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
            "--streaming-out", str(streaming_out),
        ])
        assert rc == 0
        capsys.readouterr()
        for path in (trace_out, metrics_out, streaming_out):
            assert path.read_bytes()[:2] == b"\x1f\x8b", path

        rc = main(["trace", str(trace_out)])
        assert rc == 0
        assert "spans in" in capsys.readouterr().out

        from repro.obs import load_streaming

        windows = load_streaming(streaming_out)
        assert windows
        # Table 3 runs the cell once per mode; each run restamps.
        assert {w["run"] for w in windows} == {1, 2}
        assert sum(w["completions"] for w in windows) == 60

    def test_diff_gz_vs_plain_is_clean(self, tmp_path, capsys):
        from repro.cli import main

        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl.gz"
        for out in (out_a, out_b):
            rc = main(["table3", "--nodes", "2", "--requests", "20",
                       "--streaming-out", str(out)])
            assert rc == 0
        capsys.readouterr()
        rc = main(["diff", str(out_a), str(out_b)])
        out = capsys.readouterr().out
        assert rc == 0, out
