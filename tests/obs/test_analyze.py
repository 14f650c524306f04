"""Tests for the latency-breakdown analyzer."""

import pytest

from repro.obs import (
    TraceCollector,
    TraceDump,
    outcome_of,
    render_breakdown,
    render_percentiles,
    render_timeline,
    render_trace_report,
    request_records,
)


def make_dump(*, close_root=True, outcome="exec", **root_attrs):
    """One request trace: queue 0.1s + cpu 0.5s + a grandchild."""
    col = TraceCollector()
    root = col.start_trace("request", node="n0", start=0.0, url="/cgi-bin/x",
                           kind="cgi", **root_attrs)
    col.start_span("queue", parent=root, category="queue", start=0.0).close(0.1)
    exe = col.start_span("execute", parent=root, category="cpu", start=0.1)
    # Grandchildren never count toward the breakdown shares.
    col.start_span("hop", parent=exe, category="network", start=0.2).close(0.3)
    exe.close(0.6)
    if close_root:
        root.close(1.0, outcome=outcome)
    return TraceDump(col.spans, []), root


class TestOutcomeOf:
    @pytest.mark.parametrize(
        "attrs, expected",
        [
            ({"outcome": "local-cache"}, "local-hit"),
            ({"outcome": "remote-cache"}, "remote-hit"),
            ({"outcome": "exec"}, "miss"),
            ({"outcome": "exec", "false_hit_retries": 1}, "false-hit"),
            ({"outcome": "exec", "uncacheable": True}, "uncacheable"),
            ({"outcome": "exec", "coalesced": 1}, "coalesced"),
            ({"outcome": "local-cache", "coalesced": 1}, "coalesced"),
            ({"outcome": "remote-cache", "false_hit_retries": 2}, "false-hit"),
            ({"outcome": "file"}, "file"),
            ({}, "unknown"),
        ],
    )
    def test_taxonomy(self, attrs, expected):
        col = TraceCollector()
        root = col.start_trace("request", node="n", start=0.0)
        root.close(1.0, **attrs)
        assert outcome_of(root) == expected


class TestRequestRecords:
    def test_shares_sum_to_total(self):
        dump, _ = make_dump()
        (record,) = request_records(dump)
        assert record.total == pytest.approx(1.0)
        assert sum(record.shares.values()) == pytest.approx(record.total)
        assert record.share("queue") == pytest.approx(0.1)
        assert record.share("cpu") == pytest.approx(0.5)
        # 0.6..1.0 uncovered by any direct child => "other"
        assert record.share("other") == pytest.approx(0.4)
        # The grandchild hop is anatomy, not a share.
        assert record.share("network") == 0.0

    def test_unclosed_root_skipped(self):
        dump, _ = make_dump(close_root=False)
        assert request_records(dump) == []

    def test_metadata_carried(self):
        dump, _ = make_dump(outcome="local-cache")
        (record,) = request_records(dump)
        assert record.url == "/cgi-bin/x"
        assert record.node == "n0"
        assert record.outcome == "local-hit"


class TestRenderers:
    def test_breakdown_table(self):
        dump, _ = make_dump()
        text = render_breakdown(request_records(dump))
        assert "miss" in text
        assert "queue %" in text
        assert "10.00" in text  # queue share of the 1s request

    def test_percentiles_table(self):
        dump, _ = make_dump()
        text = render_percentiles(request_records(dump))
        assert "p99" in text
        assert "miss" in text

    def test_empty_records(self):
        assert "no complete" in render_breakdown([])
        assert "no complete" in render_percentiles([])

    def test_timeline_draws_all_spans(self):
        dump, root = make_dump()
        text = render_timeline(dump)
        assert f"trace {root.trace_id}" in text
        for name in ("request", "queue", "execute", "hop"):
            assert name in text
        assert "█" in text
        # grandchild indented deeper than its parent
        hop_line = next(l for l in text.splitlines() if "hop" in l)
        assert hop_line.startswith("    hop")

    def test_timeline_unknown_id_raises(self):
        dump, _ = make_dump()
        with pytest.raises(KeyError):
            render_timeline(dump, trace_id=999)

    def test_timeline_empty_dump(self):
        assert "empty" in render_timeline(TraceDump([], []))

    def test_full_report(self):
        dump, _ = make_dump()
        text = render_trace_report(dump)
        assert "1 complete requests" in text
        assert "Latency breakdown" in text
        assert "percentiles" in text


class TestTruncatedTraces:
    """A run killed mid-write leaves a torn JSONL tail and unclosed
    spans; the analyzer must degrade gracefully, not crash."""

    def write_truncated(self, tmp_path):
        col = TraceCollector()
        root = col.start_trace("request", node="n0", start=0.0)
        col.start_span("queue", parent=root, category="queue", start=0.0).close(0.1)
        root.close(1.0, outcome="exec")
        path = col.write(tmp_path / "trace.jsonl")
        with path.open("a") as fh:
            fh.write('{"type": "span", "torn": tru')  # torn mid-token
        return path

    def test_strict_load_raises(self, tmp_path):
        from repro.obs import load_jsonl

        with pytest.raises(ValueError, match="not JSON"):
            load_jsonl(self.write_truncated(tmp_path))

    def test_lenient_load_skips_and_counts(self, tmp_path):
        from repro.obs import load_jsonl

        dump = load_jsonl(self.write_truncated(tmp_path), strict=False)
        assert len(dump.spans) == 2
        assert dump.skipped_lines == 1

    def test_lenient_load_skips_malformed_records(self, tmp_path):
        from repro.obs import load_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "span"}\n'            # missing required fields
            '{"type": "mystery"}\n'         # unknown record type
            '{"type": "event", "time": 0.0, "kind": "k", "detail": "d"}\n'
        )
        with pytest.raises(ValueError):
            load_jsonl(path)
        dump = load_jsonl(path, strict=False)
        assert dump.skipped_lines == 2
        assert len(dump.events) == 1

    def make_unclosed_dump(self):
        col = TraceCollector()
        root = col.start_trace("request", node="n0", start=0.0)
        col.start_span("queue", parent=root, category="queue", start=0.0)
        return TraceDump(col.spans, []), root

    def test_all_unclosed_timeline_reports_not_raises(self):
        dump, root = self.make_unclosed_dump()
        text = render_timeline(dump, trace_id=root.trace_id)
        assert "all 2 spans unclosed" in text

    def test_partially_closed_timeline_draws(self):
        dump, root = make_dump(close_root=False)
        text = render_timeline(dump, trace_id=root.trace_id)
        assert "queue" in text
        assert "open" in text  # unclosed root flagged, not crashed

    def test_report_warns_on_unclosed_and_skipped(self):
        dump, _ = self.make_unclosed_dump()
        dump.skipped_lines = 3
        text = render_trace_report(dump)
        assert "2 unclosed span(s)" in text
        assert "3 malformed line(s)" in text
