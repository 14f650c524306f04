"""Tests for spans and the bounded trace collector."""

import json

import pytest

from repro.obs import (
    SPAN_CATEGORIES,
    Span,
    TraceCollector,
    load_jsonl,
)


class TestSpan:
    def test_close_sets_end_and_merges_attrs(self):
        col = TraceCollector()
        span = col.start_trace("req", node="n0", start=1.0, url="/x")
        span.close(3.5, outcome="exec")
        assert span.closed
        assert span.duration == pytest.approx(2.5)
        assert span.attrs["url"] == "/x"
        assert span.attrs["outcome"] == "exec"

    def test_double_close_raises(self):
        col = TraceCollector()
        span = col.start_trace("req", node="n0", start=0.0)
        span.close(1.0)
        with pytest.raises(RuntimeError):
            span.close(2.0)

    def test_negative_duration_raises(self):
        col = TraceCollector()
        span = col.start_trace("req", node="n0", start=5.0)
        with pytest.raises(ValueError):
            span.close(4.0)

    def test_duration_before_close_raises(self):
        col = TraceCollector()
        span = col.start_trace("req", node="n0", start=0.0)
        with pytest.raises(RuntimeError):
            span.duration

    def test_child_inherits_trace_and_node(self):
        col = TraceCollector()
        root = col.start_trace("req", node="n0", start=0.0)
        child = col.start_span("accept", parent=root, category="cpu", start=0.1)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.node == "n0"  # inherited
        assert child.category in SPAN_CATEGORIES

    def test_round_trip_dict(self):
        col = TraceCollector()
        span = col.start_trace("req", node="n0", start=1.0, url="/x")
        span.close(2.0)
        again = Span.from_dict(span.to_dict())
        assert again.to_dict() == span.to_dict()

    def test_repr_never_raises(self):
        col = TraceCollector()
        span = col.start_trace("req", node="n0", start=0.0)
        assert "req" in repr(span)
        span.close(1.0)
        assert "end=" in repr(span)


class TestCollectorBounds:
    def test_overflow_counts_dropped_and_flags_span(self):
        col = TraceCollector(max_spans=3)
        spans = [col.start_trace(f"r{i}", node="n", start=0.0) for i in range(5)]
        assert len(col) == 3
        assert col.dropped == 2
        assert all(s.recorded for s in spans[:3])
        assert all(not s.recorded for s in spans[3:])
        # Overflowed spans still behave (callers never check).
        spans[4].close(1.0)
        assert spans[4].duration == 1.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            TraceCollector(max_spans=0)

    def test_new_run_stamps_spans(self):
        col = TraceCollector()
        a = col.start_trace("r", node="n", start=0.0)
        col.new_run()
        b = col.start_trace("r", node="n", start=0.0)
        assert "run" not in a.attrs
        assert b.attrs["run"] == 1


class TestQueries:
    def test_traces_groups_by_id(self):
        col = TraceCollector()
        r1 = col.start_trace("a", node="n", start=0.0)
        r2 = col.start_trace("b", node="n", start=0.0)
        col.start_span("c", parent=r1, start=0.1)
        grouped = col.traces()
        assert len(grouped[r1.trace_id]) == 2
        assert len(grouped[r2.trace_id]) == 1

    def test_open_spans(self):
        col = TraceCollector()
        a = col.start_trace("a", node="n", start=0.0)
        b = col.start_trace("b", node="n", start=0.0)
        a.close(1.0)
        assert col.open_spans() == [b]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        col = TraceCollector()
        root = col.start_trace("req", node="n0", start=0.0, url="/x")
        col.start_span("accept", parent=root, category="cpu", start=0.1).close(0.2)
        root.close(1.0, outcome="exec")
        path = tmp_path / "deep" / "dir" / "trace.jsonl"
        col.write(path)  # creates parents
        dump = load_jsonl(path)
        assert len(dump) == 2
        assert dump.events == []
        loaded_root = next(s for s in dump.spans if s.parent_id is None)
        assert loaded_root.attrs["outcome"] == "exec"

    def test_deterministic_output(self):
        def build():
            col = TraceCollector()
            root = col.start_trace("req", node="n0", start=0.0, url="/x")
            col.start_span("a", parent=root, category="cpu", start=0.1).close(0.4)
            root.close(1.0)
            return col.to_jsonl()

        assert build() == build()

    def test_every_line_is_compact_sorted_json(self):
        col = TraceCollector()
        col.start_trace("req", node="n0", start=0.0, b=1, a=2).close(1.0)
        line = col.to_jsonl().splitlines()[0]
        data = json.loads(line)
        assert line == json.dumps(data, sort_keys=True, separators=(",", ":"))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_jsonl(path)
        path.write_text('{"type":"mystery"}\n')
        with pytest.raises(ValueError):
            load_jsonl(path)
