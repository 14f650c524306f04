"""Tests for the critical-path blame decomposition (obs.critical)."""

import json

import pytest

from repro.obs.critical import (
    BLAME_SEGMENTS,
    aggregate_blame,
    decompose,
    fold_aggregate,
    intervals_by_span,
    load_critical,
    render_by_outcome,
    render_critical_report,
    render_segments,
    to_json,
    write_critical,
)
from repro.obs.trace import Span, TraceDump


def make_span(trace_id, span_id, parent_id, name, start, end=None,
              category="other", **attrs):
    span = Span(trace_id, span_id, parent_id, name, "n0", category, start, 0,
                attrs)
    if end is not None:
        span.close(end)
    return span


def interval(trace, span, *, wait=0.0, service=0.0, kind="resource",
             resource="n0.cpu", start=0.0, end=None):
    return {
        "trace": trace, "span": span, "resource": resource, "kind": kind,
        "run": 1, "wait": wait, "service": service, "start": start,
        "end": end if end is not None else start + wait + service,
    }


def segments_of(dump, intervals=None):
    records = decompose(dump, intervals)
    assert len(records) == 1
    return records[0]


# -- exact decomposition on hand-built trees --------------------------------

def test_serial_chain_exact_blame():
    """queue -> cpu -> hop, with uncovered tail owned by the root."""
    spans = [
        make_span(1, 1, None, "request", 0.0, 10.0, outcome="exec"),
        make_span(1, 2, 1, "queue", 0.0, 1.0, category="queue"),
        make_span(1, 3, 1, "execute", 1.0, 6.0, category="cpu"),
        make_span(1, 4, 1, "hop:a->b", 6.0, 8.0, category="network"),
    ]
    rec = segments_of(TraceDump(spans, []))
    assert rec.segments == pytest.approx({
        "queue-wait": 1.0,
        "cpu-service": 5.0,
        "nic-transfer": 2.0,   # no intervals: hop falls back to serialization
        "other": 2.0,          # 8..10 explained by nothing but the root
    })
    assert sum(rec.segments.values()) == pytest.approx(rec.total)
    assert rec.busy == pytest.approx(8.0)
    assert rec.busy <= rec.total


def test_fanout_join_deepest_and_latest_wins():
    """Overlapping siblings: the later-started span owns the overlap."""
    spans = [
        make_span(1, 1, None, "request", 0.0, 10.0, outcome="exec"),
        make_span(1, 2, 1, "execute", 1.0, 5.0, category="cpu"),
        make_span(1, 3, 1, "hop:a->b", 3.0, 7.0, category="network"),
    ]
    rec = segments_of(TraceDump(spans, []))
    # execute owns 1..3 (overlap 3..5 goes to the later hop), hop owns
    # 3..7, the root keeps 0..1 and 7..10.
    assert rec.segments == pytest.approx({
        "cpu-service": 2.0,
        "nic-transfer": 4.0,
        "other": 4.0,
    })
    assert sum(rec.segments.values()) == pytest.approx(10.0)
    assert rec.busy == pytest.approx(6.0)  # union of 1..7


def test_nested_spans_deepest_covers():
    spans = [
        make_span(1, 1, None, "request", 0.0, 8.0, outcome="exec"),
        make_span(1, 2, 1, "fetch-remote", 1.0, 7.0, category="network"),
        make_span(1, 3, 2, "hop:a->b", 2.0, 4.0, category="network"),
    ]
    rec = segments_of(TraceDump(spans, []))
    assert rec.segments == pytest.approx({
        "peer-wait": 4.0,      # fetch-remote minus the nested hop
        "nic-transfer": 2.0,
        "other": 2.0,
    })


def test_intervals_refine_span_blame():
    """Linked intervals split a span's owned time into wait + service."""
    spans = [
        make_span(1, 1, None, "request", 0.0, 10.0, outcome="exec"),
        make_span(1, 2, 1, "execute", 0.0, 10.0, category="cpu"),
    ]
    ivs = [interval(1, 2, wait=4.0, service=6.0, kind="cpu", start=0.0)]
    rec = segments_of(TraceDump(spans, []), ivs)
    assert rec.segments == pytest.approx({
        "cpu-service": 6.0,
        "cpu-queue": 4.0,
    })


def test_interval_budget_is_capped_by_owned_time():
    """An interval larger than the span's owned time cannot overdraw."""
    spans = [
        make_span(1, 1, None, "request", 0.0, 4.0, outcome="exec"),
        make_span(1, 2, 1, "read-file", 0.0, 4.0, category="disk"),
    ]
    # The 12s interval overlaps the 4s span by a third: each amount is
    # prorated (service 9 -> 3, wait 3 -> 1) and the sum can never
    # exceed the span's owned time.
    ivs = [interval(1, 2, wait=3.0, service=9.0, resource="n0.disk",
                    start=0.0)]
    rec = segments_of(TraceDump(spans, []), ivs)
    assert sum(rec.segments.values()) == pytest.approx(4.0)
    assert rec.segments["disk-service"] == pytest.approx(3.0)
    assert rec.segments["disk-wait"] == pytest.approx(1.0)
    # An interval bigger than the owned-time budget in absolute terms is
    # hard-capped by the greedy draw (service first, then wait).
    ivs = [interval(1, 2, wait=3.0, service=9.0, resource="n0.disk",
                    start=0.0, end=4.0)]
    rec = segments_of(TraceDump(spans, []), ivs)
    assert rec.segments == pytest.approx({"disk-service": 4.0})


def test_overlapping_waits_clip_to_span_window():
    """An interval half-outside the span only charges the covered half."""
    spans = [
        make_span(1, 1, None, "request", 0.0, 10.0, outcome="exec"),
        make_span(1, 2, 1, "send", 0.0, 2.0, category="cpu"),
        make_span(1, 3, 1, "hop:a->b", 2.0, 6.0, category="network"),
    ]
    # NIC interval spanning 4..8: only 4..6 overlaps the hop span.
    ivs = [interval(1, 3, wait=2.0, service=2.0, resource="n0.nic",
                    start=4.0, end=8.0)]
    rec = segments_of(TraceDump(spans, []), ivs)
    assert rec.segments["nic-transfer"] == pytest.approx(1.0)
    assert rec.segments["nic-wait"] == pytest.approx(1.0)
    # The rest of the hop window is wire latency once intervals refined it.
    assert rec.segments["net-latency"] == pytest.approx(2.0)
    assert sum(rec.segments.values()) == pytest.approx(10.0)


def test_lock_wait_fallback_for_refined_directory_spans():
    spans = [
        make_span(1, 1, None, "request", 0.0, 5.0, outcome="exec"),
        make_span(1, 2, 1, "lookup", 0.0, 5.0, category="cpu"),
    ]
    ivs = [interval(1, 2, service=2.0, kind="cpu", start=0.0)]
    rec = segments_of(TraceDump(spans, []), ivs)
    assert rec.segments == pytest.approx({
        "cpu-service": 2.0,
        "lock-wait": 3.0,
    })


def test_open_and_foreign_traces_skipped():
    spans = [
        make_span(1, 1, None, "request", 0.0, None, outcome="exec"),
        make_span(1, 2, 1, "execute", 0.0, 1.0, category="cpu"),
        make_span(2, 3, None, "request", 0.0, 2.0, outcome="exec"),
    ]
    records = decompose(TraceDump(spans, []))
    assert [r.trace_id for r in records] == [2]


def test_intervals_by_span_ignores_unlinked():
    index = intervals_by_span([
        interval(1, 2, wait=1.0),
        {"resource": "x", "wait": 1.0},  # no trace/span link
    ])
    assert set(index) == {(1, 2)}
    assert intervals_by_span(None) == {}


# -- aggregation + export ----------------------------------------------------

def _two_request_dump():
    spans = [
        make_span(1, 1, None, "request", 0.0, 4.0, outcome="exec"),
        make_span(1, 2, 1, "execute", 0.0, 4.0, category="cpu"),
        make_span(2, 3, None, "request", 0.0, 2.0, outcome="local-cache"),
        make_span(2, 4, 3, "fetch-local", 0.0, 2.0, category="disk"),
    ]
    return TraceDump(spans, [])


def test_aggregate_blame_shares_and_outcomes():
    data = aggregate_blame(decompose(_two_request_dump()))
    assert data["requests"] == 2
    assert data["mean_latency"] == pytest.approx(3.0)
    assert data["segments"]["cpu-service"]["total"] == pytest.approx(4.0)
    assert data["segments"]["disk-service"]["share"] == pytest.approx(2 / 6)
    assert set(data["by_outcome"]) == {"miss", "local-hit"}
    assert data["by_outcome"]["local-hit"]["mean_latency"] == pytest.approx(2.0)
    total_share = sum(e["share"] for e in data["segments"].values())
    assert total_share == pytest.approx(1.0)


def test_aggregate_blame_empty_is_degenerate_safe():
    data = aggregate_blame([])
    assert data["requests"] == 0
    assert data["mean_latency"] == 0.0
    assert data["segments"] == {}
    text = to_json(data)
    assert "NaN" not in text and "Infinity" not in text
    assert render_critical_report(data) == "(no complete request traces)"
    assert render_segments(data) == "(no complete request traces)"
    assert render_by_outcome(data) == ""


def test_export_roundtrip_and_determinism(tmp_path):
    data = aggregate_blame(decompose(_two_request_dump()))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_critical(data, p1)
    write_critical(aggregate_blame(decompose(_two_request_dump())), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_critical(p1)
    assert loaded["requests"] == 2
    assert loaded["segments"]["cpu-service"]["total"] == pytest.approx(4.0)


def test_load_critical_rejects_foreign_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"resources": {}}))
    with pytest.raises(ValueError):
        load_critical(path)


def fold_blame(records):
    """Reference blame-rooted folding, straight from per-request records:
    ``fold_aggregate`` over the aggregate must reproduce it."""
    folded = {}
    for record in records:
        for segment, seconds in record.segments.items():
            if seconds > 0.0:
                path = f"{record.outcome};{segment}"
                folded[path] = folded.get(path, 0.0) + seconds
    return folded


def test_fold_blame_stacks():
    records = decompose(_two_request_dump())
    folded = fold_blame(records)
    assert folded == pytest.approx({
        "miss;cpu-service": 4.0,
        "local-hit;disk-service": 2.0,
    })
    assert fold_aggregate(aggregate_blame(records)) == pytest.approx(folded)


def test_render_tables_have_all_segments_in_order():
    data = aggregate_blame(decompose(_two_request_dump()))
    text = render_segments(data)
    assert "cpu-service" in text and "disk-service" in text
    outcome = render_by_outcome(data)
    assert "miss" in outcome and "local-hit" in outcome
    for name in data["segments"]:
        assert name in BLAME_SEGMENTS


# -- end-to-end against a real simulated run --------------------------------

def test_live_run_decomposition_sums_exactly():
    from repro.obs.whatif import run_cell

    cell = run_cell(None, n_nodes=2, n_requests=6, observe=True)
    records = decompose(cell.tracer, cell.profiler.intervals)
    assert len(records) == 6
    for rec in records:
        assert sum(rec.segments.values()) == pytest.approx(rec.total, abs=1e-9)
        assert rec.busy <= rec.total + 1e-9
    data = aggregate_blame(records)
    # A 1s-CGI workload is CPU-dominated; the decomposition must say so.
    assert data["segments"]["cpu-service"]["share"] > 0.95
