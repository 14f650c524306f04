"""Unit tests for the consistency oracle (shadow directory, request
classification, broadcast attribution, export)."""

import json

import pytest

from repro.obs import (
    AUDIT_CLASSES,
    ConsistencyOracle,
    load_audit,
    render_anomaly_timeline,
    render_audit_report,
    render_staleness,
    render_taxonomy,
)
from repro.obs.oracle import ANOMALY_CLASSES


class FakeRequest:
    def __init__(self, url="/cgi-bin/x", kind="cgi"):
        self.url = url
        self.kind = type("K", (), {"value": kind})()


class FakeUpdate:
    """Stands in for CacheInsert/CacheDelete: only needs url + bcast_id
    (and ``owner`` to look like a delete)."""

    def __init__(self, url, delete=False):
        self.url = url
        self.bcast_id = None
        if delete:
            self.owner = "n0"


class FakeMessage:
    def __init__(self, payload, dst="n1", send_time=0.0, deliver_time=0.0):
        self.payload = payload
        self.dst = dst
        self.send_time = send_time
        self.deliver_time = deliver_time


@pytest.fixture
def oracle():
    o = ConsistencyOracle()
    o.new_run()
    return o


class TestShadowDirectory:
    def test_ideal_lookup_local_remote_miss(self, oracle):
        assert oracle.ideal_lookup("n0", "/u", 0.0) == ("miss", None)
        oracle.shadow_insert("n1", "/u", created=0.0, ttl=10.0)
        assert oracle.ideal_lookup("n1", "/u", 1.0) == ("local-hit", "n1")
        assert oracle.ideal_lookup("n0", "/u", 1.0) == ("remote-hit", "n1")

    def test_standalone_node_blind_to_peers(self, oracle):
        oracle.shadow_insert("n1", "/u", created=0.0, ttl=10.0)
        assert oracle.ideal_lookup("n0", "/u", 1.0, cooperative=False) == (
            "miss", None,
        )
        assert oracle.ideal_lookup("n1", "/u", 1.0, cooperative=False) == (
            "local-hit", "n1",
        )

    def test_expired_copy_is_dead(self, oracle):
        oracle.shadow_insert("n0", "/u", created=0.0, ttl=2.0)
        assert oracle.ideal_lookup("n0", "/u", 1.9)[0] == "local-hit"
        # now >= created + ttl mirrors CacheEntry.expired
        assert oracle.ideal_lookup("n0", "/u", 2.0)[0] == "miss"

    def test_remove_clears_owner(self, oracle):
        oracle.shadow_insert("n0", "/u", created=0.0, ttl=10.0)
        oracle.shadow_insert("n1", "/u", created=0.0, ttl=10.0)
        oracle.shadow_remove("n0", "/u", "capacity", 1.0)
        assert oracle.ideal_lookup("n2", "/u", 1.0) == ("remote-hit", "n1")
        oracle.shadow_remove("n1", "/u", "capacity", 2.0)
        assert oracle.ideal_lookup("n2", "/u", 2.0) == ("miss", None)


class TestMissReasons:
    def test_cold(self, oracle):
        assert oracle._miss_reason("/never", 0.0) == "cold"

    def test_capacity(self, oracle):
        oracle.shadow_insert("n0", "/u", created=0.0, ttl=10.0)
        oracle.shadow_remove("n0", "/u", "capacity", 1.0)
        assert oracle._miss_reason("/u", 2.0) == "capacity"

    def test_ttl_from_purge(self, oracle):
        oracle.shadow_insert("n0", "/u", created=0.0, ttl=1.0)
        oracle.shadow_remove("n0", "/u", "ttl", 2.0)
        assert oracle._miss_reason("/u", 2.5) == "ttl"

    def test_ttl_from_expired_but_unpurged_copy(self, oracle):
        # The copy still exists in the shadow but is past its TTL: that
        # is a TTL miss even before the purger announces it.
        oracle.shadow_insert("n0", "/u", created=0.0, ttl=1.0)
        assert oracle._miss_reason("/u", 5.0) == "ttl"

    def test_invalidated(self, oracle):
        oracle.shadow_insert("n0", "/u", created=0.0, ttl=10.0)
        oracle.shadow_remove("n0", "/u", "invalidated", 1.0)
        assert oracle._miss_reason("/u", 2.0) == "invalidated"
        oracle.shadow_insert("n0", "/v", created=0.0, ttl=10.0)
        oracle.shadow_remove("n0", "/v", "flush", 1.0)
        assert oracle._miss_reason("/v", 2.0) == "invalidated"


class TestClassification:
    def finish(self, oracle, audit, outcome="exec", at=1.0):
        oracle.finish(audit, at, outcome)
        return audit.classification

    def test_every_class_is_known(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        audit.local_hit = True
        assert self.finish(oracle, audit, "local-cache") in AUDIT_CLASSES

    def test_file(self, oracle):
        audit = oracle.begin("n0", FakeRequest(kind="file"), 0.0)
        assert self.finish(oracle, audit, "file") == "file"

    def test_uncacheable(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        audit.uncacheable = True
        assert self.finish(oracle, audit) == "uncacheable"

    def test_false_hit_outranks_execution(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        oracle.false_hit(audit, "/cgi-bin/x", "n1", wasted=0.1, now=0.5)
        oracle.execution_started(audit, "/cgi-bin/x", False, 0.5)
        assert self.finish(oracle, audit) == "false-hit"
        assert audit.wasted_seconds == pytest.approx(0.1)

    def test_type1_outranks_type2(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        oracle.execution_started(audit, "/cgi-bin/x", True, 0.0)
        oracle.insert_raced(audit, "/cgi-bin/x", 0.5)
        assert self.finish(oracle, audit) == "false-miss-1"

    def test_type2(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        oracle.execution_started(audit, "/cgi-bin/x", False, 0.0)
        oracle.execution_cost(audit, 0.4)
        oracle.insert_raced(audit, "/cgi-bin/x", 0.5)
        assert self.finish(oracle, audit) == "false-miss-2"
        assert audit.wasted_seconds == pytest.approx(0.4)

    def test_coalesced_outranks_hit(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        oracle.coalesced(audit)
        audit.local_hit = True
        assert self.finish(oracle, audit, "local-cache") == "coalesced"

    def test_miss_race_when_ideal_had_copy(self, oracle):
        oracle.shadow_insert("n1", "/cgi-bin/x", created=0.0, ttl=10.0)
        audit = oracle.begin("n0", FakeRequest(), 1.0)
        oracle.ideal_check(audit, 1.0)
        oracle.execution_started(audit, "/cgi-bin/x", False, 1.0)
        assert self.finish(oracle, audit) == "miss-race"

    def test_miss_reasons_flow_through(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        oracle.execution_started(audit, "/cgi-bin/x", False, 0.0)
        assert self.finish(oracle, audit) == "miss-cold"

    def test_type1_inflight_window(self, oracle):
        a1 = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.execution_started(a1, "/cgi-bin/x", False, 0.0)
        a2 = oracle.begin("n0", FakeRequest(), 0.3)
        oracle.execution_started(a2, "/cgi-bin/x", True, 0.3)
        assert a2.inflight_window == pytest.approx(0.3)
        oracle.execution_finished("n0", "/cgi-bin/x")
        oracle.execution_finished("n0", "/cgi-bin/x")
        assert oracle._inflight == {}

    def test_counts_track_finishes(self, oracle):
        audit = oracle.begin("n0", FakeRequest(), 0.0)
        oracle.ideal_check(audit, 0.0)
        audit.local_hit = True
        oracle.finish(audit, 1.0, "local-cache")
        assert oracle.counts == {"local-hit": 1}


class TestBroadcastAttribution:
    def test_sent_stamps_bcast_id(self, oracle):
        update = FakeUpdate("/u")
        bid = oracle.broadcast_sent("n0", update, ["n1", "n2"], 1.0)
        assert update.bcast_id == bid
        assert oracle._pending[("n1", "/u")][0].bcast_id == bid
        assert oracle._pending[("n2", "/u")][0].bcast_id == bid

    def test_applied_clears_pending_and_samples_lag(self, oracle):
        update = FakeUpdate("/u")
        oracle.broadcast_sent("n0", update, ["n1"], 1.0)
        msg = FakeMessage(update, dst="n1", send_time=1.0, deliver_time=1.2)
        oracle.broadcast_applied("n1", update, msg, 1.5)
        assert ("n1", "/u") not in oracle._pending
        (sample,) = oracle.lag_samples
        assert sample["lag"] == pytest.approx(0.5)
        assert sample["wire"] == pytest.approx(0.2)
        assert sample["kind"] == "insert"

    def test_applied_supersedes_older_pending(self, oracle):
        u1, u2 = FakeUpdate("/u"), FakeUpdate("/u")
        oracle.broadcast_sent("n0", u1, ["n1"], 1.0)
        oracle.broadcast_sent("n0", u2, ["n1"], 2.0)
        oracle.broadcast_applied("n1", u2, FakeMessage(u2, send_time=2.0), 2.1)
        # u2 (younger) cleared u1 as well: the replica is now current.
        assert ("n1", "/u") not in oracle._pending

    def test_false_hit_attributed_to_pending_delete(self, oracle):
        delete = FakeUpdate("/u", delete=True)
        oracle.broadcast_sent("n1", delete, ["n0"], 1.0)
        audit = oracle.begin("n0", FakeRequest("/u"), 1.1)
        oracle.false_hit(audit, "/u", "n1", wasted=0.05, now=1.2)
        assert audit.bcast_id == delete.bcast_id
        assert audit.bcast_kind == "delete"
        assert audit.staleness == pytest.approx(0.2)

    def test_false_hit_without_pending_delete_unattributed(self, oracle):
        audit = oracle.begin("n0", FakeRequest("/u"), 1.0)
        oracle.false_hit(audit, "/u", "n1", wasted=0.05, now=1.2)
        assert audit.bcast_id is None

    def test_insert_race_attributed_to_applied_insert(self, oracle):
        update = FakeUpdate("/u")
        oracle.broadcast_sent("n1", update, ["n0"], 1.0)
        oracle.broadcast_applied(
            "n0", update, FakeMessage(update, dst="n0", send_time=1.0), 1.3
        )
        audit = oracle.begin("n0", FakeRequest("/u"), 0.5)
        oracle.execution_started(audit, "/u", False, 0.5)
        oracle.insert_raced(audit, "/u", 1.4)
        assert audit.bcast_id == update.bcast_id
        assert audit.staleness == pytest.approx(0.3)

    def test_dropped_update_marks_pending(self, oracle):
        delete = FakeUpdate("/u", delete=True)
        oracle.broadcast_sent("n1", delete, ["n0"], 1.0)
        oracle.message_dropped(FakeMessage(delete, dst="n0", send_time=1.0))
        (drop,) = oracle.drops
        assert drop["bcast"] == delete.bcast_id
        audit = oracle.begin("n0", FakeRequest("/u"), 2.0)
        oracle.false_hit(audit, "/u", "n1", wasted=0.05, now=2.0)
        assert audit.bcast_kind == "delete-dropped"

    def test_unstamped_messages_ignored(self, oracle):
        oracle.message_dropped(FakeMessage(object(), dst="n0"))
        oracle.broadcast_applied("n0", object(), FakeMessage(object()), 1.0)
        assert oracle.drops == []
        assert oracle.lag_samples == []


class TestExport:
    def fill(self, oracle):
        update = FakeUpdate("/u")
        oracle.broadcast_sent("n0", update, ["n1"], 0.1)
        oracle.broadcast_applied(
            "n1", update, FakeMessage(update, send_time=0.1, deliver_time=0.2), 0.3
        )
        audit = oracle.begin("n0", FakeRequest("/u"), 0.0)
        oracle.ideal_check(audit, 0.0)
        oracle.execution_started(audit, "/u", False, 0.0)
        oracle.execution_cost(audit, 0.5)
        oracle.insert_raced(audit, "/u", 0.5)
        oracle.finish(audit, 0.6, "exec")
        hit = oracle.begin("n1", FakeRequest("/u"), 0.7)
        oracle.ideal_check(hit, 0.7)
        hit.local_hit = True
        oracle.finish(hit, 0.8, "local-cache")

    def test_roundtrip(self, oracle, tmp_path):
        self.fill(oracle)
        path = oracle.write(tmp_path / "audit.jsonl")
        dump = load_audit(path)
        assert len(dump) == 2
        assert len(dump.lags) == 1
        classes = [r["class"] for r in dump.finished()]
        assert classes == ["false-miss-2", "local-hit"]

    def test_deterministic_bytes(self, tmp_path):
        def build():
            o = ConsistencyOracle()
            o.new_run()
            self.fill(o)
            return o.to_jsonl()

        assert build() == build()

    def test_every_request_exactly_one_class(self, oracle):
        self.fill(oracle)
        total = sum(oracle.counts.values())
        assert total == len([a for a in oracle.audits if a.finished is not None])
        for audit in oracle.audits:
            assert audit.classification in AUDIT_CLASSES

    def test_unfinished_exported_open(self, oracle):
        oracle.begin("n0", FakeRequest(), 0.0)
        data = json.loads(oracle.to_jsonl())
        assert data["end"] is None
        assert data["class"] == "unfinished"

    def test_bad_record_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            load_audit(path)

    def test_bounded(self):
        o = ConsistencyOracle(max_records=1)
        o.new_run()
        o.begin("n0", FakeRequest(), 0.0)
        o.begin("n0", FakeRequest(), 1.0)
        assert len(o.audits) == 1
        assert o.dropped_records == 1

    def test_new_run_resets_shadow_keeps_records(self, oracle):
        self.fill(oracle)
        oracle.new_run()
        assert oracle._shadow == {}
        assert len(oracle.audits) == 2
        assert oracle.run == 2


class TestRenderers:
    @pytest.fixture
    def dump(self, oracle, tmp_path):
        TestExport().fill(oracle)
        return load_audit(oracle.write(tmp_path / "a.jsonl"))

    def test_taxonomy(self, dump):
        text = render_taxonomy(dump)
        assert "false-miss-2" in text
        assert "local-hit" in text

    def test_staleness(self, dump):
        text = render_staleness(dump)
        assert "insert" in text

    def test_timeline(self, dump):
        text = render_anomaly_timeline(dump, bins=8)
        assert "n0" in text and "anomalies" in text

    def test_timeline_run_filter(self, dump):
        assert "run 1" in render_anomaly_timeline(dump, bins=4, run=1)
        assert "no finished requests for run 9" in render_anomaly_timeline(
            dump, bins=4, run=9
        )

    def test_report_composes(self, dump):
        text = render_audit_report(dump, bins=8)
        assert "2 requests audited" in text
        assert "1 consistency anomalies" in text

    def test_empty(self):
        o = ConsistencyOracle()
        from repro.obs import AuditDump

        empty = AuditDump([], [], [], [])
        assert "no finished requests" in render_taxonomy(empty)
        assert "no broadcast applications" in render_staleness(empty)

    def test_anomaly_classes_subset(self):
        assert set(ANOMALY_CLASSES) <= set(AUDIT_CLASSES)
