"""Locks down the public API surface: exports, reprs, and small helpers
that the focused suites don't exercise directly."""

import pytest

from repro.sim import Simulator


class TestPublicExports:
    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.sim", ["Simulator", "RWLock", "ProcessorSharing",
                           "RandomStreams", "Tally", "Instrumentation"]),
            ("repro.hosts", ["Machine", "MachineCosts", "SUN_ULTRA1"]),
            ("repro.net", ["Network", "Message", "LAN_100MBIT"]),
            ("repro.cache", ["CacheStore", "CacheEntry", "POLICY_NAMES"]),
            ("repro.core", ["SwalaServer", "SwalaCluster", "SwalaConfig",
                            "CacheMode", "DependencyRegistry", "TtlRules"]),
            ("repro.servers", ["NcsaHttpd", "EnterpriseServer", "AccessLog"]),
            ("repro.workload", ["Trace", "Request", "generate_adl_trace",
                                "load_clf"]),
            ("repro.clients", ["ClientFleet", "OpenLoopSource"]),
            ("repro.metrics", ["render_table", "batch_means_ci", "write_rows"]),
            ("repro.lb", ["LoadBalancer", "BALANCER_POLICIES"]),
            ("repro.proxy", ["ProxyCache"]),
            ("repro.experiments", ["run_table1", "run_figure4"]),
            ("repro.obs", ["TraceCollector", "Span", "MetricsRegistry",
                           "request_records", "render_breakdown",
                           "load_jsonl", "attach"]),
            ("repro.experiments.parallel", ["map_parallel"]),
        ],
    )
    def test_names_importable(self, module, names):
        mod = __import__(module, fromlist=names)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"
            assert name in mod.__all__, f"{name} not in {module}.__all__"


class TestReprs:
    """Reprs are part of the debugging API: they must be informative and
    never raise."""

    def test_substrate_reprs(self):
        from repro.hosts import Machine
        from repro.net import Network
        from repro.sim import ProcessorSharing, RandomStreams, Resource, RWLock, Store, Tally

        sim = Simulator()
        machine = Machine(sim, "m0")
        checks = [
            (Resource(sim, 2, name="res"), "res"),
            (Store(sim, name="box"), "box"),
            (ProcessorSharing(sim, 2, name="cpu"), "cpu"),
            (RWLock(sim, name="rw"), "rw"),
            (RandomStreams(7), "7"),
            (Tally("t"), "t"),
            (Network(sim, name="lan"), "lan"),
            (machine, "m0"),
            (machine.fs, "fs"),
            (machine.disk, "disk"),
        ]
        for obj, token in checks:
            assert token in repr(obj)

    def test_system_reprs(self):
        from repro.core import SwalaCluster, SwalaConfig
        from repro.hosts import Machine
        from repro.lb import LoadBalancer
        from repro.proxy import ProxyCache
        from repro.net import Network

        sim = Simulator()
        cluster = SwalaCluster(sim, 2, SwalaConfig())
        assert "n=2" in repr(cluster)
        assert "swala0" in repr(cluster.servers[0])
        assert "swala0" in repr(cluster.servers[0].cacher)
        assert "swala0" in repr(cluster.servers[0].cacher.directory)
        lb = LoadBalancer(sim, Machine(sim, "lb"), cluster.network,
                          cluster.node_names)
        assert "round_robin" in repr(lb)
        wan = Network(sim, name="wan")
        proxy = ProxyCache(sim, Machine(sim, "px"), cluster.network, wan, "o")
        assert "px" in repr(proxy)


class TestMessageHelpers:
    def test_in_flight_time_before_delivery_raises(self):
        from repro.net import Message

        msg = Message(src="a", dst="b", port="p", payload=None, size=10,
                      send_time=1.0)
        with pytest.raises(RuntimeError):
            msg.in_flight_time

    def test_msg_ids_monotone(self):
        from repro.net import Message

        a = Message(src="a", dst="b", port="p", payload=None, size=1,
                    send_time=0.0)
        b = Message(src="a", dst="b", port="p", payload=None, size=1,
                    send_time=0.0)
        assert b.msg_id > a.msg_id


class TestHttpResponseSize:
    def test_size_includes_header(self):
        from repro.core import HTTP_RESPONSE_HEADER_BYTES, HttpResponse
        from repro.workload import Request

        resp = HttpResponse(
            request=Request.cgi("/c", 1.0, 5_000), server="s", source="exec"
        )
        assert resp.size == 5_000 + HTTP_RESPONSE_HEADER_BYTES


class TestStoreCancel:
    def test_cancel_pending_getter(self):
        from repro.sim import Store

        sim = Simulator()
        store = Store(sim)
        get_event = store.get()  # no items: queued
        assert store.cancel(get_event) is True
        store.put("x")
        assert store.try_get() == "x"  # not swallowed by the cancelled getter

    def test_cancel_unknown_returns_false(self):
        from repro.sim import Store

        sim = Simulator()
        store = Store(sim)
        store.put("x")
        satisfied = store.get()
        assert store.cancel(satisfied) is False


class TestVersionMetadata:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
