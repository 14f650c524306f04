"""Tests for the metrics registry and its exposition formats."""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_network,
    collect_node_stats,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("hits_total", "help text")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self, reg):
        c = reg.counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels(self, reg):
        c = reg.counter("hits_total", labelnames=("node",))
        c.labels(node="n0").inc(2)
        c.labels(node="n1").inc(3)
        assert c.labels(node="n0").value == 2
        with pytest.raises(ValueError):
            c.inc()  # labeled counter needs .labels()
        with pytest.raises(ValueError):
            c.labels(wrong="x")

    def test_invalid_names_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("1bad")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("load")
        g.set(10)
        assert g.value == 10
        child = g.labels()
        child.inc(2.5)
        child.dec(0.5)
        assert g.value == 12


class TestHistogram:
    def test_cumulative_buckets(self, reg):
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = "\n".join(h.render())
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_bad_buckets(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same(self, reg):
        assert reg.counter("x_total") is reg.counter("x_total")
        assert len(reg) == 1

    def test_type_mismatch_rejected(self, reg):
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("node",))
        reg.histogram("h_seconds")
        with pytest.raises(ValueError):
            reg.histogram("h_seconds", labelnames=("node",))

    def test_prometheus_exposition_shape(self, reg):
        c = reg.counter("hits_total", "The hits", labelnames=("node",))
        c.labels(node="b").inc()
        c.labels(node="a").inc(2)
        text = reg.render_prometheus()
        lines = text.splitlines()
        assert lines[0] == "# HELP hits_total The hits"
        assert lines[1] == "# TYPE hits_total counter"
        # label children sorted => deterministic output
        assert lines[2] == 'hits_total{node="a"} 2'
        assert lines[3] == 'hits_total{node="b"} 1'

    def test_json_round_trip(self, reg):
        reg.counter("x_total", "X").inc(3)
        data = json.loads(reg.render_json())
        assert data["x_total"]["type"] == "counter"
        assert data["x_total"]["series"][0]["value"] == 3

    def test_write_json_vs_prometheus(self, tmp_path, reg):
        reg.counter("x_total").inc()
        j = reg.write(tmp_path / "deep" / "m.json")  # creates parents
        p = reg.write(tmp_path / "m.prom")
        assert json.loads(j.read_text())["x_total"]
        assert p.read_text().startswith("# TYPE x_total counter")

    def test_empty_renders(self, reg):
        assert reg.render_prometheus() == ""
        assert json.loads(reg.render_json()) == {}


class TestEscaping:
    """Prometheus exposition escaping: label values and HELP text must
    survive backslashes, quotes, and newlines without tearing lines."""

    def test_label_value_escapes(self, reg):
        c = reg.counter("req_total", labelnames=("url",))
        c.labels(url='a\\b"c\nd').inc()
        text = reg.render_prometheus()
        assert 'req_total{url="a\\\\b\\"c\\nd"} 1' in text

    def test_escaped_sample_stays_one_line(self, reg):
        c = reg.counter("req_total", labelnames=("url",))
        c.labels(url="line1\nline2").inc()
        sample_lines = [
            l for l in reg.render_prometheus().splitlines()
            if not l.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_distinct_raw_values_stay_distinct(self, reg):
        c = reg.counter("req_total", labelnames=("url",))
        c.labels(url="a\nb").inc()
        c.labels(url="a\\nb").inc(2)
        text = reg.render_prometheus()
        assert 'req_total{url="a\\nb"} 1' in text
        assert 'req_total{url="a\\\\nb"} 2' in text

    def test_help_escapes(self, reg):
        reg.counter("x_total", "multi\nline \\ help").inc()
        text = reg.render_prometheus()
        assert "# HELP x_total multi\\nline \\\\ help" in text

    def test_plain_values_untouched(self, reg):
        reg.counter("y_total", "The y", labelnames=("node",)).labels(
            node="n0"
        ).inc()
        text = reg.render_prometheus()
        assert "# HELP y_total The y" in text
        assert 'y_total{node="n0"} 1' in text


class TestAdapters:
    def test_collect_node_stats_from_real_run(self):
        from repro.clients import ClientThread
        from repro.core import CacheMode, SwalaCluster, SwalaConfig
        from repro.sim import Simulator
        from repro.workload import Request

        sim = Simulator()
        cluster = SwalaCluster(
            sim, 2, SwalaConfig(mode=CacheMode.COOPERATIVE)
        )
        cluster.start()
        cgi = Request.cgi("/cgi-bin/q", cpu_time=0.5, response_size=1000)
        for idx in (0, 1):
            t = ClientThread(
                sim, cluster.network, f"c{idx}", cluster.node_names[idx],
                [cgi],
            )
            sim.run(until=t.start())

        reg = MetricsRegistry()
        for server in cluster.servers:
            collect_node_stats(reg, server.stats)
        collect_network(reg, cluster.network)
        text = reg.render_prometheus()
        assert 'swala_requests_total{node="swala0"} 1' in text
        assert 'swala_cache_hits_total{node="swala1",type="remote"} 1' in text
        assert 'net_messages_sent_total{network="lan"}' in text
        assert "swala_response_seconds_bucket" in text


class TestPromtoolRules:
    """Regression tests against promtool-style exposition parsing rules.

    A minimal parser walks the rendered text and enforces the invariants
    ``promtool check metrics`` would: TYPE before samples, exactly one
    ``+Inf`` bucket per histogram child, cumulative buckets that are
    non-decreasing with ``le`` sorted ascending, ``_count``/``_sum``
    present and consistent, and no duplicate series.
    """

    @staticmethod
    def parse(text):
        import re

        types = {}
        series = []
        seen = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP"):
                continue
            if line.startswith("# TYPE"):
                _, _, name, type_name = line.split(None, 3)
                types[name] = type_name
                continue
            m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (.+)$", line)
            assert m, f"unparseable sample line: {line!r}"
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            family = re.sub(r"_(bucket|sum|count)$", "", name)
            assert family in types or name in types, \
                f"sample {name} before any TYPE line"
            key = (name, labels)
            assert key not in seen, f"duplicate series {key}"
            seen.add(key)
            series.append((name, labels, float(value)))
        return types, series

    def histogram_children(self, text):
        import re
        from collections import defaultdict

        _, series = self.parse(text)
        children = defaultdict(dict)
        for name, labels, value in series:
            m = re.match(r"^(.*)_(bucket|sum|count)$", name)
            if not m:
                continue
            family, kind = m.groups()
            if kind == "bucket":
                le = re.search(r'le="([^"]*)"', labels).group(1)
                base = re.sub(r',?le="[^"]*"', "", labels).replace(
                    "{}", "")
                children[(family, base)].setdefault("buckets", []).append(
                    (le, value))
            else:
                base = labels
                children[(family, base)][kind] = value
        return children

    def test_histogram_family_consistency(self, reg):
        h = reg.histogram("lat_seconds", "Latency",
                          buckets=(0.1, 0.5, 1.0))
        for v in (0.05, 0.3, 0.7, 5.0):
            h.observe(v)
        text = reg.render_prometheus()
        children = self.histogram_children(text)
        ((_, child),) = children.items()
        les = [le for le, _ in child["buckets"]]
        assert les.count("+Inf") == 1, "exactly one +Inf bucket"
        assert les[-1] == "+Inf", "+Inf must come last"
        finite = [float(le) for le in les[:-1]]
        assert finite == sorted(finite)
        values = [v for _, v in child["buckets"]]
        assert values == sorted(values), "cumulative buckets decrease"
        assert values[-1] == child["count"], "+Inf bucket != _count"
        assert child["sum"] == pytest.approx(0.05 + 0.3 + 0.7 + 5.0)

    def test_labeled_children_each_consistent(self, reg):
        h = reg.histogram("rt_seconds", "RT", labelnames=("node",),
                          buckets=(0.1, 1.0))
        h.labels(node="a").observe(0.5)
        h.labels(node="b").observe(2.0)
        h.labels(node="b").observe(0.05)
        children = self.histogram_children(reg.render_prometheus())
        assert len(children) == 2
        for child in children.values():
            values = [v for _, v in child["buckets"]]
            assert values[-1] == child["count"]
            assert "sum" in child

    def test_explicit_inf_bound_filtered(self, reg):
        """An explicit +Inf bound would double-emit le="+Inf" (promtool
        rejects the duplicate); the constructor must drop it."""
        h = reg.histogram("x_seconds", buckets=(0.1, float("inf")))
        assert h.buckets == (0.1,)
        h.observe(0.05)
        h.observe(99.0)
        text = reg.render_prometheus()
        assert text.count('le="+Inf"') == 1
        self.parse(text)  # duplicate-series check

    def test_nan_bound_rejected(self, reg):
        with pytest.raises(ValueError, match="NaN"):
            reg.histogram("y_seconds", buckets=(0.1, float("nan")))

    def test_all_infinite_bounds_rejected(self, reg):
        with pytest.raises(ValueError, match="finite"):
            reg.histogram("z_seconds", buckets=(float("inf"),))

    def test_self_check_catches_tampering(self, reg):
        h = reg.histogram("t_seconds", buckets=(0.1, 1.0))
        h.observe(0.5)
        child = h._default_child()
        child.count += 1  # exporter bug: count no longer sums buckets
        with pytest.raises(ValueError, match="bucket counts"):
            reg.self_check()
        with pytest.raises(ValueError, match="bucket counts"):
            reg.render_prometheus()
        with pytest.raises(ValueError, match="bucket counts"):
            reg.render_json()

    def test_full_registry_passes_parser(self, reg):
        reg.counter("req_total", "Requests", labelnames=("node",)) \
            .labels(node="a").inc(3)
        reg.gauge("depth", "Queue depth").set(2.5)
        h = reg.histogram("lat_seconds", "Latency")
        h.observe(0.123)
        types, series = self.parse(reg.render_prometheus())
        assert types["req_total"] == "counter"
        assert types["depth"] == "gauge"
        assert types["lat_seconds"] == "histogram"
        assert series

    def test_write_gzip_transparent(self, tmp_path, reg):
        import gzip

        reg.counter("x_total").inc(4)
        gz = reg.write(tmp_path / "m.json.gz")
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        assert json.loads(gzip.decompress(gz.read_bytes()))["x_total"]
        prom_gz = reg.write(tmp_path / "m.prom.gz")
        text = gzip.decompress(prom_gz.read_bytes()).decode()
        assert text.startswith("# TYPE x_total counter")
