"""A uniform cluster metrics registry with Prometheus/JSON exposition.

Counters, gauges, and histograms with label support, in the style of a
``prometheus_client`` registry but dependency-free and deterministic:
exposition output is fully ordered (metrics in registration order, label
children sorted), so two identical runs emit byte-identical text.

Adapters at the bottom populate a registry from the objects the
simulator already maintains — :class:`~repro.core.stats.NodeStats`,
:class:`~repro.core.stats.ClusterStats`, :class:`~repro.net.Network`,
and any :class:`~repro.sim.Tally` — so benchmark runs can emit
machine-readable metrics without new bookkeeping on the hot path.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ioutil import logical_suffix, write_text

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "collect_node_stats",
    "collect_network",
]

#: Response-latency bucket bounds (seconds); +Inf is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _fmt(value: float) -> str:
    """Prometheus float formatting: integers bare, specials named."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label-value escaping: backslash,
    double quote, and line feed (backslash first, or it re-escapes)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP-line escaping: backslash and line feed only (quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


class _Metric:
    """Base: a named family of label-keyed children."""

    type_name = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labels: Any):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _default_child(self):
        """The label-less child (only valid when labelnames is empty)."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        return self.labels()

    def _new_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _sorted_children(self):
        return sorted(self._children.items())

    def _child_labels(self, key: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
        return tuple(zip(self.labelnames, key))


class _CounterValue:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing count."""

    type_name = "counter"

    def _new_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def render(self) -> List[str]:
        return [
            f"{self.name}{_label_str(self._child_labels(key))} {_fmt(child.value)}"
            for key, child in self._sorted_children()
        ]

    def to_dict(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(self._child_labels(key)), "value": child.value}
            for key, child in self._sorted_children()
        ]


class _GaugeValue:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Metric):
    """A value that can go up and down."""

    type_name = "gauge"

    def _new_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    render = Counter.render
    to_dict = Counter.to_dict


class _HistogramValue:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[int]:
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(self, name, help, labelnames, buckets: Sequence[float]):
        super().__init__(name, help, labelnames)
        if any(math.isnan(float(b)) for b in buckets):
            raise ValueError("NaN is not a valid bucket bound")
        # Prometheus adds the +Inf bucket itself; an explicit infinite
        # bound would double-emit the `le="+Inf"` series, which promtool
        # rejects as a duplicate.
        bounds = tuple(sorted(
            float(b) for b in buckets if not math.isinf(float(b))
        ))
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"duplicate bucket bounds in {bounds}")
        self.buckets = bounds

    def _new_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def render(self) -> List[str]:
        lines = []
        for key, child in self._sorted_children():
            labels = self._child_labels(key)
            cum = child.cumulative()
            for bound, c in zip(child.buckets, cum):
                le = labels + (("le", _fmt(bound)),)
                lines.append(f"{self.name}_bucket{_label_str(le)} {c}")
            inf = labels + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_label_str(inf)} {cum[-1]}")
            lines.append(f"{self.name}_sum{_label_str(labels)} {_fmt(child.sum)}")
            lines.append(f"{self.name}_count{_label_str(labels)} {child.count}")
        return lines

    def to_dict(self) -> List[Dict[str, Any]]:
        return [
            {
                "labels": dict(self._child_labels(key)),
                "buckets": list(child.buckets),
                "counts": list(child.counts),
                "sum": child.sum,
                "count": child.count,
            }
            for key, child in self._sorted_children()
        ]


class MetricsRegistry:
    """Named counters/gauges/histograms; renders Prometheus text or JSON."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    # -- registration -----------------------------------------------------
    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            self._check_reuse(existing, Histogram, labelnames)
            return existing
        metric = Histogram(name, help, labelnames, buckets)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name, help, labelnames):
        existing = self._metrics.get(name)
        if existing is not None:
            self._check_reuse(existing, cls, labelnames)
            return existing
        metric = cls(name, help, labelnames)
        self._metrics[name] = metric
        return metric

    @staticmethod
    def _check_reuse(existing, cls, labelnames):
        if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {existing.name!r} already registered as "
                f"{existing.type_name} with labels {existing.labelnames}"
            )

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterable[_Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- run lifecycle: metrics carry no run stamp and scrapes land whole --
    def new_run(self) -> None:
        pass

    def finalize(self) -> None:
        pass

    def fresh(self) -> "MetricsRegistry":
        """An empty registry."""
        return MetricsRegistry()

    # -- snapshot / merge -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable state of every metric, for merging elsewhere.

        Metrics are listed in registration order; merging snapshots in a
        stable order therefore reproduces the registration (and hence
        exposition) order a serial run would have produced.
        """
        metrics = []
        for metric in self._metrics.values():
            entry: Dict[str, Any] = {
                "name": metric.name,
                "type": metric.type_name,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "key": list(key),
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                    for key, child in metric._children.items()
                ]
            else:
                entry["series"] = [
                    {"key": list(key), "value": child.value}
                    for key, child in metric._children.items()
                ]
            metrics.append(entry)
        return {"metrics": metrics}

    def merge(self, snaps: Sequence[Dict[str, Any]]) -> None:
        """Fold registries' snapshots (:meth:`snapshot`) into this one.

        Counters and histogram bucket counts/sums are added; gauges take
        the snapshot's value (last writer wins, in merge order).  The
        merge is associative and, for counters and histograms,
        insensitive to the order snapshots are folded in.
        """
        for entry in (e for snap in snaps for e in snap["metrics"]):
            name = entry["name"]
            labelnames = tuple(entry["labelnames"])
            if entry["type"] == "counter":
                metric: _Metric = self.counter(name, entry["help"], labelnames)
            elif entry["type"] == "gauge":
                metric = self.gauge(name, entry["help"], labelnames)
            elif entry["type"] == "histogram":
                metric = self.histogram(
                    name, entry["help"], labelnames, buckets=entry["buckets"]
                )
                if metric.buckets != tuple(entry["buckets"]):
                    raise ValueError(
                        f"histogram {name!r}: cannot merge bucket bounds "
                        f"{entry['buckets']} into {list(metric.buckets)}"
                    )
            else:
                raise ValueError(
                    f"metric {name!r}: unknown type {entry['type']!r}"
                )
            for series in entry["series"]:
                key = tuple(series["key"])
                child = metric._children.get(key)
                if child is None:
                    child = metric._children[key] = metric._new_child()
                if entry["type"] == "counter":
                    child.inc(series["value"])
                elif entry["type"] == "gauge":
                    child.set(series["value"])
                else:
                    for i, c in enumerate(series["counts"]):
                        child.counts[i] += c
                    child.sum += series["sum"]
                    child.count += series["count"]

    # -- exposition -------------------------------------------------------
    def self_check(self) -> None:
        """Validate promtool-style exposition invariants before emitting.

        For every histogram child the per-bucket counts must sum to the
        observation count, so the implicit ``le="+Inf"`` cumulative
        bucket always equals ``_count`` — the consistency rule promtool
        enforces.  A mismatch means an exporter mutated internals
        directly; fail the export rather than publish it.
        """
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                for key, child in metric._sorted_children():
                    if sum(child.counts) != child.count:
                        labels = _label_str(metric._child_labels(key))
                        raise ValueError(
                            f"histogram {metric.name}{labels}: bucket counts "
                            f"sum to {sum(child.counts)} but _count is "
                            f"{child.count}"
                        )

    def render_prometheus(self) -> str:
        self.self_check()
        lines: List[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        return {
            metric.name: {
                "type": metric.type_name,
                "help": metric.help,
                "series": metric.to_dict(),
            }
            for metric in self._metrics.values()
        }

    def render_json(self, indent: int = 2) -> str:
        self.self_check()
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: Union[str, Path], meta=None) -> Path:
        """``.json`` => JSON; anything else => Prometheus text format.

        A trailing ``.gz`` (``metrics.json.gz``, ``metrics.prom.gz``)
        gzips the output; the format comes from the suffix underneath.
        ``meta`` (the provenance manifest) lands under a top-level
        ``"meta"`` key in JSON and as a leading ``# meta {...}`` comment
        in the Prometheus text.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if logical_suffix(path) == ".json":
            self.self_check()
            data = self.to_dict()
            if meta:
                data["meta"] = dict(meta)
            write_text(
                path, json.dumps(data, indent=2, sort_keys=True) + "\n"
            )
        else:
            text = self.render_prometheus()
            if meta:
                text = (
                    "# meta "
                    + json.dumps(meta, sort_keys=True, separators=(",", ":"))
                    + "\n" + text
                )
            write_text(path, text)
        return path

    def __repr__(self) -> str:
        return f"<MetricsRegistry metrics={len(self._metrics)}>"


# ---------------------------------------------------------------------------
# adapters: populate a registry from existing simulator objects
# ---------------------------------------------------------------------------

#: (metric name, NodeStats attribute, help)
_NODE_COUNTERS = (
    ("swala_requests_total", "requests", "HTTP requests completed"),
    ("swala_files_served_total", "files_served", "Static files served"),
    ("swala_cgi_executed_total", "cgi_executed", "CGI executions"),
    ("swala_cache_misses_total", "misses", "Cacheable CGI misses"),
    ("swala_uncacheable_total", "uncacheable", "Requests ruled uncacheable"),
    ("swala_cache_inserts_total", "inserts", "Cache entries created"),
    ("swala_cache_discards_total", "discards", "Results below caching threshold"),
    ("swala_cache_evictions_total", "evictions", "Capacity evictions"),
    ("swala_cache_expirations_total", "expirations", "TTL expirations"),
    ("swala_false_hits_total", "false_hits", "Remote fetches answered gone"),
    ("swala_false_hits_served_total", "false_hits_served",
     "Fetch requests we answered with a miss"),
    ("swala_false_misses_total", "false_misses",
     "Executions duplicating concurrent or pre-broadcast work"),
    ("swala_directory_updates_total", "updates_applied",
     "Peer directory updates applied"),
    ("swala_directory_messages_total", "dir_msgs_sent",
     "Directory-sync messages sent (broadcasts, digests, deltas)"),
    ("swala_directory_bytes_total", "dir_bytes_sent",
     "Directory-sync bytes sent"),
    ("swala_double_cached_total", "double_cached",
     "Insert broadcasts for URLs we also hold"),
    ("swala_invalidations_received_total", "invalidations_received",
     "Invalidation messages handled"),
    ("swala_invalidated_total", "invalidated", "Entries dropped by invalidation"),
    ("swala_stale_hits_total", "stale_hits", "Hits served from stale entries"),
    ("swala_fetch_timeouts_total", "fetch_timeouts", "Remote fetches abandoned"),
    ("swala_coalesced_total", "coalesced",
     "Requests that waited on an in-progress execution"),
)


def collect_node_stats(registry: MetricsRegistry, stats) -> None:
    """Populate counters/histograms from one node's ``NodeStats``."""
    node = stats.node or "node"
    for name, attr, help in _NODE_COUNTERS:
        counter = registry.counter(name, help, labelnames=("node",))
        counter.labels(node=node).inc(getattr(stats, attr))
    hits = registry.counter(
        "swala_cache_hits_total", "Cache hits by locality",
        labelnames=("node", "type"),
    )
    hits.labels(node=node, type="local").inc(stats.local_hits)
    hits.labels(node=node, type="remote").inc(stats.remote_hits)
    hist = registry.histogram(
        "swala_response_seconds", "Response time by body source",
        labelnames=("node", "outcome"),
    )
    for source, tally in sorted(stats.source_times.items()):
        child = hist.labels(node=node, outcome=source)
        if tally.keep_samples:
            for sample in tally.samples:
                child.observe(sample)


def collect_network(registry: MetricsRegistry, network) -> None:
    """LAN-level counters from a :class:`~repro.net.Network`."""
    labels = ("network",)
    registry.counter(
        "net_messages_sent_total", "Messages delivered", labels
    ).labels(network=network.name).inc(network.messages_sent)
    registry.counter(
        "net_messages_dropped_total", "Messages lost to injected loss", labels
    ).labels(network=network.name).inc(network.messages_dropped)
    registry.counter(
        "net_bytes_sent_total", "Payload bytes delivered", labels
    ).labels(network=network.name).inc(network.bytes_sent)
