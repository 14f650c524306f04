"""Causal what-if profiling: virtual-speedup replay of recorded runs.

Coz showed that the way to answer "would a faster X help?" is not to
stare at a flat profile but to *virtually speed X up* and measure the
effect on end-to-end behaviour.  We hold a complete record of every
request — the span tree from the tracer plus the span-linked resource
intervals from the profiler — so we can do the replay analytically:

1. :func:`predict` walks each request's span tree bottom-up.  A span's
   window splits into **child cover** (replayed recursively, children
   clipped to the parent window) and **self time**, which the shared
   critical-path allocator (:mod:`repro.obs.critical`) attributes to
   blame segments; each segment is then divided by its virtual speedup.
   Overlapping children are grouped into connected clusters and a
   cluster's replayed extent is the max over its children of
   ``(unscaled start offset) + (replayed child)`` — concurrency is
   preserved, the slowest branch dominates, and with all speedups at 1
   the replay reproduces every recorded latency *exactly* (the identity
   property the tests pin down).

2. ``repro whatif --validate`` closes the loop: it actually re-runs the
   simulation with the scenario's rates scaled for real (CPU via
   ``MachineCosts.cpu_slowdown``, disk via :class:`DiskParams`, LAN via
   ``Network(latency=...)``, cluster size via ``n_nodes``) and reports
   the prediction error through the same drift machinery as ``repro
   diff``.

Scenarios are strings: ``cpu:2`` (CPUs 2x faster), ``disk:4`` (disk 4x
faster), ``lan:4`` (LAN latency / 4), ``nodes:+2`` (two more nodes).
Factors below 1 model slowdowns (``cpu:0.5`` = half-speed CPUs).

Known approximations, all deliberate: ``lan`` scales only the traced
hop latency (``net-latency``), not the request wire time hidden inside
``queue-wait``; ``nodes`` has no per-segment effect (a serial client
gains nothing from more nodes — the honest prediction is "no change",
and validation confirms it on the Table 3 workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..metrics.reporting import render_table
from .critical import _allocate, intervals_by_span
from .trace import Span

__all__ = [
    "Scenario",
    "parse_scenario",
    "segment_speedups",
    "WhatIfPrediction",
    "predict",
    "ValidationRow",
    "run_cell",
    "validate_scenarios",
    "worst_row",
    "render_whatif_report",
]

#: Scenario resources and the knob each one turns.
SCENARIO_RESOURCES = ("cpu", "disk", "lan", "nodes")


@dataclass(frozen=True)
class Scenario:
    """One virtual-speedup hypothesis, e.g. ``disk:2``."""

    resource: str
    #: Speedup factor for cpu/disk/lan (>0); node-count delta for nodes.
    factor: float

    @property
    def label(self) -> str:
        if self.resource == "nodes":
            return f"nodes:{int(self.factor):+d}"
        factor = self.factor
        text = f"{factor:g}"
        return f"{self.resource}:{text}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def parse_scenario(text: str) -> Scenario:
    """Parse ``"cpu:2"`` / ``"lan:4"`` / ``"nodes:+1"`` into a Scenario."""
    resource, sep, value = text.strip().partition(":")
    resource = resource.strip().lower()
    if not sep or resource not in SCENARIO_RESOURCES:
        raise ValueError(
            f"bad scenario {text!r}: expected <resource>:<factor> with "
            f"resource in {'/'.join(SCENARIO_RESOURCES)}"
        )
    try:
        factor = float(value)
    except ValueError:
        raise ValueError(f"bad scenario {text!r}: {value!r} is not a number")
    if resource == "nodes":
        if factor != int(factor):
            raise ValueError(f"bad scenario {text!r}: node delta must be whole")
        return Scenario(resource, float(int(factor)))
    if factor <= 0:
        raise ValueError(f"bad scenario {text!r}: factor must be > 0")
    return Scenario(resource, factor)


def segment_speedups(scenario: Optional[Scenario]) -> Dict[str, float]:
    """Blame-segment -> divide-by factor for the analytic replay."""
    if scenario is None:
        return {}
    k = scenario.factor
    if scenario.resource == "cpu":
        return {"cpu-service": k, "cpu-queue": k}
    if scenario.resource == "disk":
        return {"disk-service": k, "disk-wait": k}
    if scenario.resource == "lan":
        return {"net-latency": k}
    return {}  # nodes: no per-segment speedup (see module doc)


# -- analytic replay ---------------------------------------------------------

def _replay_span(
    span: Span,
    children: Dict[int, List[Span]],
    index: Dict[Tuple[int, int], List[Dict[str, Any]]],
    speedups: Dict[str, float],
    trace_id: int,
) -> float:
    """Replayed duration of ``span`` under the virtual speedups."""
    window = span.duration
    if window <= 0.0:
        return 0.0
    kids: List[Tuple[float, float, float]] = []
    for kid in sorted(
        children.get(span.span_id, ()), key=lambda s: (s.start, s.span_id)
    ):
        if kid.end is None:
            continue
        a, b = max(kid.start, span.start), min(kid.end, span.end)
        if b <= a:
            continue
        replayed = _replay_span(kid, children, index, speedups, trace_id)
        full = kid.end - kid.start
        if full > 0.0 and b - a < full:
            # A child sticking out of the parent window contributes only
            # the covered fraction (fire-and-forget hops may outlive the
            # phase that issued them).
            replayed *= (b - a) / full
        kids.append((a, b, replayed))

    # Group overlapping children into connected clusters; each cluster
    # replays as its slowest branch (start offsets stay unscaled: they
    # are dependency delays the scenario does not remove).
    union = 0.0
    replayed_cover = 0.0
    i = 0
    while i < len(kids):
        cluster_start = kids[i][0]
        cluster_end = kids[i][1]
        extent = kids[i][0] - cluster_start + kids[i][2]
        j = i + 1
        while j < len(kids) and kids[j][0] < cluster_end:
            cluster_end = max(cluster_end, kids[j][1])
            extent = max(extent, kids[j][0] - cluster_start + kids[j][2])
            j += 1
        union += cluster_end - cluster_start
        replayed_cover += extent
        i = j

    self_time = max(0.0, window - union)
    scaled_self = 0.0
    if self_time > 0.0:
        buckets = _allocate(
            span, self_time, index.get((trace_id, span.span_id), ())
        )
        for bucket, amount in buckets.items():
            scaled_self += amount / speedups.get(bucket, 1.0)
    return scaled_self + replayed_cover


@dataclass
class WhatIfPrediction:
    """Analytic replay of one scenario over a recorded run."""

    scenario: Optional[Scenario]
    requests: int
    baseline_mean: float
    predicted_mean: float
    #: Per-request (recorded, replayed) latencies, trace order.
    latencies: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_mean <= 0.0:
            return 1.0
        return self.baseline_mean / self.predicted_mean


def predict(
    dump,
    intervals: Optional[Iterable[Dict[str, Any]]],
    scenario: Optional[Scenario],
) -> WhatIfPrediction:
    """Replay every complete trace in ``dump`` under ``scenario``.

    ``dump`` is a :class:`~repro.obs.TraceCollector` or
    :class:`~repro.obs.TraceDump`; ``intervals`` the matching profiler
    interval records (``None`` degrades to span-category attribution).
    Zero complete traces yields zero means, never a division error.
    """
    index = intervals_by_span(intervals)
    speedups = segment_speedups(scenario)
    pairs: List[Tuple[float, float]] = []
    for trace_id, spans in sorted(dump.traces().items()):
        root = next((s for s in spans if s.parent_id is None), None)
        if root is None or root.end is None:
            continue
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        replayed = _replay_span(root, children, index, speedups, trace_id)
        pairs.append((root.duration, replayed))
    n = len(pairs)
    return WhatIfPrediction(
        scenario=scenario,
        requests=n,
        baseline_mean=sum(p[0] for p in pairs) / n if n else 0.0,
        predicted_mean=sum(p[1] for p in pairs) / n if n else 0.0,
        latencies=pairs,
    )


# -- validation: actually re-run with scaled rates ---------------------------

#: Default LAN latency of :class:`~repro.net.Network` (kept in sync by a
#: regression test rather than an import cycle).
_DEFAULT_LAN_LATENCY = 0.0001


@dataclass
class CellResult:
    """One simulated cell of the validation matrix."""

    mean_latency: float
    requests: int
    tracer: Optional[object] = None
    profiler: Optional[object] = None


def run_cell(
    scenario: Optional[Scenario] = None,
    n_nodes: int = 2,
    n_requests: int = 40,
    cpu_time: float = 1.0,
    observe: bool = False,
) -> CellResult:
    """Run one Table 3-style cell, optionally under a *real* scenario.

    This is the ground truth for ``repro whatif --validate``: the same
    workload as :func:`repro.experiments.run_table3` (unique cacheable
    CGI requests from one serial client, cooperative caching on), with
    the scenario's resource rates scaled for real.  With
    ``observe=True`` the run records spans + linked intervals so the
    baseline cell can feed :func:`predict`.
    """
    from ..clients import ClientThread
    from ..core import SwalaCluster, SwalaConfig
    from ..hosts import SUN_ULTRA1
    from ..hosts.costs import DiskParams
    from ..net import Network
    from ..sim import Simulator
    from ..workload import unique_cgi_trace
    from .profiler import ResourceProfiler
    from .runtime import attach
    from .trace import TraceCollector

    costs = SUN_ULTRA1
    latency = _DEFAULT_LAN_LATENCY
    nodes = n_nodes
    if scenario is not None:
        k = scenario.factor
        if scenario.resource == "cpu":
            costs = costs.with_(cpu_slowdown=costs.cpu_slowdown / k)
        elif scenario.resource == "disk":
            disk = costs.disk
            costs = costs.with_(disk=DiskParams(
                access_time=disk.access_time / k,
                transfer_rate=disk.transfer_rate * k,
                block_size=disk.block_size,
            ))
        elif scenario.resource == "lan":
            latency = latency / k
        elif scenario.resource == "nodes":
            nodes = max(1, n_nodes + int(k))

    sim = Simulator()
    network = Network(sim, latency=latency)
    cluster = SwalaCluster(
        sim, nodes, SwalaConfig(), network=network, costs=costs
    )
    tracer = profiler = None
    if observe:
        tracer = TraceCollector()
        tracer.new_run()
        profiler = ResourceProfiler(record_intervals=True)
        profiler.new_run()
        attach(cluster, tracer=tracer, profiler=profiler)
    cluster.start()
    trace = unique_cgi_trace(n_requests, cpu_time=cpu_time)
    client = ClientThread(
        sim, cluster.network, "client0", cluster.node_names[0], list(trace)
    )
    sim.run(until=client.start())
    if profiler is not None:
        profiler.finalize()
    return CellResult(
        mean_latency=client.response_times.mean,
        requests=n_requests,
        tracer=tracer,
        profiler=profiler,
    )


@dataclass
class ValidationRow:
    """Predicted vs. actually re-simulated latency for one scenario."""

    label: str
    baseline_mean: float
    predicted_mean: float
    actual_mean: float

    @property
    def error(self) -> float:
        """Relative prediction error vs. the real rerun."""
        if self.actual_mean <= 0.0:
            return 0.0 if self.predicted_mean <= 0.0 else float("inf")
        return abs(self.predicted_mean - self.actual_mean) / self.actual_mean

    @property
    def predicted_speedup(self) -> float:
        if self.predicted_mean <= 0.0:
            return 1.0
        return self.baseline_mean / self.predicted_mean

    @property
    def actual_speedup(self) -> float:
        if self.actual_mean <= 0.0:
            return 1.0
        return self.baseline_mean / self.actual_mean


def validate_scenarios(
    scenarios: Sequence[Scenario],
    n_nodes: int = 2,
    n_requests: int = 40,
    cpu_time: float = 1.0,
) -> List[ValidationRow]:
    """Record one baseline cell, predict each scenario, re-run for real.

    The returned rows start with the ``identity`` sanity row (replay of
    the baseline under no speedups — its error is pure replay bias and
    should be ~0).
    """
    base = run_cell(None, n_nodes, n_requests, cpu_time, observe=True)
    intervals = base.profiler.intervals if base.profiler is not None else None
    rows = []
    identity = predict(base.tracer, intervals, None)
    rows.append(ValidationRow(
        label="identity",
        baseline_mean=base.mean_latency,
        predicted_mean=identity.predicted_mean,
        actual_mean=base.mean_latency,
    ))
    for scenario in scenarios:
        prediction = predict(base.tracer, intervals, scenario)
        actual = run_cell(scenario, n_nodes, n_requests, cpu_time)
        rows.append(ValidationRow(
            label=scenario.label,
            baseline_mean=base.mean_latency,
            predicted_mean=prediction.predicted_mean,
            actual_mean=actual.mean_latency,
        ))
    return rows


def worst_row(rows: Sequence[ValidationRow]) -> ValidationRow:
    """The row the ``--max-error`` gate judges: the largest error, with a
    nan error (no comparable rerun) ranked above every number.  The gate
    passes only when ``worst_row(rows).error <= max_error``."""
    return max(rows, key=lambda r: math.inf if math.isnan(r.error) else r.error)


def render_whatif_report(
    rows: Sequence[ValidationRow],
    max_error: Optional[float] = None,
) -> str:
    """Prediction-error table (the ``repro whatif --validate`` output)."""
    if not rows:
        return "(no scenarios)"
    table = render_table(
        "What-if validation: predicted vs. re-simulated mean latency",
        ["scenario", "baseline (s)", "predicted (s)", "actual (s)",
         "pred speedup", "actual speedup", "error %"],
        [
            (
                r.label, r.baseline_mean, r.predicted_mean, r.actual_mean,
                r.predicted_speedup, r.actual_speedup, 100.0 * r.error,
            )
            for r in rows
        ],
        note="error = |predicted - actual| / actual on a real rerun with "
        "the scenario's rates scaled",
    )
    if max_error is not None:
        worst = worst_row(rows)
        verdict = (
            f"OK: worst error {100.0 * worst.error:.2f}% "
            f"({worst.label}) within {100.0 * max_error:.2f}%"
            if worst.error <= max_error
            else f"FAIL: {worst.label} error {100.0 * worst.error:.2f}% "
            f"exceeds {100.0 * max_error:.2f}%"
        )
        table += "\n" + verdict
    return table


def render_predictions(
    predictions: Sequence[WhatIfPrediction],
) -> str:
    """Ranking table for replay-only mode (no validation reruns)."""
    if not predictions:
        return "(no scenarios)"
    rows = sorted(predictions, key=lambda p: p.predicted_mean)
    return render_table(
        "What-if predictions (analytic replay, fastest first)",
        ["scenario", "requests", "baseline (s)", "predicted (s)", "speedup"],
        [
            (
                p.scenario.label if p.scenario else "identity",
                p.requests, p.baseline_mean, p.predicted_mean,
                p.predicted_speedup,
            )
            for p in rows
        ],
    )
