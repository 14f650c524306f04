"""`repro capacity`: SLO-driven saturation search for the knee rate.

ROADMAP item 4 asks the operator question the paper's §5 throughput
tables answer by hand: *what is the max sustainable req/sec per cluster
size?*  This module automates it with the streaming-telemetry saturation
detector (:mod:`repro.obs.streaming`):

1. **Geometric ramp** — one simulation per cluster size in which an
   :class:`~repro.clients.AdaptiveSource` doubles its Poisson arrival
   rate every hold period until the detector fires, bracketing the knee
   within a factor of ``growth``.
2. **Bisection** — fresh fixed-rate probe runs (deterministic
   :class:`~repro.clients.OpenLoopSource` replays) shrink the bracket
   geometrically until ``hi/lo - 1 <= precision``.  The arrival stream
   uses common random numbers across rates (same uniform draws, scaled),
   so probes differ only in offered load.
3. **Knee annotation** — the winning rate is re-probed with a
   :class:`~repro.obs.ResourceProfiler` attached, and the most saturated
   resource (same ranking ``repro profile`` uses) is reported as the
   bottleneck at the knee.

Every step is a deterministic function of (params, seed): the committed
``results/capacity_knee.{json,txt}`` regenerate byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clients import AdaptiveSource, OpenLoopSource
from ..core import CacheMode, SwalaCluster, SwalaConfig
from ..hosts import MachineCosts
from ..metrics import render_table
from ..obs.ioutil import write_text
from ..obs.profiler import ResourceProfiler, _entries, _saturation
from ..obs.runtime import attach
from ..obs.streaming import SLO, StreamingTelemetry
from ..sim import RandomStreams, Simulator
from ..workload import TimedRequest, zipf_cgi_trace

__all__ = [
    "CapacityParams",
    "ProbeResult",
    "KneeCell",
    "probe_rate",
    "find_knee",
    "run_capacity_search",
    "knee_report",
    "render_knee_table",
    "write_knee_report",
]


@dataclass(frozen=True)
class CapacityParams:
    """Everything the search depends on (all of it goes in the export)."""

    nodes: Tuple[int, ...] = (1, 4, 8, 16)
    mode: str = "cooperative"
    window: float = 1.0              # telemetry window width, sim-seconds
    duration: float = 20.0           # offered-load phase per probe
    start_rate: float = 4.0          # ramp origin, req/s
    max_rate: float = 4096.0         # ramp gives up above this
    growth: float = 2.0              # ramp multiplier per hold
    precision: float = 0.05          # bisection stops at hi/lo-1 <= this
    max_probes: int = 12             # bisection cap per cluster size
    slo_p99: float = 2.0             # windowed p99 bound, seconds
    max_rho: float = 1.0             # Little's-law utilisation bound
    queue_growth_frac: float = 0.25  # backlog growth per window, as a
    #                                  fraction of that window's expected
    #                                  arrivals at the probed rate
    consecutive: int = 3
    warmup_windows: int = 2
    n_distinct: int = 200
    zipf: float = 1.0
    cpu_time_mean: float = 0.2
    seed: int = 0
    max_requests: int = 200_000      # per-probe arrival cap

    def to_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["nodes"] = list(self.nodes)
        return out


@dataclass
class ProbeResult:
    """One fixed-rate (or ramp) run judged by the saturation detector."""

    rate: float
    saturated: bool
    saturated_window: Optional[int]
    windows: List[Dict[str, Any]]
    sent: int
    completed: int
    mean_rt: float
    p99_rt: float
    hit_ratio: float
    telemetry: StreamingTelemetry = field(repr=False, default=None)


@dataclass
class KneeCell:
    """The capacity verdict for one cluster size."""

    nodes: int
    knee: float                      # max sustainable arrival rate, req/s
    bracket_lo: float
    bracket_hi: Optional[float]      # None => never saturated by max_rate
    probes: int                      # fixed-rate probe runs spent
    hit_ratio: float                 # at the knee
    mean_rt: float
    p99_rt: float
    bottleneck: Dict[str, Any]       # profiler's top saturated resource

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nodes": self.nodes,
            "knee": self.knee,
            "knee_per_node": self.knee / self.nodes,
            "bracket_lo": self.bracket_lo,
            "bracket_hi": self.bracket_hi,
            "probes": self.probes,
            "hit_ratio": self.hit_ratio,
            "mean_rt": self.mean_rt,
            "p99_rt": self.p99_rt,
            "bottleneck": self.bottleneck,
        }


def _slo(params: CapacityParams, rate: float) -> SLO:
    return SLO(
        p99_latency=params.slo_p99,
        max_rho=params.max_rho,
        max_queue_growth=params.queue_growth_frac * rate * params.window,
        consecutive=params.consecutive,
        warmup_windows=params.warmup_windows,
    )


def _population(params: CapacityParams):
    """A Zipf-mixed CGI request pool to cycle arrivals through."""
    return zipf_cgi_trace(
        4 * params.n_distinct,
        params.n_distinct,
        zipf=params.zipf,
        cpu_time_mean=params.cpu_time_mean,
        seed=params.seed,
    )


def _timed_arrivals(
    population, rate: float, params: CapacityParams
) -> List[TimedRequest]:
    """Poisson arrivals over the load phase, cycling the request pool.

    One uniform stream drives every rate (inter-arrival gaps scale by
    ``1/rate``), so bisection probes see the same arrival *pattern* at
    different intensities — common random numbers keep the saturated
    predicate monotone in rate.
    """
    rng = RandomStreams(params.seed).stream("capacity-arrivals")
    timed: List[TimedRequest] = []
    t = 0.0
    i = 0
    while len(timed) < params.max_requests:
        t += rng.expovariate(rate)
        if t >= params.duration:
            break
        timed.append(
            TimedRequest(time=t, request=population[i % len(population)])
        )
        i += 1
    return timed


def _build_cluster(sim: Simulator, n_nodes: int, params: CapacityParams,
                   costs: Optional[MachineCosts]):
    cluster = SwalaCluster(
        sim, n_nodes, SwalaConfig(mode=CacheMode(params.mode)), costs=costs
    )
    cluster.start()
    return cluster


def probe_rate(
    n_nodes: int,
    rate: float,
    params: CapacityParams,
    costs: Optional[MachineCosts] = None,
    profiler: Optional[ResourceProfiler] = None,
) -> ProbeResult:
    """One fixed-rate open-loop run, judged by the saturation detector."""
    population = _population(params)
    timed = _timed_arrivals(population, rate, params)
    sim = Simulator()
    cluster = _build_cluster(sim, n_nodes, params, costs)
    telemetry = StreamingTelemetry(window=params.window,
                                   slo=_slo(params, rate))
    cluster.attach_streaming(telemetry)
    if profiler is not None:
        profiler.new_run()
        attach(cluster, profiler=profiler)
    source = OpenLoopSource(
        sim, cluster.network, "frontdoor", cluster.node_names, timed
    )
    source.telemetry = telemetry
    sim.run(until=source.start())
    telemetry.finalize()
    if profiler is not None:
        profiler.finalize()
    summary = telemetry.summary_digest()
    return ProbeResult(
        rate=rate,
        saturated=telemetry.saturated,
        saturated_window=telemetry.saturated_window,
        windows=[w.to_dict() for w in telemetry.windows],
        sent=len(timed),
        completed=source.response_times.count,
        mean_rt=source.response_times.mean,
        p99_rt=summary.quantile(0.99),
        hit_ratio=cluster.stats().hit_ratio,
        telemetry=telemetry,
    )


def _ramp(
    n_nodes: int,
    params: CapacityParams,
    costs: Optional[MachineCosts] = None,
) -> Tuple[float, Optional[float], List[Dict[str, Any]]]:
    """Geometric ramp: double the rate each hold until the detector fires.

    Returns ``(lo, hi, windows)`` — the last rate that survived a full
    hold and the first that saturated (``hi is None`` when even
    ``max_rate`` survived).  Cache state carries across steps (warm, like
    a real cluster under rising load), which biases the bracket slightly
    conservative; bisection refines with clean runs.
    """
    population = _population(params)
    sim = Simulator()
    cluster = _build_cluster(sim, n_nodes, params, costs)
    telemetry = StreamingTelemetry(window=params.window,
                                   slo=_slo(params, params.start_rate))
    cluster.attach_streaming(telemetry)
    source = AdaptiveSource(
        sim, cluster.network, "frontdoor", cluster.node_names,
        population, rate=params.start_rate, seed=params.seed + 1,
        name="capacity-ramp",
    )
    source.telemetry = telemetry
    hold = (params.warmup_windows + params.consecutive + 1) * params.window
    bracket: List[Optional[float]] = [0.0, None]

    def controller():
        rate = params.start_rate
        while True:
            yield sim.timeout(hold)
            telemetry.advance(sim.now)
            if telemetry.saturated:
                bracket[1] = rate
                return
            bracket[0] = rate
            rate *= params.growth
            if rate > params.max_rate:
                return
            telemetry.reset_saturation()
            telemetry.slo = _slo(params, rate)
            source.retarget(rate)

    source.start()
    proc = sim.process(controller(), name="capacity-ramp")
    sim.run(until=proc)
    source.stop()
    telemetry.finalize()
    return bracket[0], bracket[1], [w.to_dict() for w in telemetry.windows]


def find_knee(
    n_nodes: int,
    params: CapacityParams,
    costs: Optional[MachineCosts] = None,
    collect_windows: Optional[List[Dict[str, Any]]] = None,
) -> KneeCell:
    """Ramp + bisection + profiled annotation for one cluster size."""

    def _tag(records: List[Dict[str, Any]], phase: str, rate: float) -> None:
        if collect_windows is None:
            return
        for record in records:
            tagged = dict(record)
            tagged["cell"] = n_nodes
            tagged["phase"] = phase
            tagged["rate"] = rate
            collect_windows.append(tagged)

    lo, hi, ramp_windows = _ramp(n_nodes, params, costs)
    _tag(ramp_windows, "ramp", hi if hi is not None else params.max_rate)
    probes = 0

    def _probe(rate: float) -> ProbeResult:
        nonlocal probes
        result = probe_rate(n_nodes, rate, params, costs)
        _tag(result.windows, "bisect", rate)
        probes += 1
        return result

    if lo <= 0.0:
        # Even the ramp origin saturated; seed the search below it.
        hi = hi if hi is not None else params.max_rate
        lo = hi / 16.0
    # The ramp carries one warm cache across its holds, so its bracket
    # can be optimistic relative to the cold-cache runs bisection uses:
    # re-verify lo with fresh probes, tightening hi on each failure.
    while probes < params.max_probes:
        verify = _probe(lo)
        if not verify.saturated:
            break
        hi = lo
        lo = lo / max(params.growth, 2.0)
    if hi is not None:
        while probes < params.max_probes and hi / lo > 1.0 + params.precision:
            mid = math.sqrt(lo * hi)
            result = _probe(mid)
            if result.saturated:
                hi = mid
            else:
                lo = mid
    knee = lo
    profiler = ResourceProfiler()
    knee_probe = probe_rate(n_nodes, knee, params, costs, profiler=profiler)
    _tag(knee_probe.windows, "knee", knee)
    return KneeCell(
        nodes=n_nodes,
        knee=knee,
        bracket_lo=lo,
        bracket_hi=hi,
        probes=probes,
        hit_ratio=knee_probe.hit_ratio,
        mean_rt=knee_probe.mean_rt,
        p99_rt=knee_probe.p99_rt,
        bottleneck=knee_bottleneck(profiler),
    )


def knee_bottleneck(profiler: ResourceProfiler) -> Dict[str, Any]:
    """The most saturated resource of the profiler's last run.

    Uses the exact ranking ``repro profile``'s bottleneck report uses
    (:func:`repro.obs.profiler._saturation`), so the knee annotation and
    a ``--profile-out`` of the same cell always agree.
    """
    profile = profiler.to_dict()
    entries = _entries(profile)
    if not entries:
        return {"name": None, "kind": None, "saturation": 0.0}
    top = max(entries, key=_saturation)
    return {
        "name": top["name"],
        "kind": top["kind"],
        "saturation": _saturation(top),
        "utilization": top.get("utilization"),
    }


def run_capacity_search(
    params: CapacityParams,
    costs: Optional[MachineCosts] = None,
    collect_windows: Optional[List[Dict[str, Any]]] = None,
) -> List[KneeCell]:
    """The full sweep: one :class:`KneeCell` per cluster size."""
    return [
        find_knee(n, params, costs, collect_windows) for n in params.nodes
    ]


# -- reporting ---------------------------------------------------------------
def knee_report(cells: Sequence[KneeCell],
                params: CapacityParams) -> Dict[str, Any]:
    """The committed ``results/capacity_knee.json`` document."""
    return {
        "schema": "repro-capacity-v1",
        "params": params.to_dict(),
        "cells": [cell.to_dict() for cell in cells],
    }


def render_knee_table(cells: Sequence[KneeCell],
                      params: CapacityParams) -> str:
    rows = []
    for cell in cells:
        censored = cell.bracket_hi is None
        rows.append((
            cell.nodes,
            f"{cell.knee:.2f}" + ("+" if censored else ""),
            f"{cell.knee / cell.nodes:.2f}",
            f"{cell.hit_ratio:.0%}" if cell.hit_ratio == cell.hit_ratio
            else "-",
            f"{cell.p99_rt:.3f}" if cell.p99_rt == cell.p99_rt else "-",
            cell.bottleneck.get("name") or "-",
        ))
    return render_table(
        "Capacity: max sustainable req/s before the SLO detector fires",
        ["nodes", "knee req/s", "per node", "hit ratio", "p99 (s)",
         "bottleneck at knee"],
        rows,
        note=(
            f"knee = highest rate with < {params.consecutive} consecutive "
            f"windows over SLO (p99 <= {params.slo_p99:g}s, rho <= "
            f"{params.max_rho:g}); '+' = never saturated below "
            f"{params.max_rate:g}/s; bottleneck ranked like `repro profile`"
        ),
    )


def write_knee_report(cells: Sequence[KneeCell], params: CapacityParams,
                      json_path, txt_path=None) -> None:
    """Deterministic export: sorted keys, no timestamps, trailing newline."""
    document = knee_report(cells, params)
    write_text(
        json_path,
        json.dumps(document, sort_keys=True, indent=2) + "\n",
    )
    if txt_path is not None:
        write_text(txt_path, render_knee_table(cells, params) + "\n")
