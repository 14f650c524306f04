"""One benchmark rep in a fresh process: build, simulate, report.

``perf/run.py`` launches this once per rep so that every rep pays the
real start-up cost (interpreter, imports, input generation, cluster
build) and no rep inherits another's heap.  Usage::

    python3 perf/rep.py SPEC_JSON --seed N [--profile] [--setup-only]

``SPEC_JSON`` describes the workload (see ``WORKLOADS`` in ``run.py``).
The rep prints JSON lines on stdout: first ``{"attempted": N}`` once the
inputs exist, then the result object as the last line.  Timestamps are
``time.monotonic()`` readings (CLOCK_MONOTONIC, shared by all processes
on the host), so the parent can measure from the moment it launched us.

A watchdog thread samples ``Simulator.now`` and ``Simulator.ticks``
every ``WATCH_PERIOD_S``; when ``STALL_EVENTS`` events pass with the
clock unchanged it interrupts the run, which is reported as a stall.
"""

import time

T_START = time.monotonic()

import _thread  # noqa: E402
import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WATCH_PERIOD_S = 2.0
STALL_EVENTS = 2_000_000


def emit(obj):
    print(json.dumps(obj), flush=True)


def import_repro():
    """Import the package from this checkout's ``src``, never from elsewhere.

    Imports every subpackage the rep uses, so that the import span holds
    all import cost and the input and build spans hold none.
    """
    sys.path.insert(0, SRC)
    try:
        import repro
        import repro.clients
        import repro.core
        import repro.experiments
        import repro.obs
        import repro.sim
        import repro.workload  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"rep: cannot import repro from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit(f"rep: repro imported from {where}, not {SRC}")


class Watchdog(threading.Thread):
    """Interrupts the main thread when the simulated clock stops moving."""

    def __init__(self, sim):
        super().__init__(name="stall-watchdog", daemon=True)
        self.sim = sim
        self.fired = None
        self._halt = threading.Event()

    def run(self):
        last_now, ref_ticks = self.sim.now, self.sim.ticks
        while not self._halt.wait(WATCH_PERIOD_S):
            now, ticks = self.sim.now, self.sim.ticks
            if now != last_now:
                last_now, ref_ticks = now, ticks
            elif ticks - ref_ticks >= STALL_EVENTS:
                self.fired = {"now": now, "ticks": ticks}
                _thread.interrupt_main()
                return

    def stop(self):
        self._halt.set()
        self.join()


class GcTimer:
    """Host time spent in the cyclic garbage collector, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


def count_ps_calls(counts):
    """Wrap ``ProcessorSharing.execute`` to count submits and the load seen."""
    from repro.sim import ProcessorSharing

    execute = ProcessorSharing.execute

    def counted(self, demand, weight=1.0):
        counts["ps_executes"] += 1
        counts["ps_load_sum"] += self.load
        return execute(self, demand, weight)

    ProcessorSharing.execute = counted


def make_inputs(spec, seed):
    """The workload's trace (closed loop) or timed arrivals (open loop)."""
    from repro.experiments import GRID_MIXES, figure4_workload
    from repro.sim import RandomStreams
    from repro.workload import TimedRequest, zipf_cgi_trace

    kind = spec["input"]
    if kind == "zipf":
        return zipf_cgi_trace(spec["requests"], spec["distinct"],
                              zipf=spec["zipf"], cpu_time_mean=spec["cpu_mean"],
                              seed=seed)
    if kind == "figure4":
        return figure4_workload(spec["scale"], seed)
    if kind == "grid":
        return GRID_MIXES[spec["mix"]].trace(spec["scale"], seed)
    if kind == "arrivals":
        # The `repro capacity` probe: a Zipf CGI pool cycled by Poisson
        # arrivals drawn from the same named stream the probe uses.
        pool = zipf_cgi_trace(4 * spec["distinct"], spec["distinct"],
                              zipf=spec["zipf"], cpu_time_mean=spec["cpu_mean"],
                              seed=seed)
        rng = RandomStreams(seed).stream("capacity-arrivals")
        timed, t = [], 0.0
        while True:
            t += rng.expovariate(spec["rate"])
            if t >= spec["duration"]:
                return timed
            timed.append(TimedRequest(time=t, request=pool[len(timed) % len(pool)]))
    raise SystemExit(f"rep: unknown input kind {kind!r}")


def build(spec, inputs):
    """Simulator, cluster and load generator, ready for the first event."""
    from repro.clients import ClientFleet, OpenLoopSource
    from repro.core import CacheMode, SwalaCluster, SwalaConfig
    from repro.experiments import GRID_MIXES
    from repro.obs import SLO, StreamingTelemetry
    from repro.sim import Simulator

    config_kw = {}
    if spec.get("protocol"):
        config_kw = GRID_MIXES[spec["mix"]].config_kw(spec["protocol"])
    sim = Simulator()
    cluster = SwalaCluster(sim, spec["nodes"],
                           SwalaConfig(mode=CacheMode(spec["mode"]), **config_kw))
    if spec["input"] == "arrivals":
        cluster.start()
        # The defaults of `repro capacity` (CapacityParams), as probe_rate
        # wires them.
        window = 1.0
        telemetry = StreamingTelemetry(window=window, slo=SLO(
            p99_latency=2.0, max_rho=1.0,
            max_queue_growth=0.25 * spec["rate"] * window,
            consecutive=3, warmup_windows=2))
        cluster.attach_streaming(telemetry)
        source = OpenLoopSource(sim, cluster.network, "frontdoor",
                                cluster.node_names, inputs, name="probe")
        source.telemetry = telemetry
        return sim, cluster, source, telemetry
    cluster.install_files(inputs)
    cluster.start()
    fleet = ClientFleet(sim, cluster.network, inputs, servers=cluster.node_names,
                        n_threads=min(spec["threads"], len(inputs)),
                        n_hosts=spec["hosts"])
    return sim, cluster, fleet, None


def simulate(sim, load, telemetry):
    """Run to the end, as ``ClientFleet.run`` or ``probe_rate`` does.

    Returns the closed loop's response times, or ``None`` for the open
    loop, whose latencies ``from_schedule`` computes afterwards.
    """
    if telemetry is None:
        return load.run()
    sim.run(until=load.start())
    telemetry.finalize()
    return None


def from_schedule(source):
    """Open-loop latencies timed from each scheduled arrival, and the lag.

    Pairs the k-th earliest send with the k-th scheduled time; the lag is
    the most any request was sent after it was due.
    """
    from repro.sim import Tally

    responses = source.responses
    order = sorted(range(len(responses)), key=lambda k: responses[k].sent_at)
    latency = [0.0] * len(responses)
    lag = 0.0
    for rank, k in enumerate(order):
        due = source.timed_requests[rank].time
        sent = responses[k].sent_at
        lag = max(lag, sent - due)
        latency[k] = sent + source.response_times.samples[k] - due
    rt = Tally("from-schedule")
    for value in latency:
        rt.observe(value)
    return rt, lag


def outputs_of(sim, cluster, rt, responses):
    """The simulated results the parent checks against expectations."""
    stats = cluster.stats()
    return {
        "requests": stats.requests,
        "completed": rt.count,
        "not_ok": sum(1 for r in responses if not r.ok),
        "files_served": sum(n.files_served for n in stats.nodes),
        "uncacheable": sum(n.uncacheable for n in stats.nodes),
        "local_hits": stats.local_hits,
        "remote_hits": stats.remote_hits,
        "misses": stats.misses,
        "inserts": stats.inserts,
        "false_hits": stats.false_hits,
        "false_misses": stats.false_misses,
        "dir_msgs": stats.dir_msgs_sent,
        "net_messages": cluster.network.messages_sent,
        "mean_rt": rt.mean,
        "p99_rt": rt.percentile(99),
        "end_time": sim.now,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="workload spec as a JSON object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", action="store_true",
                        help="run the simulation under cProfile")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first simulated event")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)

    import_repro()
    clock = {"start": T_START}

    def stamp(name):
        clock[name] = time.monotonic()

    stamp("imported")
    inputs = make_inputs(spec, args.seed)
    stamp("input")
    emit({"attempted": len(inputs)})
    counts = {"ps_executes": 0, "ps_load_sum": 0}
    if args.profile:
        count_ps_calls(counts)
    sim, cluster, load, telemetry = build(spec, inputs)
    stamp("built")
    result = {"status": "setup", "attempted": len(inputs), "clock": clock}
    if args.setup_only:
        emit(result)
        return 0

    gc_timer = GcTimer()
    gc.callbacks.append(gc_timer)
    watchdog = Watchdog(sim)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    watchdog.start()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            rt = simulate(sim, load, telemetry)
        finally:
            if profiler is not None:
                profiler.disable()
    except KeyboardInterrupt:
        if watchdog.fired is None:
            raise
        stamp("sim_end")
        result.update(status="stall", stall=watchdog.fired)
        emit(result)
        return 3
    finally:
        watchdog.stop()
        gc.callbacks.remove(gc_timer)
    stamp("sim_end")
    if telemetry is None:
        responses, lag = load.responses(), 0.0
    else:
        rt, lag = from_schedule(load)
        responses = load.responses

    result["status"] = "ok"
    result["outputs"] = outputs_of(sim, cluster, rt, responses)
    result["counts"] = {
        "events": sim.ticks,
        "net_bytes": cluster.network.bytes_sent,
        "dir_lookups": sum(s.cacher.directory.lookups for s in cluster.servers),
        "windows": len(telemetry.windows) if telemetry is not None else 0,
        "generator_lag_s": lag,
        "gc_s": gc_timer.seconds,
        "gc_collections": gc_timer.collections,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if profiler is not None:
        result["counts"].update(counts)
        import pstats

        self_s = {}
        for (filename, _, _), row in pstats.Stats(profiler).stats.items():
            self_s[filename] = self_s.get(filename, 0.0) + row[2]
        result["profile"] = self_s
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
