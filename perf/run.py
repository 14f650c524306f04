"""End-to-end benchmark of the simulator: host time to run four workloads.

The quantity measured is host time, the wall clock people wait for when
they run paper commands, grid cells and capacity probes.  Every rep runs
in a fresh child process (``perf/rep.py``), one at a time, and every
rep's simulated outputs are checked: a rep that stalls, times out or
produces wrong outputs counts all of its requests as failed.

Usage::

    python3 perf/run.py [--workload NAME ...] [--seed N] [--scale F]
                        [--reps N | --seconds S] [--out FILE]
        Full ledger: one discarded warm-up launch, then per workload the
        untraced reps and one traced rep; prints the end-to-end table and
        the per-layer table.  Exits 1 if any output check failed.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload; the last line of stdout is one JSON object with
        ``correct``, ``attempted``, ``failed`` and ``metrics``: the
        end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
        per-layer metrics with ``--trace 1``.

    python3 perf/run.py --agree A.json B.json
        Compare two ``--out`` files metric by metric against the bounds in
        BENCHMARK.json; exits 1 if any (metric, workload) pair fails.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
PKG = os.path.join(ROOT, "src", "repro")
REP = os.path.join(PERF, "rep.py")

WORKLOADS = {
    "coop_hot": {
        "load": "closed loop, 32 client threads on 4 hosts, 16 nodes",
        "timeout_s": 45,
        "spec": lambda s: {
            "input": "zipf", "requests": max(1, round(20_000 * s)),
            "distinct": 200, "zipf": 0.9, "cpu_mean": 0.2,
            "nodes": 16, "mode": "cooperative", "threads": 32, "hosts": 4},
    },
    "adl_nocache": {
        "load": "closed loop, 128 client threads on 2 hosts, 8 nodes",
        "timeout_s": 45,
        "spec": lambda s: {
            "input": "figure4", "scale": 2.0 * s,
            "nodes": 8, "mode": "none", "threads": 128, "hosts": 2},
    },
    "grid_broadcast": {
        "load": "closed loop, 64 client threads on 8 hosts, 64 nodes",
        "timeout_s": 60,
        "spec": lambda s: {
            "input": "grid", "mix": "webstone", "scale": s,
            "protocol": "broadcast",
            "nodes": 64, "mode": "cooperative", "threads": 64, "hosts": 8},
    },
    "open_probe": {
        "load": "open loop, Poisson 50 req/s for 300 sim-s, 16 nodes",
        "timeout_s": 45,
        "spec": lambda s: {
            "input": "arrivals", "distinct": 3000, "zipf": 1.0,
            "cpu_mean": 0.2, "rate": 50.0, "duration": 300.0 * s,
            "nodes": 16, "mode": "cooperative"},
    },
}

#: End-to-end metrics: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "req_per_s": ("req/s", "higher"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("fraction", "lower"),
}

#: Host self-time layers: the repo's modules, grouped as the engine,
#: resources, network, cache-protocol and collector layers they form.
LAYERS = [
    "sim.engine", "sim.queues", "sim.resources", "sim.sync", "sim.monitor",
    "net", "core.server", "core.cacher", "core.directory", "core.dirsync",
    "cache", "hosts", "servers", "clients", "workload", "obs",
    "repro.other", "bench", "other",
]

#: Traced reps pay cProfile's per-call cost.
TRACE_TIMEOUT_FACTOR = 1.75
#: Relative tolerance for expected float outputs.
FLOAT_RTOL = 1e-9

FLOAT_OUTPUTS = ("mean_rt", "p99_rt", "end_time")


class Rep:
    """One child launch: its status, clocks and reported result."""

    def __init__(self, status, attempted, launched, exited, result, detail=""):
        self.status = status
        self.attempted = attempted
        self.launched = launched
        self.exited = exited
        self.result = result
        self.detail = detail

    @property
    def ok(self):
        return self.status in ("ok", "setup")

    @property
    def clock(self):
        return self.result["clock"]

    @property
    def setup_s(self):
        return self.clock["built"] - self.launched

    @property
    def run_s(self):
        return self.clock["sim_end"] - self.clock["built"]

    def fail(self, detail):
        self.status = "wrong"
        self.detail = detail


def launch(spec, seed, timeout, profile=False, setup_only=False):
    """Run one rep in a fresh child process and wait for it to end."""
    cmd = [sys.executable, REP, json.dumps(spec), "--seed", str(seed)]
    if profile:
        cmd.append("--profile")
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        status = None
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        status = "timeout"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    exited = time.monotonic()
    attempted, result = 0, {}
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "status" in obj:
            result = obj
        elif "attempted" in obj:
            attempted = obj["attempted"]
    detail = ""
    if status is None:
        status = result.get("status", "error")
        if status == "stall":
            stall = result["stall"]
            detail = (f"clock stuck at t = {stall['now']:.3f} s after "
                      f"{stall['ticks']} events")
        elif proc.returncode != 0 or status == "error":
            status = "error"
            tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            detail = tail[0]
    else:
        detail = f"killed after {timeout:g} s"
    return Rep(status, attempted, launched, exited, result, detail)


# -- output checks ------------------------------------------------------------
def load_json(name):
    with open(os.path.join(PERF, name)) as fh:
        return json.load(fh)


def invariant_problems(out, spec, attempted):
    """Problems with one rep's outputs that hold for any seed and scale."""
    problems = []
    if not (out["requests"] == out["completed"] == attempted):
        problems.append(f"{attempted} attempted, {out['requests']} served, "
                        f"{out['completed']} completed")
    if out["not_ok"]:
        problems.append(f"{out['not_ok']} error responses")
    served = (out["files_served"] + out["uncacheable"] + out["local_hits"]
              + out["remote_hits"] + out["misses"])
    if served != out["requests"]:
        problems.append(f"outcomes sum to {served}, not {out['requests']}")
    if spec["mode"] == "none" and any(
            out[k] for k in ("local_hits", "remote_hits", "inserts", "dir_msgs")):
        problems.append("cache activity with caching off")
    if spec["mode"] == "cooperative" and spec.get("protocol", "broadcast") == "broadcast":
        # Every insert or delete goes to each of the other nodes.
        peers = spec["nodes"] - 1
        if out["dir_msgs"] % peers or out["dir_msgs"] < out["inserts"] * peers:
            problems.append(f"{out['dir_msgs']} dir msgs for {out['inserts']} "
                            f"inserts broadcast to {peers} peers")
    if out["net_messages"] < 2 * out["requests"]:
        problems.append("fewer LAN messages than requests and responses")
    for key in FLOAT_OUTPUTS:
        if not (math.isfinite(out[key]) and out[key] > 0):
            problems.append(f"{key} = {out[key]}")
    return problems


def expected_problems(out, want):
    """Mismatches against recorded outputs: counts exact, floats to 1e-9."""
    problems = []
    for key, value in want.items():
        got = out.get(key)
        if key in FLOAT_OUTPUTS:
            same = got is not None and math.isclose(got, value, rel_tol=FLOAT_RTOL)
        else:
            same = got == value
        if not same:
            problems.append(f"{key} = {got}, expected {value}")
    return problems


def check_reps(name, reps, spec, seed, scale, expected):
    """Mark every full rep whose outputs are wrong as failed."""
    good = [rep for rep in reps if rep.status == "ok"]
    want = expected.get(name, {}).get(str(seed)) if scale == 1.0 else None
    reference = expected.get("reference", {}).get(name)
    for rep in good:
        out = rep.result["outputs"]
        problems = invariant_problems(out, spec, rep.attempted)
        if want is not None:
            problems += expected_problems(out, want)
        if reference is not None and scale == 1.0 and seed == reference["seed"]:
            hits = out["local_hits"] + out["remote_hits"]
            row = {"dir_msgs": out["dir_msgs"],
                   "hit_ratio": round(hits / (hits + out["misses"]), 6),
                   "mean_rt": round(out["mean_rt"], 6)}
            problems += [f"{k} = {row[k]}, committed {reference[k]}"
                         for k in row if row[k] != reference[k]]
        # Reps of one (workload, seed, scale) must agree exactly, traced
        # or not: a difference means the simulation is not deterministic.
        if out != good[0].result["outputs"]:
            problems.append("outputs differ from the first rep's")
        if problems:
            rep.fail("; ".join(problems))


# -- measurement ---------------------------------------------------------------
def measure(name, seed, scale, reps=None, seconds=None):
    """Untraced reps: ``reps`` of them, or as many as fit in ``seconds``.

    A time-boxed run fits only a few reps, so there each rep is followed
    by a setup-only launch, which gives ``setup_s`` more samples.  Stops
    at the first failed launch: the workload has already failed.
    """
    work = WORKLOADS[name]
    spec = work["spec"](scale)
    full, setups = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        full.append(launch(spec, seed, work["timeout_s"]))
        if not full[-1].ok:
            break
        if seconds is None:
            if len(full) >= reps:
                break
            continue
        setups.append(launch(spec, seed, work["timeout_s"], setup_only=True))
        if not setups[-1].ok:
            break
        now = time.monotonic()
        if now - start + (now - began) / 2 >= seconds:
            break
    return full, setups


def traced(name, seed, scale):
    work = WORKLOADS[name]
    return launch(work["spec"](scale), seed,
                  work["timeout_s"] * TRACE_TIMEOUT_FACTOR, profile=True)


def summary(values):
    if not values:
        return {"median": None, "min": None, "max": None, "n": 0}
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def error_counts(reps):
    """(attempted, failed) requests over full reps; a failed rep fails all."""
    known = max([rep.attempted for rep in reps] + [1])
    attempted = failed = 0
    for rep in reps:
        n = rep.attempted or known
        attempted += n
        if rep.status != "ok":
            failed += n
    return attempted, failed


def end_to_end(full, setups):
    ok = [rep for rep in full if rep.status == "ok"]
    attempted, failed = error_counts(full)
    values = {
        "setup_s": [rep.setup_s for rep in ok + [s for s in setups if s.ok]],
        "req_per_s": [rep.result["outputs"]["completed"] / rep.run_s for rep in ok],
        "total_s": [rep.exited - rep.launched for rep in ok],
        "peak_rss_mb": [rep.result["counts"]["peak_rss_kb"] / 1024 for rep in ok],
    }
    metrics = {name: dict(summary(vals), unit=E2E[name][0])
               for name, vals in values.items()}
    metrics["error_rate"] = {"median": failed / attempted, "unit": "fraction",
                             "attempted": attempted, "failed": failed}
    return metrics


def layer_of(filename):
    """The layer a profiled source file belongs to."""
    if filename.startswith(PERF + os.sep):
        return "bench"
    if not filename.startswith(PKG + os.sep):
        return "other"
    parts = os.path.relpath(filename, PKG)[:-len(".py")].split(os.sep)
    dotted = ".".join(parts[:2])
    if dotted in LAYERS:
        return dotted
    return parts[0] if parts[0] in LAYERS else "repro.other"


def per_layer(trace_rep, untraced, setups):
    """Per-layer metrics: self time from the traced rep, the rest exact."""
    out = trace_rep.result["outputs"]
    counts = trace_rep.result["counts"]
    requests = out["requests"]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for filename, seconds in trace_rep.result["profile"].items():
        self_s[layer_of(filename)] += seconds
    profiled = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.self_frac"] = (self_s[layer] / profiled, "fraction")
    spans = [rep for rep in untraced + setups if rep.ok]
    clocks = [rep.clock for rep in spans]
    metrics["setup.import_s"] = (statistics.median(
        [c["imported"] - r.launched for c, r in zip(clocks, spans)]), "s")
    metrics["setup.input_s"] = (statistics.median(
        [c["input"] - c["imported"] for c in clocks]), "s")
    metrics["setup.build_s"] = (statistics.median(
        [c["built"] - c["input"] for c in clocks]), "s")
    hits = out["local_hits"] + out["remote_hits"]
    base = untraced[0].result["counts"]
    metrics.update({
        "sim.engine.events_per_req": (counts["events"] / requests, "1/req"),
        "sim.resources.ps_executes_per_req":
            (counts["ps_executes"] / requests, "1/req"),
        "sim.resources.ps_load_at_submit":
            (counts["ps_load_sum"] / max(1, counts["ps_executes"]), "jobs"),
        "net.msgs_per_req": (out["net_messages"] / requests, "1/req"),
        "net.bytes_per_req": (counts["net_bytes"] / requests, "B/req"),
        "core.dirsync.msgs_per_req": (out["dir_msgs"] / requests, "1/req"),
        "core.directory.lookups_per_req": (counts["dir_lookups"] / requests, "1/req"),
        "core.hit_ratio": (hits / max(1, hits + out["misses"]), "fraction"),
        # Wasted work, defined as the directory grid defines it: futile
        # remote fetches per lookup that had to execute, and duplicated
        # executions per request.
        "core.false_hit_frac": (out["false_hits"] / max(
            1, out["misses"] + out["false_hits"]), "fraction"),
        "core.false_miss_frac": (out["false_misses"] / requests, "fraction"),
        "py.gc_s": (statistics.median(
            [rep.result["counts"]["gc_s"] for rep in untraced]), "s"),
        "py.gc_collections": (base["gc_collections"], "count"),
        "obs.streaming.windows": (base["windows"], "count"),
        "clients.generator_lag_s": (base["generator_lag_s"], "s"),
        "trace.overhead": (trace_rep.run_s / statistics.median(
            [rep.run_s for rep in untraced]), "ratio"),
        "trace.profiled_frac": (profiled / trace_rep.run_s, "fraction"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run_workload(name, seed, scale, reps, seconds, trace, expected):
    """Measure one workload; returns its result record.

    ``trace`` is ``None`` for both halves, ``0`` for the untraced reps
    only and ``1`` for one untraced and one traced rep.
    """
    spec = WORKLOADS[name]["spec"](scale)
    if trace == 1:
        full, setups = measure(name, seed, scale, reps=1)
    else:
        full, setups = measure(name, seed, scale, reps, seconds)
    trace_rep = None
    if trace != 0 and all(rep.ok for rep in full + setups):
        trace_rep = traced(name, seed, scale)
    checked = full + ([trace_rep] if trace_rep is not None else [])
    check_reps(name, checked, spec, seed, scale, expected)
    failures = [f"{rep.status}: {rep.detail}" for rep in checked + setups
                if not rep.ok]
    attempted, failed = error_counts(checked)
    record = {
        "load": WORKLOADS[name]["load"],
        "spec": spec,
        "correct": not failures and (trace == 0 or trace_rep is not None),
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }
    if trace != 1:
        record["end_to_end"] = end_to_end(full, setups)
    ok_full = [rep for rep in full if rep.status == "ok"]
    if trace_rep is not None and trace_rep.status == "ok" and ok_full:
        record["layers"] = per_layer(trace_rep, ok_full, setups)
    if ok_full:
        record["outputs"] = ok_full[0].result["outputs"]
        record["events"] = ok_full[0].result["counts"]["events"]
    return record


# -- reporting -----------------------------------------------------------------
def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_end_to_end(name, record):
    print(f"\n{name}: {record['load']}")
    print(f"  {'metric':<12} {'unit':<9} {'median':>11} {'min':>11} "
          f"{'max':>11} {'n':>3}")
    for metric, row in record["end_to_end"].items():
        if metric == "error_rate":
            print(f"  {metric:<12} {row['unit']:<9} {fmt(row['median']):>11}"
                  f"   ({row['failed']} of {row['attempted']} requests failed)")
        else:
            print(f"  {metric:<12} {row['unit']:<9} {fmt(row['median']):>11} "
                  f"{fmt(row['min']):>11} {fmt(row['max']):>11} {row['n']:>3}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def print_layers(name, record):
    layers = record.get("layers")
    if not layers:
        print(f"\n{name}: no traced rep")
        return
    print(f"\n{name}: per-layer self time (traced rep) and counts")
    print(f"  {'layer':<16} {'self_s':>10} {'self_frac':>10}")
    for layer in LAYERS:
        print(f"  {layer:<16} {layers[layer + '.self_s']['value']:>10.4f} "
              f"{layers[layer + '.self_frac']['value']:>10.4f}")
    for metric, row in layers.items():
        if not metric.endswith((".self_s", ".self_frac")):
            print(f"  {metric:<36} {fmt(row['value']):>12} {row['unit']}")


def contract_line(record, trace, declared):
    """The one-line JSON result: declared metrics only."""
    if trace == 0:
        e2e = record["end_to_end"]
        metrics = {name: {"value": e2e[name]["median"], "unit": e2e[name]["unit"]}
                   for name in declared["end_to_end"] if e2e[name]["n"]}
    else:
        layers = record.get("layers", {})
        metrics = {name: layers[name] for name in declared["per_layer"]
                   if name in layers}
    return json.dumps({"correct": record["correct"],
                       "attempted": max(1, record["attempted"]),
                       "failed": record["failed"], "metrics": metrics})


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": [m["name"] for m in bench["end_to_end"]],
            "per_layer": [m["name"] for m in bench["per_layer"]],
            "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]}}


# -- agreement ------------------------------------------------------------------
def agree(path_a, path_b, bounds):
    """Print one verdict per (metric, workload); True if all pass."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bounds = dict(bounds, error_rate=0.0)
    print(f"A = {path_a} (seed {a['seed']}, {a['reps']} reps)")
    print(f"B = {path_b} (seed {b['seed']}, {b['reps']} reps)")
    print(f"{'metric':<12} {'workload':<15} {'A median':>11} {'B median':>11} "
          f"{'diff':>11} {'bound':>7}  verdict")
    passed = True
    for metric, (unit, better) in E2E.items():
        for name in WORKLOADS:
            try:
                ma = a["workloads"][name]["end_to_end"][metric]["median"]
                mb = b["workloads"][name]["end_to_end"][metric]["median"]
            except KeyError:
                continue
            bound = bounds[metric]
            if ma is None or mb is None:
                ok = False
            elif metric == "error_rate":
                ok = mb <= ma  # absolute: any new failure is a regression
            else:
                worse = (mb - ma) if better == "lower" else (ma - mb)
                ok = worse <= bound * abs(ma)
            diff = None if ma is None or mb is None else mb - ma
            bound_text = "0 abs" if metric == "error_rate" else f"{bound:.0%}"
            print(f"{metric:<12} {name:<15} {fmt(ma):>11} {fmt(mb):>11} "
                  f"{fmt(diff):>11} {bound_text:>7}  {'PASS' if ok else 'FAIL'}")
            passed &= ok
    return passed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's size (expected "
                             "outputs are checked at 1.0 only)")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced reps per workload (default 3)")
    parser.add_argument("--seconds", type=float,
                        help="run untraced reps for this long instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer "
                             "metrics only; print them as one JSON line")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)
    # Terminate like an interrupt, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        print(f"run: no simulator source at {PKG}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    if args.agree:
        return 0 if agree(*args.agree, declared["bounds"]) else 1
    names = args.workload or list(WORKLOADS)
    if args.trace is not None and len(names) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    expected = load_json("expected.json")

    # Warm the OS caches and the interpreter's imports once; discarded.
    first = WORKLOADS[names[0]]
    launch(first["spec"](args.scale), args.seed, first["timeout_s"],
           setup_only=True)
    records = {}
    for name in names:
        record = run_workload(name, args.seed, args.scale, args.reps,
                              args.seconds, args.trace, expected)
        records[name] = record
        if args.trace != 1:
            print_end_to_end(name, record)
        if args.trace != 0:
            print_layers(name, record)
    correct = all(record["correct"] for record in records.values())
    if args.out:
        document = {
            "schema": "perf-run-v1",
            "seed": args.seed,
            "scale": args.scale,
            "reps": args.reps if args.seconds is None else None,
            "seconds": args.seconds,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "correct": correct,
            "workloads": records,
        }
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.trace is not None:
        print(contract_line(records[names[0]], args.trace, declared))
    else:
        print(f"\n{'PASS' if correct else 'FAIL'}: "
              f"{sum(r['failed'] for r in records.values())} of "
              f"{sum(r['attempted'] for r in records.values())} requests failed")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
