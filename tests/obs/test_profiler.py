"""Unit + integration tests for the resource profiler.

Covers exact accounting on hand-built simulations (Resource, Store,
ProcessorSharing, pool probes), the Little's-law cross-check on an
M/M/1-style workload, zero-perturbation (profiler on/off identical
stats), same-seed byte-identical exports, and the report renderers.
"""

import json
import math

import pytest

from repro.experiments.common import RunObserver, observe_runs, run_cluster_trace
from repro.core import CacheMode
from repro.obs import (
    ResourceProfiler,
    little_check,
    load_profile,
    render_bottlenecks,
    render_profile_report,
    render_resources,
)
from repro.obs.profiler import _provenance_label, node_of
from repro.sim import ProcessorSharing, Resource, Simulator, Store
from repro.workload import zipf_cgi_trace


# -- helpers -----------------------------------------------------------------

def probe_of(profiler, name):
    return next(p for p in profiler.probes if p.name == name)


# -- provenance / naming -----------------------------------------------------

def test_provenance_label_strips_instance_digits():
    assert _provenance_label("swala0.rt3") == "swala0.rt"
    assert _provenance_label("xmit-121") == "xmit"
    assert _provenance_label("warmer") == "warmer"
    assert _provenance_label("") == "(callback)"


def test_node_of():
    assert node_of("swala0.cpu") == "swala0"
    assert node_of("client1:http") == "client1"
    assert node_of("bare") == "bare"


def test_autoname_fallback_for_unnamed_primitives():
    sim = Simulator()
    assert Resource(sim).name == "res0"
    assert Resource(sim).name == "res1"
    assert Store(sim).name == "store0"
    assert ProcessorSharing(sim).name == "cpu0"
    # Explicit names are untouched.
    assert Resource(sim, name="srv.nic").name == "srv.nic"


# -- Resource accounting -----------------------------------------------------

def test_resource_probe_exact_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="n0.dev")
    profiler = ResourceProfiler()
    profiler.instrument(res)

    def holder():
        req = res.request()  # t=0, immediate grant
        yield req
        yield sim.timeout(2.0)
        res.release(req)

    def waiter():
        yield sim.timeout(1.0)
        req = res.request()  # t=1, queued behind holder
        yield req            # granted at t=2
        yield sim.timeout(3.0)
        res.release(req)     # t=5

    sim.process(holder(), name="holder1")
    sim.process(waiter(), name="waiter1")
    sim.run()
    profiler.finalize()

    probe = probe_of(profiler, "n0.dev")
    assert probe.requests == 2
    assert probe.contended == 1
    assert probe.completions == 2
    assert probe.cancelled == 0
    # Busy 0..5 continuously; queued 1..2.
    assert probe.busy_time == pytest.approx(5.0)
    assert probe.queue_time == pytest.approx(1.0)
    assert probe.busy_occupancy[1] == pytest.approx(5.0)
    assert probe.queue_occupancy.get(1, 0.0) == pytest.approx(1.0)
    # Waits: 0 (holder) and 1.0 (waiter); holds: 2.0 and 3.0.
    assert probe.waits.count == 2
    assert probe.waits.total == pytest.approx(1.0)
    assert probe.holds.total == pytest.approx(5.0)
    assert probe.provenance == {"holder": 1, "waiter": 1}

    entry = probe.to_dict()
    check = little_check(entry)
    # L = λ·W: 2 completions / 5s * (0.5 + 2.5) mean seconds = 1.2;
    # measured (5 + 1) / 5 = 1.2.
    assert check["L"] == pytest.approx(check["L_measured"])


def test_resource_probe_try_acquire_and_cancel():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="dev")
    profiler = ResourceProfiler()
    profiler.instrument(res)

    token = res.try_acquire()
    assert token is not None
    queued = res.request()          # contended
    res.release(queued)             # cancel while waiting
    res.release(token)
    profiler.finalize()

    probe = probe_of(profiler, "dev")
    assert probe.requests == 2
    assert probe.contended == 1
    assert probe.cancelled == 1
    assert probe.completions == 1
    assert probe.in_service == 0 and probe.queued == 0


# -- Store accounting --------------------------------------------------------

def test_store_probe_residence_and_getter_wait():
    sim = Simulator()
    box = Store(sim, name="n0.box")
    profiler = ResourceProfiler()
    profiler.instrument(box)

    def producer():
        box.put("a")                 # t=0: buffered
        yield sim.timeout(3.0)
        box.put("b")                 # t=3: wakes the blocked getter

    def consumer():
        yield sim.timeout(1.0)
        first = yield box.get()      # t=1: takes "a" (residence 1.0)
        assert first == "a"
        second = yield box.get()     # blocks t=1..3
        assert second == "b"

    sim.process(producer(), name="prod")
    sim.process(consumer(), name="cons")
    sim.run()
    profiler.finalize()

    probe = probe_of(profiler, "n0.box")
    assert probe.requests == 2       # two puts
    assert probe.completions == 2    # two items consumed
    # Item "a" buffered 0..1 -> busy integral 1.0; getter blocked 1..3.
    assert probe.busy_time == pytest.approx(1.0)
    assert probe.queue_time == pytest.approx(2.0)
    assert probe.holds.total == pytest.approx(1.0)   # residence of "a"
    assert probe.waits.total == pytest.approx(2.0)   # getter wait for "b"
    assert probe.provenance == {"prod": 2}


def test_store_probe_cancelled_getter():
    sim = Simulator()
    box = Store(sim, name="box")
    profiler = ResourceProfiler()
    profiler.instrument(box)
    getter = box.get()
    assert box.cancel(getter) is True
    profiler.finalize()
    probe = probe_of(profiler, "box")
    assert probe.cancelled == 1 and probe.queued == 0


# -- ProcessorSharing accounting --------------------------------------------

def test_ps_probe_sojourn_and_littles_law_deterministic():
    sim = Simulator()
    cpu = ProcessorSharing(sim, ncpus=1, name="n0.cpu")
    profiler = ResourceProfiler()
    profiler.instrument(cpu)

    def job(delay, demand):
        yield sim.timeout(delay)
        yield cpu.execute(demand)

    # Two overlapping unit jobs: both run 1..2 at rate 1/2, etc.
    sim.process(job(0.0, 2.0), name="j1")
    sim.process(job(1.0, 1.0), name="j2")
    sim.run()
    profiler.finalize()

    probe = probe_of(profiler, "n0.cpu")
    assert probe.requests == 2 and probe.completions == 2
    assert probe.contended == 1  # second job arrived while busy
    # Jobs-in-system integral: 1 job 0..1, 2 jobs 1..3 -> 5.0 over 3s.
    assert probe.busy_time == pytest.approx(5.0)
    assert probe.cpu_busy_time == pytest.approx(3.0)  # true CPU busy 0..3
    entry = probe.to_dict()
    check = little_check(entry)
    assert check["L_measured"] == pytest.approx(5.0 / 3.0)
    assert check["L"] == pytest.approx(check["L_measured"], abs=1e-9)
    assert entry["utilization"] == pytest.approx(1.0)


def test_littles_law_on_mm1_style_workload():
    """Poisson-ish arrivals into a single PS CPU: λ·W must equal the
    measured time-average number in system (over the full busy horizon).
    """
    import random

    rng = random.Random(42)
    sim = Simulator()
    cpu = ProcessorSharing(sim, ncpus=1, name="mm1.cpu")
    profiler = ResourceProfiler()
    profiler.instrument(cpu)

    t = 0.0
    arrivals = []
    for _ in range(400):
        t += rng.expovariate(0.7)          # λ ≈ 0.7/s
        arrivals.append((t, rng.expovariate(2.0)))  # mean demand 0.5s

    def job(delay, demand):
        yield sim.timeout(delay)
        yield cpu.execute(demand)

    for i, (delay, demand) in enumerate(arrivals):
        sim.process(job(delay, demand), name=f"mm1job{i}")
    sim.run()
    profiler.finalize()

    probe = probe_of(profiler, "mm1.cpu")
    assert probe.completions == 400
    check = little_check(probe.to_dict())
    # The run ends when the last job drains, so there are no in-flight
    # end-effects and the identity holds to float precision.
    assert check["L"] == pytest.approx(check["L_measured"], rel=1e-9)
    assert check["L"] > 0.1  # non-trivial load


# -- pool probes -------------------------------------------------------------

def test_pool_probe_busy_occupancy():
    sim = Simulator()
    profiler = ResourceProfiler()
    probe = profiler.make_probe(sim, "srv.pool", "pool", capacity=2)

    def worker(delay, busy):
        yield sim.timeout(delay)
        started = probe.busy_begin()
        yield sim.timeout(busy)
        probe.busy_end(started)

    sim.process(worker(0.0, 2.0), name="w1")
    sim.process(worker(1.0, 2.0), name="w2")
    sim.run()
    profiler.finalize()

    assert probe.completions == 2
    assert probe.holds.total == pytest.approx(4.0)
    # Concurrency: 1 busy 0..1, 2 busy 1..2, 1 busy 2..3.
    assert probe.busy_occupancy[1] == pytest.approx(2.0)
    assert probe.busy_occupancy[2] == pytest.approx(1.0)
    assert probe.to_dict()["utilization"] == pytest.approx(4.0 / (3.0 * 2))


def test_max_resources_cap_counts_dropped():
    sim = Simulator()
    profiler = ResourceProfiler(max_resources=1)
    assert profiler.instrument(Resource(sim, name="a")) is not None
    assert profiler.instrument(Resource(sim, name="b")) is None
    assert profiler.dropped == 1
    # Idempotent re-instrument of the probed one still works.
    first = profiler.probes[0]
    res_a = next(
        obj for obj in (profiler.probes[0].owner,) if obj is not None
    )
    assert profiler.instrument(res_a) is first


# -- end-to-end through a cluster run ---------------------------------------

def run_profiled_cluster(profiler=None):
    # Client threads and ad-hoc fetch-reply ports draw names from
    # process-global counters; reset them so back-to-back runs in one
    # process get identical resource *names* (behaviour is unaffected —
    # event ordering never consults names).
    import itertools

    from repro.clients import client as client_mod
    from repro.core import server as server_mod

    client_mod._client_ids = itertools.count()
    server_mod._adhoc_ports = itertools.count()
    trace = zipf_cgi_trace(60, 12, seed=5)
    observer = (
        RunObserver(profiler=profiler) if profiler is not None else None
    )
    with observe_runs(observer):
        times, cluster = run_cluster_trace(
            2, CacheMode.COOPERATIVE, trace, n_threads=4, n_hosts=1
        )
    return times, cluster


def test_cluster_profile_zero_perturbation():
    """Profiler on/off must not change simulated behaviour at all."""
    times_off, cluster_off = run_profiled_cluster(None)
    times_on, cluster_on = run_profiled_cluster(ResourceProfiler())
    assert times_on.count == times_off.count
    assert times_on.mean == times_off.mean  # bit-identical, not approx
    assert times_on.total == times_off.total
    s_on, s_off = cluster_on.stats(), cluster_off.stats()
    assert (s_on.hits, s_on.misses, s_on.false_hits) == (
        s_off.hits, s_off.misses, s_off.false_hits
    )


def test_cluster_profile_same_seed_byte_identical(tmp_path):
    profiler_a, profiler_b = ResourceProfiler(), ResourceProfiler()
    run_profiled_cluster(profiler_a)
    run_profiled_cluster(profiler_b)
    a = profiler_a.write(tmp_path / "a.json").read_text()
    b = profiler_b.write(tmp_path / "b.json").read_text()
    assert a == b
    json.loads(a)  # strict JSON (no bare NaN/Infinity tokens)


def test_cluster_profile_contents_and_report(tmp_path):
    profiler = ResourceProfiler()
    run_profiled_cluster(profiler)
    path = profiler.write(tmp_path / "profile.json")
    profile = load_profile(path)

    names = {e["name"] for e in profile["resources"]}
    # One probe per CPU, disk, NIC, pool, http mailbox per node.
    for node in ("swala0", "swala1"):
        for suffix in (".cpu", ".disk", ".nic", ".pool", ":http"):
            assert f"{node}{suffix}" in names, f"missing {node}{suffix}"
    # Directory RWLocks scraped.
    lock_names = {l["name"] for l in profile["locks"]}
    assert any("tbl[" in n or n.endswith(".dir") for n in lock_names)
    # The CPUs actually saw the CGI work.
    cpus = [e for e in profile["resources"] if e["kind"] == "cpu"]
    assert sum(e["completions"] for e in cpus) > 0
    # Renderers digest the real export.
    report = render_profile_report(profile)
    assert "Per-node bottlenecks" in report
    assert "swala0" in report
    assert render_bottlenecks(profile)
    assert render_resources(profile, top=5)


def test_tally_export_nan_free():
    profiler = ResourceProfiler()
    sim = Simulator()
    profiler.instrument(Resource(sim, name="idle"))
    profiler.finalize()
    text = profiler.to_json()
    assert "NaN" not in text and "Infinity" not in text
    entry = json.loads(text)["resources"][0]
    assert entry["wait"]["mean"] is None
    assert entry["wait"]["count"] == 0
