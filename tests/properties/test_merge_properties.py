"""Property tests (hypothesis) for the telemetry merge algebra.

A ``--jobs`` run observes through per-worker collectors and folds their
snapshots back into one artifact, so the fold itself must be an honest
aggregation: counters add exactly, time-weighted integrals partition
across the collectors ("shards" below) that split a workload, and the
result is associative and insensitive to the order shards are folded in
wherever the export sorts.  These tests pin that algebra down on
adversarial splits of one workload; the end-to-end serial ==
merged(workers) comparisons on real sweeps live in
``tests/obs/test_merge_e2e.py`` and CI's ``repro diff`` gates.

All observations here are dyadic rationals (integers over a power of
two), so every expected aggregate — sums, bucket counts, busy
integrals — is exact in double precision and the properties can assert
equality rather than closeness.  Real runs observe arbitrary floats,
where fold-order reassociation can move a sum by ~1e-10; that lives
below the ``repro diff`` abs threshold of 1e-9 and is documented in
docs/observability.md.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    ResourceProbe,
    ResourceProfiler,
    SLO,
    StreamingTelemetry,
    TimeSeriesLog,
)

# --------------------------------------------------------------------------
# Registry: counters and histograms add; the fold is associative and
# shard-order-insensitive.
# --------------------------------------------------------------------------

METRIC_NAMES = ("requests_total", "hits_total")
LABEL_VALUES = ("swala0", "swala1", "swala2")
BUCKETS = (1.0, 5.0, 25.0)


@st.composite
def counter_workload(draw):
    """Labelled increments, each assigned to a shard, plus a fold order."""
    n_shards = draw(st.integers(min_value=2, max_value=4))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(METRIC_NAMES),
            st.sampled_from(LABEL_VALUES),
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=0, max_value=n_shards - 1),
        ),
        min_size=1, max_size=60,
    ))
    order = draw(st.permutations(list(range(n_shards))))
    return n_shards, ops, order


def _counter_values(registry):
    """Metric → labelkey → value, ignoring series/registration order."""
    return {
        m["name"]: {tuple(s["key"]): s["value"] for s in m["series"]}
        for m in registry.snapshot()["metrics"]
    }


def _apply(registry, ops, shard=None):
    for name, label, amount, owner in ops:
        if shard is not None and owner != shard:
            continue
        registry.counter(name, "c", ("node",)).labels(node=label).inc(amount)


class TestRegistryMerge:
    @given(counter_workload())
    @settings(max_examples=40, deadline=None)
    def test_counters_shard_order_insensitive_and_exact(self, workload):
        n_shards, ops, order = workload
        serial = MetricsRegistry()
        _apply(serial, ops)
        snaps = []
        for shard in range(n_shards):
            reg = MetricsRegistry()
            _apply(reg, ops, shard=shard)
            snaps.append(reg.snapshot())
        merged = MetricsRegistry()
        merged.merge([snaps[shard] for shard in order])
        assert _counter_values(merged) == _counter_values(serial)

    @given(counter_workload())
    @settings(max_examples=25, deadline=None)
    def test_counter_merge_is_associative(self, workload):
        n_shards, ops, _ = workload
        snaps = []
        for shard in range(n_shards):
            reg = MetricsRegistry()
            _apply(reg, ops, shard=shard)
            snaps.append(reg.snapshot())
        left = MetricsRegistry()  # ((s0 + s1) + s2) + ...
        for snap in snaps:
            left.merge([snap])
        rest = MetricsRegistry()  # s0 + (s1 + s2 + ...)
        rest.merge(snaps[1:])
        right = MetricsRegistry()
        right.merge([snaps[0], rest.snapshot()])
        assert _counter_values(right) == _counter_values(left)

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=50),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=80,
    ), st.permutations([0, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_histogram_buckets_counts_and_sums_exact(self, obs, order):
        serial = MetricsRegistry()
        hist = serial.histogram("latency", "h", buckets=BUCKETS)
        for value, _ in obs:
            hist.observe(float(value))
        snaps = []
        for shard in range(3):
            reg = MetricsRegistry()
            h = reg.histogram("latency", "h", buckets=BUCKETS)
            for value, owner in obs:
                if owner == shard:
                    h.observe(float(value))
            snaps.append(reg.snapshot())
        merged = MetricsRegistry()
        merged.merge([snaps[shard] for shard in order])
        got = merged.snapshot()["metrics"][0]["series"]
        want = serial.snapshot()["metrics"][0]["series"]
        assert got == want  # integer-valued: counts, count AND sum exact
        merged.self_check()  # still promtool-consistent after the fold


# --------------------------------------------------------------------------
# Profiler: a probe's time-weighted busy integral partitions exactly
# across the shards that held the tokens, provided every shard freezes
# at the same horizon.
# --------------------------------------------------------------------------

class _FakeSim:
    """Just enough simulator for a ResourceProbe: a clock and a label."""

    def __init__(self):
        self.now = 0.0

    def current_label(self) -> str:
        return "client0"


@st.composite
def token_holds(draw):
    """(start, duration, shard) holds, dyadic so integrals are exact."""
    n_shards = draw(st.integers(min_value=2, max_value=4))
    holds = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),   # start, quarters
            st.integers(min_value=1, max_value=100),   # duration, quarters
            st.integers(min_value=0, max_value=n_shards - 1),
        ),
        min_size=1, max_size=40,
    ))
    return n_shards, holds


def _play(probe, sim, holds):
    """Drive acquire/release pairs through the probe in time order."""
    tokens = [object() for _ in holds]
    events = []
    for i, (start, dur, _) in enumerate(holds):
        events.append((start / 4.0, 0, i))             # acquire
        events.append(((start + dur) / 4.0, 1, i))     # release
    for t, kind, i in sorted(events):
        sim.now = t
        if kind == 0:
            probe.acquire(tokens[i])
        else:
            probe.release(tokens[i])


class TestProfilerMerge:
    @given(token_holds())
    @settings(max_examples=40, deadline=None)
    def test_busy_integral_adds_up_across_shards(self, workload):
        n_shards, holds = workload
        horizon = max((s + d) / 4.0 for s, d, _ in holds) + 1.0

        sim = _FakeSim()
        serial = ResourceProbe(sim, "disk", "resource", capacity=4)
        _play(serial, sim, holds)
        sim.now = horizon
        serial.finalize()

        shards = []
        for shard in range(n_shards):
            ssim = _FakeSim()
            probe = ResourceProbe(ssim, "disk", "resource", capacity=4)
            _play(probe, ssim, [h for h in holds if h[2] == shard])
            ssim.now = horizon
            probe.finalize()
            shards.append(probe)

        # The busy integral is additive over shards; the occupancy
        # histogram on EVERY probe accounts for the full [0, horizon]
        # window because all of them froze at the shared horizon.
        assert sum(p.busy_time for p in shards) == serial.busy_time
        assert sum(serial.busy_occupancy.values()) == horizon
        for probe in shards:
            assert sum(probe.busy_occupancy.values()) == horizon
        assert sum(p.requests for p in shards) == serial.requests
        assert sum(p.completions for p in shards) == serial.completions
        assert sum(p.holds.total for p in shards) == serial.holds.total

    @given(token_holds(), st.permutations([0, 1]))
    @settings(max_examples=25, deadline=None)
    def test_merge_snapshot_is_shard_order_insensitive(self, workload, order):
        """to_dict() sorts resources by (run, kind, name), so folding the
        same shard snapshots in either order exports identically."""
        _, holds = workload
        horizon = max((s + d) / 4.0 for s, d, _ in holds) + 1.0
        snaps = []
        for shard in range(2):
            sim = _FakeSim()
            probe = ResourceProbe(
                sim, f"disk{shard}", "resource", capacity=4, run=1
            )
            _play(probe, sim, [h for h in holds if h[2] % 2 == shard])
            sim.now = horizon
            probe.finalize()
            snaps.append({
                "run": 1, "dropped": 0, "resources": [probe.to_dict()],
                "locks": [], "intervals": [], "intervals_dropped": 0,
            })
        forward = ResourceProfiler()
        forward.merge(snaps)
        backward = ResourceProfiler()
        backward.merge([snaps[shard] for shard in order])
        assert backward.to_dict() == forward.to_dict()
        assert backward.resource_count() == 2


# --------------------------------------------------------------------------
# Streaming windows: same-index windows from different shards merge into
# the window a single global feed would have produced — counts, sums,
# extrema and per-outcome stats exactly (digests are sketch-path
# dependent and carry their own rank-error bound; see
# test_sketch_properties).
# --------------------------------------------------------------------------

OUTCOMES = ("local-cache", "remote-cache", "exec")


@st.composite
def latency_events(draw):
    """Time-ordered (t, outcome, latency, shard) completions."""
    n_shards = draw(st.integers(min_value=2, max_value=3))
    events = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=120),   # t, quarters
            st.sampled_from(OUTCOMES),
            st.integers(min_value=1, max_value=40),    # latency, quarters
            st.integers(min_value=0, max_value=n_shards - 1),
        ),
        min_size=1, max_size=100,
    ))
    events.sort(key=lambda e: e[0])
    order = draw(st.permutations(list(range(n_shards))))
    return n_shards, events, order


def _feed(telemetry, events, shard=None):
    telemetry.new_run()
    t_end = (max(e[0] for e in events) // 4) + 2.0
    for t, outcome, lat, owner in events:
        if shard is not None and owner != shard:
            continue
        telemetry.note_arrival(t / 4.0)
        telemetry.record(t / 4.0, "swala0", outcome, lat / 4.0)
    # Walk every shard to the same final window so the union of shard
    # windows covers exactly the indexes the global feed materialised.
    telemetry.advance(t_end)
    telemetry.finalize()


def _window_fields(telemetry):
    return {
        (w.run, w.index): (
            w.arrivals, w.completions, w.errors, w.hits, w.misses,
            w.latency_sum, w.latency_min, w.latency_max,
            {k: tuple(v) for k, v in w.by_outcome.items()},
        )
        for w in telemetry.windows
    }


class TestStreamingShardMerge:
    @given(latency_events())
    @settings(max_examples=30, deadline=None)
    def test_merged_windows_match_global_feed(self, workload):
        n_shards, events, order = workload
        serial = StreamingTelemetry(window=1.0)
        _feed(serial, events)
        snaps = []
        for shard in range(n_shards):
            tele = StreamingTelemetry(window=1.0)
            _feed(tele, events, shard=shard)
            snaps.append(tele.snapshot())
        merged = StreamingTelemetry(window=1.0)
        merged.merge([snaps[shard] for shard in order])
        assert _window_fields(merged) == _window_fields(serial)
        # Balanced arrivals/completions: every backlog, serial or
        # summed-over-shards, is zero.
        assert all(w.queue_depth == 0.0 for w in merged.windows)


@st.composite
def multi_run_feeds(draw):
    """Runs of (server count, requests); a request arrives at ``t`` and,
    unless it is left in the backlog, completes ``service`` later."""
    return draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.lists(st.tuples(
                st.integers(min_value=0, max_value=80),    # t, quarters
                st.integers(min_value=0, max_value=12),    # service, quarters
                st.sampled_from(OUTCOMES),
                st.booleans(),                             # completes
            ), min_size=1, max_size=40),
        ),
        min_size=2, max_size=4,
    ))


# Low enough that p99, rho and queue-growth signals all fire.
REPLAY_SLO = SLO(p99_latency=1.0, max_rho=0.5, max_queue_growth=1.0,
                 consecutive=2, warmup_windows=0)


class TestStreamingReplay:
    @given(multi_run_feeds())
    @settings(max_examples=40, deadline=None)
    def test_lone_snapshot_merge_reproduces_export(self, runs):
        """``--jobs`` merges each worker's snapshot alone into the
        parent: replaying it must reproduce the worker's export exactly,
        each run's rho settled against that run's server count."""
        assume(any(n_servers > 1 for n_servers, _ in runs))
        tele = StreamingTelemetry(window=1.0, slo=REPLAY_SLO)
        for n_servers, requests in runs:
            tele.new_run()
            tele.n_servers = n_servers
            events = []
            for t, service, outcome, completes in requests:
                events.append((t, 0, 0, outcome))
                if completes:
                    events.append((t + service, 1, service, outcome))
            for t, kind, service, outcome in sorted(events):
                if kind == 0:
                    tele.note_arrival(t / 4.0)
                else:
                    tele.record(t / 4.0, "swala0", outcome, service / 4.0)
        tele.finalize()
        assume(any(w.signals for w in tele.windows))
        merged = StreamingTelemetry(window=1.0, slo=REPLAY_SLO)
        merged.merge([tele.snapshot()])
        assert merged.to_jsonl() == tele.to_jsonl()
        assert merged.run == tele.run == len(runs)


# --------------------------------------------------------------------------
# Time series: shards that sample up to a shared horizon merge into the
# serial log, and the merge unions same-instant samples.
# --------------------------------------------------------------------------

@st.composite
def sample_grid(draw):
    n_shards = draw(st.integers(min_value=2, max_value=3))
    times = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=60),
        min_size=2, max_size=30, unique=True,
    )))
    values = draw(st.lists(
        st.integers(min_value=0, max_value=1000),
        min_size=len(times) * n_shards, max_size=len(times) * n_shards,
    ))
    horizon = draw(st.sampled_from(times))
    order = draw(st.permutations(list(range(n_shards))))
    return n_shards, times, values, float(horizon), order


class TestTimeSeriesShardMerge:
    @given(sample_grid())
    @settings(max_examples=40, deadline=None)
    def test_union_at_same_instant_and_horizon_trim(self, workload):
        n_shards, times, values, horizon, order = workload
        value_at = {
            (shard, t): float(values[i * n_shards + shard])
            for i, t in enumerate(times)
            for shard in range(n_shards)
        }
        # The serial sampler sees every series at each tick, up to the
        # run's end; shard samplers see only their own series.
        serial = TimeSeriesLog()
        serial.new_run()
        for t in times:
            if t <= horizon:
                serial.record(float(t), {
                    f"node{shard}": value_at[(shard, t)]
                    for shard in range(n_shards)
                })
        snaps = []
        for shard in range(n_shards):
            log = TimeSeriesLog()
            log.new_run()
            for t in times:
                if t <= horizon:
                    log.record(
                        float(t), {f"node{shard}": value_at[(shard, t)]}
                    )
            snaps.append(log.snapshot())
        merged = TimeSeriesLog()
        merged.merge([snaps[shard] for shard in order])
        assert merged.samples == serial.samples
        assert merged.run == serial.run == 1
