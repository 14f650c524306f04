"""The one-pass processor-sharing update is bit-identical to the two-pass one.

``tests/sim/reference_ps.py`` is the CPU whose update walked the jobs
twice (advance, then the least remaining demand) and scheduled each
wake-up through a fresh closure.  Both run the same job streams here,
on separate simulators, and every double must be equal: completion
instants, sojourn times, mid-run busy-time projections, ``busy_time``
and ``total_demand_served``, and the number of wake-ups, stale ones
included.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import ProcessorSharing, Simulator
from repro.sim.resources import _EPS
from tests.sim.reference_ps import ReferencePS

#: Tied instants and equal demands come from the sampled values; demands
#: at or below ``_EPS`` complete on submission.
INSTANTS = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0]),
                     st.floats(0.0, 5.0))
DEMANDS = st.one_of(
    st.sampled_from([0.0, 1e-13, _EPS, 2 * _EPS, 0.25, 0.5, 1.0, 1.0, 3.0]),
    st.floats(0.0, 4.0))

#: One job stream: per thread, its arrival and the CPU bursts it submits
#: back to back (the next burst at the instant the last one completes).
THREADS = st.lists(st.tuples(INSTANTS, st.lists(DEMANDS, min_size=1, max_size=3)),
                   min_size=1, max_size=12)


class _CountingPS(ProcessorSharing):
    wakeups = 0

    def _on_wakeup(self, timeout):
        self.wakeups += 1
        super()._on_wakeup(timeout)


class _CountingReference(ReferencePS):
    wakeups = 0

    def _on_wakeup(self, version):
        self.wakeups += 1
        super()._on_wakeup(version)


def drive(make_cpu, ncpus, threads, reads):
    sim = Simulator()
    cpu = make_cpu(sim, ncpus)
    log = []

    def thread(i, at, bursts):
        yield sim.timeout(at)
        for demand in bursts:
            sojourn = yield cpu.execute(demand)
            log.append(("done", i, sim.now, sojourn))

    def reader(at):
        yield sim.timeout(at)
        log.append(("read", sim.now, cpu.projected_busy_time(), cpu.utilization()))

    for i, (at, bursts) in enumerate(threads):
        sim.process(thread(i, at, bursts))
    for at in reads:
        sim.process(reader(at))
    sim.run()
    return log, cpu.busy_time, cpu.total_demand_served, cpu.wakeups, sim.ticks


@given(ncpus=st.integers(1, 4), threads=THREADS,
       reads=st.lists(INSTANTS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_fused_update_matches_two_pass_reference(ncpus, threads, reads):
    fused = drive(_CountingPS, ncpus, threads, reads)
    reference = drive(_CountingReference, ncpus, threads, reads)
    assert fused == reference
