"""The same-instant lane keeps the single heap's pop order.

:class:`repro.sim.Simulator` keeps NORMAL events due at ``now`` in a
FIFO lane beside its heap.  ``tests/sim/heap_engine.py`` is the engine
as one heap of ``(time, priority, sequence, event)``.  Both engines run
the same random programs here, and every callback must see the same
``ticks`` and ``now``, in the same order.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Interrupt, Simulator
from tests.sim.heap_engine import HeapSimulator

N_EVENTS = 4

#: 1e-12 is below half an ulp of ``now`` once ``now >= 16384``, so there
#: ``now + 1e-12 == now`` and the timeout is due at the current instant.
DELAYS = st.sampled_from([0.0, 0.0, 1e-12, 0.5, 1.0, 2.0])
EVENT = st.integers(0, N_EVENTS - 1)

OP = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("wait"), EVENT),
    st.tuples(st.just("succeed"), EVENT),
    st.tuples(st.just("fail"), EVENT),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("callback"), DELAYS, EVENT, st.booleans()),
)

DRIVE = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("until_now")),
    st.tuples(st.just("until_later"), DELAYS),
    st.tuples(st.just("until_event"), EVENT),
)

PROGRAM = st.fixed_dictionaries({
    "epoch": st.sampled_from([0.0, 16384.0, 2.0 ** 20]),
    "scripts": st.lists(st.lists(OP, max_size=6), min_size=1, max_size=4),
    "drive": st.lists(DRIVE, max_size=5),
})


def execute(sim, program):
    """Run ``program`` on ``sim``; return its callback log."""
    log = []
    scripts = program["scripts"]
    events = [sim.event() for _ in range(N_EVENTS)]
    procs = []

    def note(*what):
        # Exceptions compare by identity: log their type and message.
        log.append((sim.ticks, sim.now) + tuple(
            (type(w).__name__, str(w)) if isinstance(w, BaseException) else w
            for w in what))

    def fire(k, ok, label):
        event = events[k]
        if not event.triggered:
            if ok:
                event.succeed(label)
            else:
                event.fail(ValueError(label))

    def on_timeout(k, ok, label):
        def callback(_event):
            note("callback", label)
            fire(k, ok, label)
        return callback

    def body(name, script, depth):
        for j, op in enumerate(script):
            kind = op[0]
            label = f"{name}.{j}"
            value = None
            try:
                if kind == "timeout":
                    value = yield sim.timeout(op[1], label)
                elif kind == "wait":
                    value = yield events[op[1]]
                elif kind == "succeed" or kind == "fail":
                    fire(op[1], kind == "succeed", label)
                elif kind == "spawn":
                    if depth < 2:
                        start(scripts[op[1] % len(scripts)], depth + 1)
                elif kind == "interrupt":
                    if op[1] < len(procs):
                        target = procs[op[1]]
                        if target.is_alive and target is not sim.active_process:
                            target.interrupt(label)
                else:
                    sim.timeout(op[1]).callbacks.append(
                        on_timeout(op[2], op[3], label))
                note(label, kind, value)
            except Interrupt as exc:
                note(label, "interrupted", exc.cause)
            except ValueError as exc:
                note(label, "failed", str(exc))
        note(name, "end")

    def start(script, depth):
        name = f"p{len(procs)}"
        procs.append(sim.process(body(name, script, depth), name))

    def guarded(action):
        try:
            note("returned", action())
        except Exception as exc:
            # Unhandled event failures, a drained queue under step(), or
            # an ``until`` event that never fires.
            note("raised", type(exc).__name__)

    guarded(lambda: sim.run(until=program["epoch"]))
    for script in scripts:
        start(script, 0)
    for op in program["drive"]:
        kind = op[0]
        if kind == "step":
            for _ in range(op[1]):
                note("peek", sim.peek())
                guarded(sim.step)
        elif kind == "until_now":
            guarded(lambda: sim.run(until=sim.now))
        elif kind == "until_later":
            guarded(lambda: sim.run(until=sim.now + op[1]))
        else:
            guarded(lambda: sim.run(until=events[op[1]]))
    for _ in range(2 * N_EVENTS + 2):
        guarded(sim.run)
    note("peek", sim.peek())
    return log


@given(program=PROGRAM)
@settings(max_examples=300, deadline=None)
def test_lane_pops_in_single_heap_order(program):
    sim, heap_sim = Simulator(), HeapSimulator()
    assert execute(sim, program) == execute(heap_sim, program)
    assert (sim.ticks, sim.now) == (heap_sim.ticks, heap_sim.now)


def test_sub_ulp_wakeup_stays_at_now():
    """Past t = 16384 a 1e-12 delay lands at ``now``: the lane holds it,
    and ``peek`` reports the current instant."""
    sim = Simulator()
    sim.run(until=16384.0)
    fired = []
    sim.timeout(1e-12).callbacks.append(lambda e: fired.append(sim.now))
    assert sim.peek() == 16384.0
    sim.run()
    assert fired == [16384.0]


def test_process_started_mid_instant_runs_before_lane():
    """A process started at ``now`` (URGENT) runs before NORMAL events
    already waiting in the lane, as in the single heap."""
    sim = Simulator()
    order = []

    def child():
        order.append("child")
        yield sim.timeout(0)

    def parent():
        event = sim.event()
        event.callbacks.append(lambda e: order.append("event"))
        event.succeed()
        sim.process(child())
        yield sim.timeout(0)

    sim.process(parent())
    sim.run()
    assert order == ["child", "event"]
