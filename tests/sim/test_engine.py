"""Unit tests for the discrete-event engine core."""

import gc
import weakref

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Simulator, StopSimulation, Store


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(3.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [3.5]

    def test_timeout_value_is_delivered(self, sim):
        results = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == ["payload"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_runs_at_current_time(self, sim):
        times = []

        def proc():
            yield sim.timeout(0)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [0.0]

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc():
            for delay in (1, 2, 3):
                yield sim.timeout(delay)
                times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [1, 3, 6]


class TestEventOrdering:
    def test_fifo_among_simultaneous_events(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_earlier_timeout_runs_first_regardless_of_creation_order(self, sim):
        order = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc("late", 10))
        sim.process(proc("early", 1))
        sim.run()
        assert order == ["early", "late"]


class TestRunUntil:
    def test_run_until_time_stops_clock_there(self, sim):
        def proc():
            while True:
                yield sim.timeout(1)

        sim.process(proc())
        sim.run(until=4.5)
        assert sim.now == 4.5

    def test_run_until_time_excludes_events_after(self, sim):
        fired = []

        def proc():
            yield sim.timeout(10)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5)
        assert fired == []

    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(2)
            return 42

        result = sim.run(until=sim.process(proc()))
        assert result == 42
        assert sim.now == 2

    def test_run_until_past_time_rejected(self, sim):
        def proc():
            yield sim.timeout(10)

        sim.process(proc())
        sim.run(until=8)
        with pytest.raises(ValueError):
            sim.run(until=3)

    def test_run_until_event_that_never_fires_raises(self, sim):
        orphan = sim.event()
        with pytest.raises(RuntimeError):
            sim.run(until=orphan)

    def test_run_drains_queue_without_until(self, sim):
        def proc():
            yield sim.timeout(7)

        sim.process(proc())
        sim.run()
        assert sim.now == 7
        assert sim.peek() == float("inf")


class TestBareEvents:
    def test_succeed_wakes_waiter_with_value(self, sim):
        gate = sim.event()
        got = []

        def waiter():
            value = yield gate
            got.append((sim.now, value))

        def trigger():
            yield sim.timeout(3)
            gate.succeed("go")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == [(3, "go")]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()
        with pytest.raises(RuntimeError):
            event.fail(ValueError())

    def test_fail_raises_in_waiting_process(self, sim):
        gate = sim.event()
        caught = []

        def waiter():
            try:
                yield gate
            except ValueError as exc:
                caught.append(str(exc))

        def trigger():
            yield sim.timeout(1)
            gate.fail(ValueError("boom"))

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failure_propagates_to_run(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("unhandled")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_yield_non_event_is_an_error(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(RuntimeError, match="non-event"):
            sim.run()


class TestProcesses:
    def test_process_event_fires_on_return(self, sim):
        def child():
            yield sim.timeout(4)
            return "done"

        results = []

        def parent():
            value = yield sim.process(child())
            results.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert results == [(4, "done")]

    def test_is_alive_transitions(self, sim):
        def child():
            yield sim.timeout(1)

        proc = sim.process(child())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_waiting_on_finished_process_returns_immediately(self, sim):
        def child():
            yield sim.timeout(1)
            return 99

        child_proc = sim.process(child())
        results = []

        def parent():
            yield sim.timeout(5)
            value = yield child_proc  # already finished
            results.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert results == [(5, 99)]

    def test_exception_in_child_propagates_to_joining_parent(self, sim):
        def child():
            yield sim.timeout(1)
            raise KeyError("inner")

        caught = []

        def parent():
            try:
                yield sim.process(child())
            except KeyError:
                caught.append(sim.now)

        sim.process(parent())
        sim.run()
        assert caught == [1]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)


class TestInterrupts:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as exc:
                causes.append((sim.now, exc.cause))

        def attacker(target):
            yield sim.timeout(3)
            target.interrupt(cause="stop it")

        target = sim.process(victim())
        sim.process(attacker(target))
        sim.run()
        assert causes == [(3, "stop it")]

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(2)
            log.append(sim.now)

        def attacker(target):
            yield sim.timeout(1)
            target.interrupt()

        sim.process(attacker(sim.process(victim())))
        sim.run()
        assert log == [3]

    def test_interrupt_dead_process_rejected(self, sim):
        def victim():
            yield sim.timeout(1)

        target = sim.process(victim())
        sim.run()
        with pytest.raises(RuntimeError):
            target.interrupt()


class TestConditions:
    def test_all_of_waits_for_slowest(self, sim):
        times = []

        def proc():
            yield AllOf(sim, [sim.timeout(2), sim.timeout(5), sim.timeout(1)])
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [5]

    def test_any_of_fires_on_fastest(self, sim):
        times = []

        def proc():
            yield AnyOf(sim, [sim.timeout(2), sim.timeout(5)])
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [2]

    def test_operator_sugar(self, sim):
        times = []

        def proc():
            yield sim.timeout(3) | sim.timeout(9)
            times.append(sim.now)
            yield sim.timeout(1) & sim.timeout(2)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [3, 5]

    def test_condition_value_maps_triggered_events(self, sim):
        seen = {}

        def proc():
            fast = sim.timeout(1, value="fast")
            slow = sim.timeout(10, value="slow")
            result = yield fast | slow
            seen["has_fast"] = fast in result
            seen["has_slow"] = slow in result
            seen["value"] = result[fast]

        sim.process(proc())
        sim.run()
        assert seen == {"has_fast": True, "has_slow": False, "value": "fast"}

    def test_fired_condition_releases_its_constituents(self, sim):
        # A get | deadline that fired on the get must not stay reachable
        # from the deadline still waiting in the heap.
        class Payload:
            pass

        box = Store(sim)
        refs = []

        def waiter():
            yield box.get() | sim.timeout(30)

        def producer():
            yield sim.timeout(1)
            payload = Payload()
            refs.append(weakref.ref(payload))
            box.put(payload)

        sim.process(waiter())
        sim.process(producer())
        sim.run(until=10)
        gc.collect()
        assert refs[0]() is None
        assert sim.peek() == 30  # the deadline is still pending ...
        sim.run()
        assert sim.now == 30  # ... and still fires
        assert sim.ticks == 9

    def test_late_failure_of_a_constituent_still_propagates(self, sim):
        late = sim.event()

        def waiter():
            yield sim.timeout(1) | late

        def breaker():
            yield sim.timeout(5)
            late.fail(ValueError("late"))

        sim.process(waiter())
        sim.process(breaker())
        with pytest.raises(ValueError, match="late"):
            sim.run()
        assert sim.now == 5

    def test_late_defused_failure_of_a_constituent_is_silent(self, sim):
        late = sim.event()

        def waiter():
            yield sim.timeout(1) | late

        def breaker():
            yield sim.timeout(5)
            late._defused = True
            late.fail(ValueError("late"))

        sim.process(waiter())
        sim.process(breaker())
        sim.run()
        assert sim.now == 5

    def test_condition_decided_at_construction_subscribes_nothing(self, sim):
        done = sim.timeout(1)
        pending = sim.event()
        sim.run()
        cond = AnyOf(sim, [done, pending])
        assert cond.triggered
        assert pending.callbacks == []


class TestStepAndPeek:
    def test_peek_reports_next_event_time(self, sim):
        def proc():
            yield sim.timeout(9)

        sim.process(proc())
        assert sim.peek() == 0.0  # the initialize event
        sim.step()
        assert sim.peek() == 9.0

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(StopSimulation):
            sim.step()


class TestRunUntilStopInteraction:
    """run(until=...) must distinguish its own stop sentinel from a
    StopSimulation raised by a process (regression: these used to be
    conflated, so a process tearing the simulation down mid-run could be
    misreported as the until-target having fired)."""

    def test_process_raised_stop_beats_time_limit(self, sim):
        def stopper():
            yield sim.timeout(3)
            raise StopSimulation("teardown")

        def straggler():
            yield sim.timeout(50)

        sim.process(stopper())
        sim.process(straggler())
        assert sim.run(until=100) is None
        assert sim.now == 3

    def test_process_raised_stop_with_until_event(self, sim):
        target = sim.timeout(100, value="reached")

        def stopper():
            yield sim.timeout(3)
            raise StopSimulation("teardown")

        sim.process(stopper())
        assert sim.run(until=target) is None
        assert sim.now == 3

    def test_time_stop_returns_none_with_work_pending(self, sim):
        def proc():
            yield sim.timeout(10)

        sim.process(proc())
        assert sim.run(until=4) is None
        assert sim.now == 4
        assert sim.peek() == 10

    def test_until_event_returns_its_value(self, sim):
        target = sim.timeout(5, value="done")
        assert sim.run(until=target) == "done"
        assert sim.now == 5

    def test_repeated_run_until_times(self, sim):
        def proc():
            for _ in range(10):
                yield sim.timeout(1)

        sim.process(proc())
        for at in (2.5, 5.0, 7.5):
            assert sim.run(until=at) is None
            assert sim.now == at
