"""Unit tests for Resource, Store, and the processor-sharing CPU."""

import pytest

from repro.sim import Event, ProcessorSharing, Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grants_up_to_capacity_immediately(self, sim):
        res = Resource(sim, capacity=2)
        granted = []

        def proc(tag):
            req = res.request()
            yield req
            granted.append((tag, sim.now))
            yield sim.timeout(10)
            res.release(req)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert granted == [("a", 0), ("b", 0), ("c", 10)]

    def test_fcfs_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def proc(tag, hold):
            req = res.request()
            yield req
            order.append(tag)
            yield sim.timeout(hold)
            res.release(req)

        for tag in "abcd":
            sim.process(proc(tag, 1))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_release_of_queued_request_cancels_it(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()  # grabbed synchronously
        assert holder.triggered
        waiter = res.request()
        assert not waiter.triggered
        res.release(waiter)  # cancel while queued
        assert res.queue_length == 0
        res.release(holder)
        assert res.count == 0

    def test_double_release_rejected(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_count_and_queue_length(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        res.request()
        assert res.count == 1
        assert res.queue_length == 1
        res.release(first)
        assert res.count == 1  # waiter promoted
        assert res.queue_length == 0

    def test_fresh_resource_has_an_empty_queue(self, sim):
        # The wait queue is only made on the first wait.
        res = Resource(sim, capacity=1, name="nic")
        assert res.queue_length == 0
        assert repr(res) == "<Resource 'nic' 0/1 queued=0>"
        with pytest.raises(RuntimeError):
            res.release(Event(sim))

    def test_fcfs_order_after_the_queue_drains(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def proc(tag, start):
            yield sim.timeout(start)
            req = res.request()
            yield req
            order.append((tag, sim.now))
            yield sim.timeout(1)
            res.release(req)

        for tag in "abc":
            sim.process(proc(tag, 0))
        for tag in "xyz":
            sim.process(proc(tag, 10))
        sim.run()
        assert order == [
            ("a", 0), ("b", 1), ("c", 2), ("x", 10), ("y", 11), ("z", 12),
        ]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def proc():
            item = yield store.get()
            got.append(item)

        sim.process(proc())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(5)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(5, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def proc():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(proc())
        sim.run()
        assert got == [1, 2, 3]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1)
            store.put("a")
            store.put("b")

        sim.process(producer())
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(7)
        assert store.try_get() == 7
        assert len(store) == 0

    def test_fresh_store_is_empty(self, sim):
        # Both queues are only made on first use.
        store = Store(sim, name="box")
        assert len(store) == 0
        assert store.try_get() is None
        assert store.cancel(Event(sim)) is False
        assert repr(store) == "<Store 'box' items=0 waiting=0>"

    def test_fifo_getter_order_after_the_queue_drains(self, sim):
        store = Store(sim)
        got = []

        def consumer(tag, start):
            yield sim.timeout(start)
            item = yield store.get()
            got.append((tag, item))

        def producer():
            yield sim.timeout(1)
            store.put("a")
            store.put("b")
            yield sim.timeout(10)
            store.put("c")
            store.put("d")

        for tag, start in (("first", 0), ("second", 0), ("third", 5), ("fourth", 6)):
            sim.process(consumer(tag, start))
        sim.process(producer())
        sim.run()
        assert got == [("first", "a"), ("second", "b"), ("third", "c"), ("fourth", "d")]
        assert len(store) == 0


class TestProcessorSharing:
    def test_single_job_runs_at_full_speed(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        done_times = []

        def proc():
            yield cpu.execute(5.0)
            done_times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done_times == [5.0]

    def test_two_jobs_share_one_cpu(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        done = {}

        def proc(tag, demand):
            yield cpu.execute(demand)
            done[tag] = sim.now

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 1.0))
        sim.run()
        # Equal demands at half speed: both finish at 2.
        assert done == {"a": 2.0, "b": 2.0}

    def test_unequal_jobs_ps_schedule(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        done = {}

        def proc(tag, demand):
            yield cpu.execute(demand)
            done[tag] = sim.now

        sim.process(proc("short", 1.0))
        sim.process(proc("long", 3.0))
        sim.run()
        # Both at rate 1/2 until short finishes at t=2 (1.0 work each);
        # long then has 2.0 left at full speed -> finishes at 4.
        assert done["short"] == pytest.approx(2.0)
        assert done["long"] == pytest.approx(4.0)

    def test_two_cpus_run_two_jobs_at_full_speed(self, sim):
        cpu = ProcessorSharing(sim, ncpus=2)
        done = {}

        def proc(tag, demand):
            yield cpu.execute(demand)
            done[tag] = sim.now

        sim.process(proc("a", 2.0))
        sim.process(proc("b", 2.0))
        sim.run()
        assert done == {"a": 2.0, "b": 2.0}

    def test_late_arrival_slows_running_job(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        done = {}

        def first():
            yield cpu.execute(2.0)
            done["first"] = sim.now

        def second():
            yield sim.timeout(1.0)
            yield cpu.execute(2.0)
            done["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # first: 1s alone (1.0 done) + shares until its remaining 1.0 done at
        # rate 1/2 -> finishes at t=3.  second: 1.0 done by t=3, 1.0 left at
        # full speed -> t=4.
        assert done["first"] == pytest.approx(3.0)
        assert done["second"] == pytest.approx(4.0)

    def test_sojourn_time_returned(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        sojourns = []

        def proc():
            sojourn = yield cpu.execute(1.0)
            sojourns.append(sojourn)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert sojourns == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_zero_demand_completes_instantly(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        done = []

        def proc():
            yield cpu.execute(0.0)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [0.0]

    def test_negative_demand_rejected(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        with pytest.raises(ValueError):
            cpu.execute(-1.0)

    def test_non_unit_weight_rejected(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        with pytest.raises(ValueError, match="weight"):
            cpu.execute(1.0, 3.0)
        assert cpu.load == 0

    def test_utilization_accounting(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)

        def proc():
            yield cpu.execute(3.0)
            yield sim.timeout(1.0)  # idle tail

        sim.process(proc())
        sim.run()
        assert cpu.utilization() == pytest.approx(3.0 / 4.0)

    def test_utilization_midrun_read_is_pure(self, sim):
        """Observing utilization mid-run must not advance the schedule,
        mutate job state, or change the simulation outcome."""
        cpu = ProcessorSharing(sim, ncpus=1)
        readings = []
        done = []

        def worker():
            yield cpu.execute(2.0)
            done.append(sim.now)

        def observer():
            yield sim.timeout(1.0)
            job = next(iter(cpu._jobs.values()))
            before = (job.remaining, cpu._last_advance, cpu.busy_time)
            readings.append(cpu.utilization())
            readings.append(cpu.projected_busy_time())
            # Pure read: committed state untouched.
            assert (job.remaining, cpu._last_advance, cpu.busy_time) == before

        sim.process(worker())
        sim.process(observer())
        sim.run()
        # The mid-run reading saw the in-flight busy second exactly.
        assert readings == [pytest.approx(1.0), pytest.approx(1.0)]
        assert done == [pytest.approx(2.0)]

    def test_load_counts_active_jobs(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        observed = []

        def proc():
            yield cpu.execute(2.0)

        def observer():
            yield sim.timeout(1.0)
            observed.append(cpu.load)

        sim.process(proc())
        sim.process(proc())
        sim.process(observer())
        sim.run()
        assert observed == [2]

    def test_many_jobs_total_throughput_conserved(self, sim):
        cpu = ProcessorSharing(sim, ncpus=1)
        finish = []

        def proc():
            yield cpu.execute(1.0)
            finish.append(sim.now)

        for _ in range(10):
            sim.process(proc())
        sim.run()
        # 10 equal jobs on 1 CPU all finish together at t=10.
        assert finish == [pytest.approx(10.0)] * 10
        assert cpu.total_demand_served == pytest.approx(10.0)
