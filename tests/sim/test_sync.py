"""Unit tests for the reader/writer lock."""

import pytest

from repro.sim import RWLock, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestRWLock:
    def test_concurrent_readers(self, sim):
        rw = RWLock(sim)
        active = []
        peak = []

        def reader():
            yield rw.acquire_read()
            active.append(1)
            peak.append(len(active))
            yield sim.timeout(1)
            active.pop()
            rw.release_read()

        for _ in range(3):
            sim.process(reader())
        sim.run()
        assert max(peak) == 3

    def test_writer_excludes_readers(self, sim):
        rw = RWLock(sim)
        trace = []

        def writer():
            yield rw.acquire_write()
            trace.append(("w-in", sim.now))
            yield sim.timeout(2)
            trace.append(("w-out", sim.now))
            rw.release_write()

        def reader():
            yield sim.timeout(1)  # arrive while writer holds the lock
            yield rw.acquire_read()
            trace.append(("r-in", sim.now))
            rw.release_read()

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert trace == [("w-in", 0), ("w-out", 2), ("r-in", 2)]

    def test_writer_waits_for_readers(self, sim):
        rw = RWLock(sim)
        trace = []

        def reader():
            yield rw.acquire_read()
            yield sim.timeout(3)
            rw.release_read()
            trace.append(("r-out", sim.now))

        def writer():
            yield sim.timeout(1)
            yield rw.acquire_write()
            trace.append(("w-in", sim.now))
            rw.release_write()

        sim.process(reader())
        sim.process(writer())
        sim.run()
        assert trace == [("r-out", 3), ("w-in", 3)]

    def test_readers_do_not_overtake_waiting_writer(self, sim):
        rw = RWLock(sim)
        trace = []

        def holder():
            yield rw.acquire_read()
            yield sim.timeout(2)
            rw.release_read()

        def writer():
            yield sim.timeout(0.5)
            yield rw.acquire_write()
            trace.append(("w", sim.now))
            yield sim.timeout(1)
            rw.release_write()

        def late_reader():
            yield sim.timeout(1)  # arrives after the writer queued
            yield rw.acquire_read()
            trace.append(("r", sim.now))
            rw.release_read()

        sim.process(holder())
        sim.process(writer())
        sim.process(late_reader())
        sim.run()
        assert trace == [("w", 2), ("r", 3)]

    def test_reader_batch_granted_together(self, sim):
        rw = RWLock(sim)
        grant_times = []

        def writer():
            yield rw.acquire_write()
            yield sim.timeout(1)
            rw.release_write()

        def reader():
            yield sim.timeout(0.1)
            yield rw.acquire_read()
            grant_times.append(sim.now)
            yield sim.timeout(1)
            rw.release_read()

        sim.process(writer())
        sim.process(reader())
        sim.process(reader())
        sim.run()
        assert grant_times == [1, 1]

    def test_fresh_primitives_report_no_waiters(self, sim):
        # Wait queues are only made on the first wait.
        assert repr(RWLock(sim, name="tbl")) == (
            "<RWLock 'tbl' readers=0 writer=False waiters=0>"
        )

    def test_fifo_grants_after_the_queue_drains(self, sim):
        rw = RWLock(sim)
        trace = []

        def writer(tag, start):
            yield sim.timeout(start)
            yield rw.acquire_write()
            trace.append((tag, sim.now))
            yield sim.timeout(1)
            rw.release_write()

        def reader(tag, start):
            yield sim.timeout(start)
            yield rw.acquire_read()
            trace.append((tag, sim.now))
            yield sim.timeout(1)
            rw.release_read()

        sim.process(writer("w1", 0))
        sim.process(reader("r1", 0))
        sim.process(writer("w2", 0))
        sim.process(writer("w3", 10))
        sim.process(reader("r2", 10))
        sim.process(reader("r3", 10))
        sim.process(writer("w4", 10))
        sim.run()
        assert trace == [
            ("w1", 0), ("r1", 1), ("w2", 2),
            ("w3", 10), ("r2", 11), ("r3", 11), ("w4", 12),
        ]

    def test_release_errors(self, sim):
        rw = RWLock(sim)
        with pytest.raises(RuntimeError):
            rw.release_read()
        with pytest.raises(RuntimeError):
            rw.release_write()

    def test_counters(self, sim):
        rw = RWLock(sim)

        def writer():
            yield rw.acquire_write()
            yield sim.timeout(1)
            rw.release_write()

        def reader():
            yield rw.acquire_read()
            rw.release_read()

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert rw.write_acquisitions == 1
        assert rw.read_acquisitions == 1
        assert rw.contended_acquisitions == 1
        assert rw.wait_time == pytest.approx(1.0)
