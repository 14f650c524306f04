"""Two-pass reference for :class:`repro.sim.ProcessorSharing`.

The processor-sharing CPU as it was before its update was fused into one
pass: ``_advance`` walks the jobs to progress them, then ``_reschedule``
walks them again for the least remaining demand, and every wake-up is a
fresh closure over the version.  Kept as the executable specification
of the float arithmetic.  ``tests/sim/test_ps_fused.py`` drives this
and the real CPU through the same job streams and expects identical
doubles.
"""

from typing import Dict, Optional

from repro.sim import Event, Simulator

#: Remaining-work threshold below which a PS job counts as finished.
_EPS = 1e-12


class _Job:
    __slots__ = ("demand", "remaining", "done", "start_time")

    def __init__(self, demand: float, done: Event, start_time: float):
        self.demand = demand
        self.remaining = demand
        self.done = done
        self.start_time = start_time


class ReferencePS:
    """Egalitarian processor sharing: ``n`` jobs each run at
    ``min(1, ncpus / n)``."""

    def __init__(self, sim: Simulator, ncpus: int = 1):
        self.sim = sim
        self.ncpus = ncpus
        self._jobs: Dict[int, _Job] = {}
        self._next_id = 0
        self._last_advance = sim.now
        self._version = 0
        self.busy_time = 0.0
        self.total_demand_served = 0.0

    def utilization(self, elapsed: Optional[float] = None) -> float:
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.projected_busy_time() / (horizon * self.ncpus)

    def projected_busy_time(self) -> float:
        dt = self.sim.now - self._last_advance
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return self.busy_time
        served = 0.0
        quantum = dt * min(1.0, self.ncpus / float(len(jobs)))
        for job in jobs.values():
            served += quantum if quantum <= job.remaining else job.remaining
        return self.busy_time + served

    def execute(self, demand: float) -> Event:
        if demand < 0:
            raise ValueError(f"negative demand {demand}")
        done = Event(self.sim)
        if demand <= _EPS:
            done.succeed(0.0)
            return done
        self._advance()
        self._jobs[self._next_id] = _Job(demand, done, self.sim.now)
        self._next_id += 1
        self._reschedule()
        return done

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        served = 0.0
        finished = []
        quantum = dt * min(1.0, self.ncpus / float(len(jobs)))
        for jid, job in jobs.items():
            progress = quantum if quantum <= job.remaining else job.remaining
            job.remaining -= progress
            served += progress
            if job.remaining <= _EPS:
                finished.append(jid)
        self.busy_time += served
        self.total_demand_served += served
        for jid in finished:
            job = jobs.pop(jid)
            job.done.succeed(now - job.start_time)

    def _reschedule(self) -> None:
        self._version += 1
        jobs = self._jobs
        if not jobs:
            return
        factor = min(1.0, self.ncpus / float(len(jobs)))
        least = None
        for job in jobs.values():
            if least is None or job.remaining < least:
                least = job.remaining
        version = self._version
        timeout = self.sim.timeout(least / factor)
        timeout.callbacks.append(lambda _evt: self._on_wakeup(version))

    def _on_wakeup(self, version: int) -> None:
        if version != self._version:
            return
        self._advance()
        self._reschedule()
