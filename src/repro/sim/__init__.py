"""Deterministic discrete-event simulation substrate.

This package is the execution environment for every system model in the
reproduction: the Swala server, the baseline web servers, the LAN, and the
clients all run as generator processes on a :class:`~repro.sim.Simulator`.
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    StopSimulation,
    Timeout,
)
from .monitor import Tally
from .probes import Instrumentation
from .resources import ProcessorSharing, Request, Resource, Store
from .rng import RandomStreams
from .sync import RWLock

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "StopSimulation",
    "Resource",
    "Request",
    "Store",
    "ProcessorSharing",
    "RWLock",
    "RandomStreams",
    "Tally",
    "Instrumentation",
]
