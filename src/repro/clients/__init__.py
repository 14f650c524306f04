"""Closed-loop WebStone-style clients, fleets, and open-loop replay."""

from .client import ClientFleet, ClientThread
from .open_loop import AdaptiveSource, OpenLoopSource, poisson_timed_trace

__all__ = ["ClientThread", "ClientFleet", "AdaptiveSource", "OpenLoopSource", "poisson_timed_trace"]
