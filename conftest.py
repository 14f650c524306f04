"""Repo-level pytest configuration.

CI runs the tier-1 suite once per event scheduler (heap / calendar /
ladder) to prove the pluggable queues are observationally equivalent.
The matrix leg communicates its choice via ``REPRO_SCHEDULER``; applying
it here, before any test module builds a :class:`repro.sim.Simulator`,
means every simulator in the run uses that queue without the tests
having to know about the matrix.

Hypothesis runs under one of two profiles, chosen by
``HYPOTHESIS_PROFILE``:

* ``tier1`` (the default) is derandomized and keeps no example database,
  so every run draws the same examples and one saved failure cannot
  make later runs fail.  Tier-1 passes or fails the same way every time.
* ``explore`` draws fresh random examples on every run and saves the
  failures it finds.  Tests that set their own ``max_examples`` keep it,
  so CI gets more examples by running this leg several times.
"""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1_000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

_scheduler = os.environ.get("REPRO_SCHEDULER")
if _scheduler:
    from repro.sim import set_default_scheduler

    set_default_scheduler(_scheduler)
