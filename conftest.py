"""Repo-level pytest configuration.

Puts ``src/`` on ``sys.path`` so the suite runs from a checkout without
installing the package.

Hypothesis runs under one of two profiles, chosen by
``HYPOTHESIS_PROFILE``:

* ``tier1`` (the default) is derandomized and keeps no example database,
  so every run draws the same examples and one saved failure cannot
  make later runs fail.  Tier-1 passes or fails the same way every time.
* ``explore`` draws fresh random examples on every run and saves the
  failures it finds.  Tests that set their own ``max_examples`` keep it,
  so CI gets more examples by running this leg several times.  A failure
  prints a ``@reproduce_failure`` blob that replays it on any machine.
"""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1_000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
