"""The benchmark's stall watchdog on the one known livelock.

The Figure 4 ADL slice at scale 1.5 on 4 nodes with 64 client threads
and no cache freezes the simulated clock at t = 17206.758 s while events
keep dispatching: past t = 16384 s, ``_EPS`` in ``sim/resources.py`` is
below half an ulp of ``now``, so a processor-sharing wake-up lands at
``now + least / factor == now``.  Until that is fixed the rep must end
as a stall report, not run forever; once it is fixed this run completes
and this test should assert that instead.
"""

import json
import os
import subprocess
import sys
import time

REP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py")

LIVELOCK = {"input": "figure4", "scale": 1.5, "nodes": 4, "mode": "none",
            "threads": 64, "hosts": 2}


def test_known_livelock_is_reported_as_a_stall():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, REP, json.dumps(LIVELOCK), "--seed", "0"],
        capture_output=True, text=True, timeout=90,
    )
    elapsed = time.monotonic() - started
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == "stall", proc.stderr
    assert proc.returncode == 3
    assert round(result["stall"]["now"], 3) == 17206.758
    assert elapsed < 30
