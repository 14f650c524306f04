"""Start-up guard: importing the package must not pull in scipy.

scipy.stats alone costs ~0.7 s of start-up, which every CLI call, paper
command and benchmark rep pays.  The package needs nothing from it, so a
stray import anywhere (even lazily, inside a function the statistics
helpers call) fails this test.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
import repro, repro.cli
import repro.clients, repro.core, repro.experiments, repro.obs, repro.sim
import repro.workload
assert "scipy" not in sys.modules, "imported scipy"
from repro.metrics import batch_means_ci, compare_runs
batch_means_ci([float(i % 7) for i in range(200)])
compare_runs([1.0, 2.0] * 50, [2.0, 3.0] * 50, n_batches=5)
assert "scipy" not in sys.modules, "a confidence interval imported scipy"
"""


def test_package_never_imports_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
