"""The stage benchmark still runs against the library as it stands.

``perfbench/`` reads the store, the programs and the solver statistics
through the public API; its tiny-size self-test runs every workload end
to end, so a change that breaks one of those reads fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
