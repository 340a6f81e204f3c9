"""The benchmark harness self-check must pass on this tree.

``perfbench/selfcheck.py`` pins the work counts the benchmark's per-layer
metrics rely on (F evaluations per record, one dense solve and one mixed
Hessian per F_alpha evaluation, two rho scans per certify call, resolvent
calls per flow step).  A refactor that changes any of them fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: ok" in proc.stdout
