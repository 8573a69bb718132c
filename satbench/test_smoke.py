"""Smoke test of the benchmark: every workload at tiny sizes, untraced
and traced, with every correctness check.

Run with ``python -m pytest satbench/test_smoke.py`` from the checkout
root (takes about a minute on a 2-CPU host).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    summary = [line for line in proc.stdout.splitlines() if line.startswith("smoke ")]
    assert len(summary) == 6, summary
    assert all(": ok " in line for line in summary), summary
