"""The benchmark's self-test as part of the test suite: every workload runs
once, traced, at a tiny size, and every planted wrong answer must be caught.
A name the benchmark imports or calls that the program renamed or removed
then fails here, not only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
