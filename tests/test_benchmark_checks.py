"""The benchmark's own checker, run as part of the test suite: each
workload's default-seed reports must pass their checks, including the
pinned counts and image values in perfbench/pinned.json."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_checker_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "test_checks.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
