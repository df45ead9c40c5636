"""The benchmark's own checker, run as part of the test suite: each
workload's default-seed reports must pass their checks, including the
pinned counts and image values in perfbench/pinned.json."""

import os
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


# The tracer wraps densfam functions and methods by name (cli.cmd_*,
# reports.*_json, verify.field_elements, SetBase.bits_range, ...) and
# reads SetBase.caches_chunks; a rename breaks `perfbench/run.py --trace 1`
# and nothing else.
TRACED_RUN = """
import json, sys, tempfile
sys.path.insert(0, "perfbench")
import densfam, densfam.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
with tempfile.TemporaryDirectory() as tmp:
    spec = tmp + "/spec.json"
    with open(spec, "w") as fh:
        json.dump({"family": [{"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3"}],
                   "schedule": {"start": 2000, "ratio": "2", "count": 3}}, fh)
    for op, command in enumerate(["construct", "verify"]):
        tracer.begin_op(op)
        assert densfam.cli.main([command, spec, "--out", tmp + "/report.json"]) == 0
        tracer.end_op()
print(" ".join(sorted({s[0] for s in tracer.spans})))
"""


def test_tracer_installs_on_the_package():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spans = set(done.stdout.split())
    assert {"cli.cmd_construct", "reports.band_json", "reports.render_report"} <= spans
    # verify sweeps chunks, so the tracer's wrapper on SetBase.chunk_mask runs
    assert {"cli.cmd_verify", "sets.chunk_mask.kw", "sets.chunk_mask.intersect"} <= spans
