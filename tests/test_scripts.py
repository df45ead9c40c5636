"""The scripts the README advertises run to completion with their defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name, check", [
    ("rotation_family_demo.py", lambda out: "overall: PASS" in out),
    ("window_convergence_table.py",
     lambda out: out.startswith("set\twindow\tcount\tdensity\ttarget\n")),
], ids=["rotation-family-demo", "window-convergence-table"])
def test_script_runs_with_defaults(name, check):
    assert check(run_script(name))
