#!/usr/bin/env python3
"""Pin the exact counts and values of every workload's default-seed cycle.

    python3 perfbench/pin.py            # rewrites perfbench/pinned.json

Run it only at a commit whose outputs are known good (the file in the
repository was written at the seed commit); ``run.py`` then compares
every default-seed op against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import checks  # noqa: E402
import workloads  # noqa: E402


def cycle_reports(workload: str, seed: int, work: str) -> tuple[dict, list]:
    """Run one op cycle; return the parameters and (command, exit code,
    report) per op."""
    from densfam.cli import main as cli_main

    params, _, cycle = workloads.prepare(workload, seed, work)
    out = []
    for pos, argv in enumerate(cycle):
        path = os.path.join(work, f"report{pos}.json")
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(argv + ["--out", path])
        with open(path, encoding="utf-8") as fh:
            out.append((argv[0], rc, json.load(fh)))
    return params, out


def main() -> int:
    pinned = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for w in workloads.NAMES:
            params, ops = cycle_reports(w, workloads.DEFAULT_SEED, work)
            state: dict = {}
            for pos, (command, rc, rep) in enumerate(ops):
                problems = checks.check_op(w, pos, command, rc, rep, params, state)
                if problems:
                    raise SystemExit(f"{w} op {pos} fails its check: {problems}")
            pinned[w] = [checks.essentials(w, pos, rep) for pos, (_, _, rep) in enumerate(ops)]
    with open(checks.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
