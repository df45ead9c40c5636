#!/usr/bin/env python3
"""densfam benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload rotation-verify --seed 3 --seconds 35 --trace 0

Run from the repository root.  The run writes the workload's spec files
from the seed, measures set-up, then drives ``densfam.cli.main`` as a
closed loop with one client: it repeats the workload's op cycle (see
``workloads.json``) while another whole cycle fits in ``--seconds``.
Every op loads its spec afresh, as a user's CLI call does, writes its
report to a file, and has its exit code and report checked
(``checks.py``).  Times are seconds at reference host speed (see
``calibrate``); the raw seconds are in the record line.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:

* ``wall_s``      median over cycles of the cycle's op time (checks excluded)
* ``op_p50_s``    median latency of one op
* ``setup_s``     median over fresh interpreters of ``import densfam`` plus
                  ``load_spec`` of every spec of the workload
* ``peak_rss_mb`` peak resident memory of this process (MB = 10**6 bytes)
* ``report_mb``   mean size of the report written per op

With ``--trace 1`` the first half of the time runs untraced, then the same
number of cycles runs with spans (``tracer.py``); the last line holds the
per-layer metrics as medians over the traced cycles, plus the traced and
untraced cycle wall times and their difference, the tracing overhead.
The spans are written to ``perfbench/_work/``.

Lines before the last one give a machine record and a readable table;
``failed_frac`` is printed there, while the last line carries it as
``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

# Host speed on a shared machine drifts by +-25% over seconds to minutes,
# far more than a change worth measuring.  Every timed interval is
# therefore bracketed by calibrate(), a fixed pure-Python loop that
# touches no densfam code, and reported in seconds at reference speed:
#     raw seconds * CALIB_REF_S / (mean of the two bracketing loop times).
# CALIB_REF_S is about the loop's time on the 2.1 GHz Xeon host of the
# committed baseline; raw seconds are kept in the record line.
CALIB_REF_S = 0.028


def calibrate() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(250_000):
        x += i * i & 7
    return time.perf_counter() - t0


# timed inside a fresh interpreter, so interpreter start-up is excluded
SETUP_CODE = "import sys, time\n" + inspect.getsource(calibrate) + """
c0 = calibrate()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import densfam
from densfam.specfile import load_spec, read_spec_file
for path in sys.argv[2:]:
    load_spec(read_spec_file(path))
t1 = time.perf_counter()
print(t1 - t0, (c0 + calibrate()) / 2)
"""

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "report_mb": "MB"}

PER_LAYER_NAMES = tracer.LAYER_STATS + tracer.CACHE_STATS + [
    "cli.op.failed", "trace.untraced_wall_s", "trace.wall_s", "trace.overhead_s"]


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith(".mb"):
        return "MB"
    return "count"


def measure_setup(spec_paths: list[str]) -> tuple[float, float]:
    """Raw and reference-speed seconds of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, *spec_paths],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, calib = map(float, done.stdout.split()[-2:])
    return raw, raw * CALIB_REF_S / calib


def machine_record(workload: str, seed: int, params: dict) -> dict:
    import numpy

    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "params": params, "commit": commit,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


class Runner:
    """Runs op cycles through ``densfam.cli.main``, then checks each op.

    Reports are checked after the timed cycles, so the checker's own
    memory stays out of the peak RSS and its time out of the loop.
    """

    def __init__(self, workload: str, seed: int, params: dict, cycle: list, work: str):
        from densfam import cli

        self.cli = cli
        self.workload = workload
        self.params = params
        self.cycle = cycle
        self.work = work
        self.pinned = (checks.load_pinned().get(workload)
                       if seed == workloads.DEFAULT_SEED else None)
        self.ops: list[dict] = []
        self.cycles: list[list[int]] = []
        self.tracer = None

    def run_op(self, pos: int) -> int:
        argv = self.cycle[pos]
        op_id = len(self.ops)
        out = os.path.join(self.work, f"report{op_id}.json")
        err = io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_op(op_id)
        c0 = calibrate()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv + ["--out", out])
        except Exception:  # an op that raises counts as failed, the run goes on
            rc = None
            err.write(traceback.format_exc())
        raw = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.end_op()
        self.ops.append({
            "id": op_id, "pos": pos, "rc": rc, "stderr": err.getvalue(), "report": out,
            "raw": raw, "latency": raw * CALIB_REF_S / ((c0 + calibrate()) / 2),
            "bytes": os.path.getsize(out) if os.path.exists(out) else 0,
        })
        return op_id

    def run_cycles(self, seconds: float = 0.0, count: int = 0) -> list[list[int]]:
        """Run exactly `count` cycles when given; otherwise run whole
        cycles (at least one) while another cycle of the mean length so
        far still fits in `seconds`."""
        done = []
        t_start = time.perf_counter()
        while True:
            done.append([self.run_op(pos) for pos in range(len(self.cycle))])
            if count:
                if len(done) >= count:
                    break
            elif (time.perf_counter() - t_start) * (len(done) + 1) / len(done) > seconds:
                break
        self.cycles += done
        return done

    def check_all(self) -> None:
        """Check every op's exit code and report, cycle by cycle; sets
        each op's ``failed`` flag and deletes its report."""
        for cycle in self.cycles:
            state: dict = {}
            for op_id in cycle:
                op = self.ops[op_id]
                rep = None
                if os.path.exists(op["report"]):
                    with open(op["report"], encoding="utf-8") as fh:
                        try:
                            rep = json.load(fh)
                        except json.JSONDecodeError:
                            pass
                    os.remove(op["report"])
                argv = self.cycle[op["pos"]]
                problems = checks.check_op(self.workload, op["pos"], argv[0], op["rc"], rep,
                                           self.params, state, self.pinned)
                op["failed"] = bool(problems)
                if problems:
                    print(f"op {op_id} ({argv[0]}) FAILED: {'; '.join(problems)}\n"
                          f"{op['stderr']}", file=sys.stderr)

    def cycle_wall(self, cycle: list[int], key: str = "latency") -> float:
        return sum(self.ops[i][key] for i in cycle)


def end_to_end(runner: Runner, setup: list, peak_rss_mb: float) -> dict:
    ops = runner.ops
    return {
        "wall_s": statistics.median(runner.cycle_wall(c) for c in runner.cycles),
        "op_p50_s": statistics.median(op["latency"] for op in ops),
        "setup_s": statistics.median(norm for _, norm in setup),
        "peak_rss_mb": peak_rss_mb,
        "report_mb": statistics.fmean(op["bytes"] for op in ops) / 1e6,
    }


def per_layer(runner: Runner, untraced: list, traced: list) -> dict:
    scale = {op["id"]: op["latency"] / op["raw"] for op in runner.ops}
    per_cycle = runner.tracer.layer_metrics(traced, scale)
    out = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    out["cli.op.failed"] = sum(runner.ops[i]["failed"] for c in traced for i in c)
    out["trace.untraced_wall_s"] = statistics.median(runner.cycle_wall(c) for c in untraced)
    out["trace.wall_s"] = statistics.median(runner.cycle_wall(c) for c in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return {name: out[name] for name in PER_LAYER_NAMES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "densfam", "__init__.py")):
        print(f"error: no densfam sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        params, spec_paths, cycle = workloads.prepare(args.workload, args.seed, work)
        setup = [measure_setup(spec_paths) for _ in range(SETUP_SAMPLES)]
        sys.path.insert(0, SRC)
        record = machine_record(args.workload, args.seed, params)
        runner = Runner(args.workload, args.seed, params, cycle, work)

        if args.trace:
            untraced = runner.run_cycles(seconds=args.seconds / 2)
            runner.tracer = tracer.Tracer()
            runner.tracer.install()
            traced = runner.run_cycles(count=len(untraced))
            runner.check_all()
            metrics = per_layer(runner, untraced, traced)
            trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
            runner.tracer.write(trace_path)
            units = {k: per_layer_units(k) for k in metrics}
            record["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            runner.run_cycles(seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            runner.check_all()
            metrics = end_to_end(runner, setup, peak_rss_mb)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.ops)
    failed = sum(op["failed"] for op in runner.ops)
    record.update(
        ops=attempted,
        raw_setup_s=[raw for raw, _ in setup],
        raw_cycle_walls_s=[runner.cycle_wall(c, "raw") for c in runner.cycles],
        cycle_walls_s=[runner.cycle_wall(c) for c in runner.cycles],
    )
    print(json.dumps({"record": record}))
    for name, value in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{units[name]}")
    print(f"{args.workload}\tfailed_frac\t{failed / attempted:.6g}\tratio"
          f"\t({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
