#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 0-9                 # end-to-end, all workloads
    python3 perfbench/sweep.py --seeds 0-2 --trace 1       # per-layer
    python3 perfbench/sweep.py --workloads gap-image --seeds 0,4 --out result.json

Each (seed, workload) pair is one ``run.py`` process; seeds form the
outer loop so slow drifts of a shared machine spread over all
workloads.  For every metric the table gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  ``failed_frac`` is failed ops over ops
attempted, summed over the runs.  The optional JSON output carries the
machine record (commit, Python, numpy, nproc, seeds) beside the results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi) + 1) if hi else [int(lo)]
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    record = next(json.loads(ln)["record"] for ln in lines if ln.startswith('{"record"'))
    return record, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict[str, list] = {w: [] for w in chosen}
    record = None
    for seed in seeds:
        for w in chosen:
            rec, res = run_one(w, seed, args.seconds, args.trace)
            record = record or rec
            runs[w].append((rec, res))
            print(f"# {w} seed {seed}: {res['attempted']} ops, {res['failed']} failed",
                  file=sys.stderr, flush=True)

    summary = {}
    print("workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound")
    for w in chosen:
        metrics = {}
        for name, m in runs[w][0][1]["metrics"].items():
            s = summarise([res["metrics"][name]["value"] for _, res in runs[w]])
            metrics[name] = {"unit": m["unit"], **s}
            bound = bounds.get(name) if not args.trace else None
            print(f"{w}\t{name}\t{m['unit']}\t{s['median']:.6g}\t{s['q1']:.6g}\t"
                  f"{s['q3']:.6g}\t{s['spread']:.4f}\t{'' if bound is None else bound}")
        attempted = sum(res["attempted"] for _, res in runs[w])
        failed = sum(res["failed"] for _, res in runs[w])
        print(f"{w}\tfailed_frac\tratio\t{failed / attempted:.6g}\t\t\t\t"
              f"({failed} of {attempted} ops over {len(seeds)} runs)")
        summary[w] = {
            "metrics": metrics,
            "ops_per_run": [res["attempted"] for _, res in runs[w]],
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "runs": [rec for rec, _ in runs[w]],
        }

    if args.out:
        machine = {k: record[k] for k in ("commit", "python", "numpy", "nproc", "cpu")}
        doc = {"record": {**machine, "seeds": seeds, "seconds": args.seconds,
                          "trace": args.trace},
               "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
