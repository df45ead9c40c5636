"""Workload inputs generated from the workload seed.

Each workload's op cycle lives in ``workloads.json``; this module turns a
seed into the spec document(s) the cycle runs on and into the values of
the cycle's ``{placeholders}``.  The program under test only ever sees
the generated spec files and command lines.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    RECORDS = json.load(_fh)

DEFAULT_SEED = RECORDS["default_seed"]
NAMES = tuple(RECORDS["workloads"])


def _rng(name: str, seed: int) -> random.Random:
    # string seeds hash deterministically (sha512) across runs and platforms
    return random.Random(f"{name}:{seed}")


def _rotation_params(seed: int) -> dict:
    # thresholds p/20 with 2 <= p <= 18 summing to 3/2, as the default
    # (3/10, 1/2, 7/10) does: the orbit walk costs more per member the
    # higher its threshold, so a fixed sum keeps the work per cycle equal
    # across seeds while the thresholds themselves vary
    if seed == DEFAULT_SEED:
        ps = (6, 10, 14)
    else:
        rng = _rng("rotation-verify", seed)
        while True:
            p0, p1 = rng.randint(2, 18), rng.randint(2, 18)
            if 2 <= 30 - p0 - p1 <= 18:
                ps = (p0, p1, 30 - p0 - p1)
                break
    return {"thresholds": [str(Fraction(p, 20)) for p in ps]}


def _gap_params(seed: int) -> dict:
    k = 900 if seed == DEFAULT_SEED else _rng("gap-image", seed).randint(501, 999)
    return {"target": str(Fraction(k, 1000))}


def _coin_params(seed: int) -> dict:
    if seed == DEFAULT_SEED:
        return {"sigma": "0110", "r_seed": 11, "r_target": "2/5",
                "ext_seed": 7, "ext_target": "3/5"}
    rng = _rng("coin-stream", seed)
    return {
        "sigma": "".join(rng.choice("01") for _ in range(4)),
        "r_seed": rng.randrange(1 << 32),
        "r_target": str(Fraction(rng.randint(4, 16), 20)),
        "ext_seed": rng.randrange(1 << 32),
        "ext_target": str(Fraction(rng.randint(4, 16), 20)),
    }


def params(name: str, seed: int) -> dict:
    return {"rotation-verify": _rotation_params,
            "gap-image": _gap_params,
            "coin-stream": _coin_params}[name](seed)


def spec_doc(name: str, p: dict) -> dict:
    if name == "rotation-verify":
        return {"family": [
            {"name": f"A{i}", "kind": "kw", "radicand": r, "threshold": t}
            for i, (r, t) in enumerate(zip((2, 3, 5), p["thresholds"]))
        ]}
    if name == "gap-image":
        return {"family": [{"name": "G", "kind": "gap", "target": p["target"], "size": 4}]}
    return {"family": [
        {"name": "C0", "kind": "coded", "sigma": p["sigma"], "depth_limit": 4},
        {"name": "B0", "kind": "block", "classical": "C0"},
        {"name": "R", "kind": "random-ext", "family": ["B0"], "distinguished": "B0",
         "target": p["r_target"], "seed": p["r_seed"]},
    ]}


def prepare(name: str, seed: int, work_dir: str) -> tuple[dict, list[str], list[list[str]]]:
    """Write the workload's spec file under work_dir.

    Returns the parameters, the spec paths and the op cycle as argument
    lists for ``densfam.cli.main`` (without ``--out``).
    """
    p = params(name, seed)
    spec_path = os.path.join(work_dir, f"{name}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec_doc(name, p), fh, indent=2)
    fields = {"spec": spec_path, **{k: str(v) for k, v in p.items()}}
    cycle = [[a.format(**fields) for a in op]
             for op in RECORDS["workloads"][name]["cycle"]]
    return p, [spec_path], cycle
