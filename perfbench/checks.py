"""Correctness checks on every op's exit code and report.

Each check returns a list of problems; an empty list means the op is
correct.  The checks use identities that hold whatever the seed:

* rotation-verify: atom counts at each window sum to the window;
  ``construct``'s member counts equal the sums of ``verify``'s atom counts
  that select the member; the thin extension keeps ceil(c/2) of each
  base atom's c members (and leaves floor(c/2) outside).
* gap-image: multiplicities sum to 2**16, no value lies in the open gap
  (1 - prod, prod), and the coverage scan agrees with the value list.
* coin-stream: the witness is flagged and the estimates sit within the
  tolerance of their declared densities.

On the default seed the exact counts and values must also equal the ones
pinned in ``pinned.json`` from the seed commit.  The gap product is
recomputed here with integer square roots, independently of the package.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
from fractions import Fraction
from math import isqrt

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

FIELD_SIZE = 1 << 16
TOL = Fraction(5, 1000)
_FRAC_BITS = 96


def _frac(node: dict) -> Fraction:
    return Fraction(node["fraction"])


def _label(pattern: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(pattern.items()))


def _atom_sums(atoms: list, windows: list) -> list[str]:
    out = []
    for i, w in enumerate(windows):
        total = sum(a["counts"][i] for a in atoms)
        if total != w:
            out.append(f"atom counts at window {w} sum to {total}")
    return out


def gap_product(target: str, size: int = 4) -> Fraction:
    """Product of the gap family's member densities: member n has the
    96-bit fixed-point value of target ** (2 ** -(n + 1))."""
    p = Fraction(target)
    prod = Fraction(1)
    for n in range(size):
        v = (p.numerator << _FRAC_BITS) // p.denominator
        for _ in range(n + 1):
            v = isqrt(v << _FRAC_BITS)
        prod *= Fraction(v, 1 << _FRAC_BITS)
    return prod


# -- per-op checks -------------------------------------------------------


def _rotation(pos: int, rep: dict, state: dict) -> list[str]:
    out = []
    if pos == 0:
        windows = rep["schedule"]["windows"]
        members = {}
        for s in rep["sets"]:
            counts = s["estimate"]["counts"]
            if any(not 0 <= c <= w for c, w in zip(counts, windows)):
                out.append(f"{s['name']}: count outside [0, window]")
            if not s["band"]["ok"]:
                out.append(f"{s['name']}: guard-band hits above bound")
            members[s["name"]] = counts
        state["members"] = members
    elif pos == 1:
        atoms = rep["atoms"]
        windows = rep["schedule"]["windows"]
        out += _atom_sums(atoms, windows)
        for name, counts in state.get("members", {}).items():
            sums = [sum(a["counts"][i] for a in atoms if a["pattern"][name])
                    for i in range(len(windows))]
            if sums != counts:
                out.append(f"{name}: construct counts {counts} != atom sums {sums}")
        state["atoms"] = {_label(a["pattern"]): a["counts"] for a in atoms}
    else:
        chk = rep["check"]
        out += _atom_sums(chk["atoms"], chk["schedule"]["windows"])
        new = rep["descriptor"]["name"]
        base = state.get("atoms")
        for a in chk["atoms"] if base is not None else []:
            rest = {k: v for k, v in a["pattern"].items() if k != new}
            for c, b in zip(a["counts"], base[_label(rest)]):
                want = (b + 1) // 2 if a["pattern"][new] else b // 2
                if c != want:
                    out.append(f"thin atom {_label(a['pattern'])}: {c} != {want}")
                    break
    return out


def _gap(rep: dict, params: dict) -> list[str]:
    out = []
    values = [(Fraction(v["fraction"]), v["multiplicity"]) for v in rep["values"]]
    if rep["element_count"] != FIELD_SIZE:
        out.append(f"element_count {rep['element_count']} != {FIELD_SIZE}")
    total = sum(m for _, m in values)
    if total != FIELD_SIZE:
        out.append(f"multiplicities sum to {total}")
    xs = [v for v, _ in values]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        out.append("values are not strictly increasing")
    if not xs or xs[0] != 0 or xs[-1] != 1:
        out.append("image does not run from 0 to 1")
    prod = gap_product(params["target"])
    inside = [v for v in xs if 1 - prod < v < prod]
    if inside:
        out.append(f"{len(inside)} values inside the open gap, first {inside[0]}")
    cells = rep["scan"]["cells"]
    for c in cells:
        lo, hi = _frac(c["lo"]), _frac(c["hi"])
        i = bisect.bisect_left(xs, lo)
        hit = i < len(xs) and (xs[i] < hi or (hi == 1 and xs[i] == 1))
        if c["hit"] != hit or (hit and _frac(c["witness"]) != xs[i]):
            out.append(f"scan cell {c['index']} disagrees with the value list")
            break
    if rep["scan"]["unhit_count"] != sum(1 for c in cells if not c["hit"]):
        out.append("unhit_count disagrees with the cells")
    return out


def _coin(pos: int, rep: dict, params: dict) -> list[str]:
    out = []
    if pos == 0:
        windows = rep["schedule"]["windows"]
        for s in rep["sets"]:
            counts = s["estimate"]["counts"]
            if any(not 0 <= c <= w for c, w in zip(counts, windows)):
                out.append(f"{s['name']}: count outside [0, window]")
            if any(a > b for a, b in zip(counts, counts[1:])):
                out.append(f"{s['name']}: counts decrease")
            gap = abs(_frac(s["estimate"]["value"]) - _frac(s["declared"]))
            if gap > TOL:
                out.append(f"{s['name']}: estimate off its declared density by {gap}")
    else:
        wit = rep["witness"]
        if not wit["flagged"]:
            out.append("witness not flagged")
        if _frac(wit["gap"]) < _frac(wit["margin"]):
            out.append("witness gap below its margin")
        if not 0 <= wit["joint_count"] <= wit["window"]:
            out.append("witness joint count outside [0, window]")
        est = rep["estimate"]
        if est["status"] != "converged":
            out.append(f"extension estimate {est['status']}")
        gap = abs(_frac(est["value"]) - Fraction(params["ext_target"]))
        if gap > TOL:
            out.append(f"extension estimate off its target by {gap}")
    return out


def essentials(workload: str, pos: int, rep: dict) -> dict:
    """The exact counts and values of a report that pinned.json fixes."""
    if workload == "gap-image":
        text = "".join(f"{v['fraction']}:{v['multiplicity']}\n" for v in rep["values"])
        return {
            "distinct": len(rep["values"]),
            "values_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "unhit": [c["index"] for c in rep["scan"]["cells"] if not c["hit"]],
        }
    if rep["command"] == "construct":
        out = {s["name"]: s["estimate"]["counts"] for s in rep["sets"]}
        out.update({f"{s['name']}.band": s["band"]["hits"] for s in rep["sets"] if "band" in s})
        return out
    if rep["command"] == "verify":
        out = {_label(a["pattern"]): a["counts"] for a in rep["atoms"]}
        out.update({f"{b['name']}.band": b["hits"] for b in rep["band_diagnostics"]})
        return out
    if rep["mode"] == "thin":
        return {_label(a["pattern"]): a["counts"] for a in rep["check"]["atoms"]}
    return {"counts": rep["estimate"]["counts"], "joint_count": rep["witness"]["joint_count"]}


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_op(workload: str, pos: int, command: str, rc: int, rep, params: dict,
             state: dict, pinned=None) -> list[str]:
    """Problems with one op's exit code and report; empty when correct.

    ``state`` carries earlier reports of the same cycle; ``pinned`` is the
    list of essentials per cycle position, given only on the default seed.
    """
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if not isinstance(rep, dict):
        return ["no report"]
    if rep.get("command") != command:
        return [f"report command {rep.get('command')!r}, expected {command!r}"]
    if rep.get("passed") is not True:
        return ["report not passed"]
    try:
        if workload == "rotation-verify":
            out = _rotation(pos, rep, state)
        elif workload == "gap-image":
            out = _gap(rep, params)
        else:
            out = _coin(pos, rep, params)
        if pinned is not None and essentials(workload, pos, rep) != pinned[pos]:
            out.append("exact counts differ from the values pinned at the seed commit")
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        out = [f"malformed report: {type(e).__name__}: {e}"]
    return out
