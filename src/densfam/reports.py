"""Run reports: self-contained JSON documents with exact counts.

Densities appear both as exact fraction strings and as decimal
renderings; counts are plain integers.  The report embeds the spec
document and its digest, plus the RNG algorithm and every seed used, so
a run can be reproduced from the report alone.  Reports carry no
timestamps or host data: rerunning the same spec must produce the same
bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd
from . import __version__
from .constructors import PackResult
from .density import DensityEstimate, WindowSchedule
from .reaping import BisectReport, WitnessReport
from .rng import RNG_ALGORITHM
from .verify import BandDiagnostic, ScanReport, VerificationReport


def rat(x: Fraction) -> dict:
    """Render a rational as exact fraction string plus decimal."""
    return ratio(*Fraction(x).as_integer_ratio())


def ratio(num: int, den: int) -> dict:
    """rat(Fraction(num, den)) without building the Fraction: one gcd,
    and int true division rounds correctly just as Fraction.__float__."""
    g = gcd(num, den)
    return {"fraction": f"{num // g}/{den // g}", "decimal": f"{num / den:.12g}"}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def spec_digest(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def schedule_json(schedule: WindowSchedule) -> dict:
    return {
        "start": schedule.start,
        "ratio": str(schedule.ratio),
        "count": schedule.count,
        "end": schedule.end,
        "windows": list(schedule.windows()),
    }


def estimate_json(est: DensityEstimate) -> dict:
    return {
        "windows": list(est.windows),
        "counts": list(est.counts),
        "densities": [rat(d) for d in est.densities],
        "value": rat(est.value),
        "oscillation": rat(est.oscillation),
        "tol": rat(est.tol),
        "status": est.status,
    }


def band_json(b: BandDiagnostic) -> dict:
    return {
        "window": b.window,
        "hits": b.hits,
        "bound": rat(b.bound),
        "ok": b.ok,
    }


def verification_json(rep: VerificationReport) -> dict:
    return {
        "members": list(rep.names),
        "schedule": schedule_json(rep.schedule),
        "tol": rat(rep.tol),
        "atoms": [
            {
                "pattern": {n: b for n, b in zip(a.pattern.names, a.pattern.bits)},
                "expected": rat(a.expected),
                "counts": list(a.counts),
                "empirical": rat(a.empirical),
                "deviation": rat(a.deviation),
                "oscillation": rat(a.oscillation),
                "passed": a.passed,
            }
            for a in rep.atoms
        ],
        "band_diagnostics": [{"name": b.name, **band_json(b)} for b in rep.band_diagnostics],
        "passed": rep.passed,
    }


def bisect_json(rep: BisectReport) -> dict:
    return {
        "schedule": schedule_json(rep.schedule),
        "tol": rat(rep.tol),
        "targets": [
            {
                "name": m.name,
                "member_counts": list(m.member_counts),
                "joint_counts": list(m.joint_counts),
                "ratios": [rat(r) for r in m.ratios],
                "final": rat(m.final),
                "deviation": rat(m.deviation),
                "oscillation": rat(m.oscillation),
                "passed": m.passed,
            }
            for m in rep.members
        ],
        "passed": rep.passed,
    }


def witness_json(rep: WitnessReport) -> dict:
    return {
        "window": rep.window,
        "joint_count": rep.joint_count,
        "empirical": rat(rep.empirical),
        "declared_product": rat(rep.declared_product),
        "gap": rat(rep.gap),
        "margin": rat(rep.margin),
        "flagged": rep.flagged,
    }


def scan_json(rep: ScanReport) -> dict:
    return {
        "members": list(rep.names),
        "delta": rat(rep.delta),
        "full_coverage_expected": rep.full_coverage_expected,
        "unhit_count": len(rep.unhit),
        "cells": [
            {
                "index": c.index,
                "lo": rat(c.lo),
                "hi": rat(c.hi),
                "hit": c.hit,
                "witness": rat(c.witness) if c.witness is not None else None,
            }
            for c in rep.cells
        ],
    }


def pack_json(rep: PackResult) -> dict:
    return {
        "side": rep.side,
        "target": rat(rep.target),
        "member_densities": [rat(d) for d in rep.densities],
        "patterns": [list(p) for p in rep.patterns],
        "total": rat(rep.total),
        "excluded": [
            {"pattern": list(p), "density": rat(d)} for p, d in rep.excluded
        ],
        "certificate_ok": rep.certificate_ok(),
    }


def run_report(command: str, doc: dict, body: dict, seeds: dict, passed: bool) -> dict:
    """The report of one command: tool, spec and seeds, the body's fields,
    and the verdict."""
    return {
        "tool": {"name": "densfam", "version": __version__},
        "command": command,
        "spec_digest": spec_digest(doc),
        "spec": doc,
        "rng": {"algorithm": RNG_ALGORITHM, "seeds": seeds},
        **body,
        "passed": passed,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
