"""Acceptance suite: eight end-to-end criteria at their stated
tolerances.  Run with `pytest tests/test_acceptance.py -s` to see one
PASS/FAIL line per criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from densfam import (
    ExtensionParams,
    WindowSchedule,
    alignment_block,
    atom,
    bisect_check,
    block_bounds,
    block_transform,
    coded_independent_set,
    estimate_density,
    field_elements,
    gap_family,
    greedy_atom_pack,
    intersect,
    kw_family,
    nonindependence_witness,
    random_extension,
    thin_extension,
    verify_independence,
    window_counts,
)
from densfam.reports import canonical_json, verification_json

TOL = Fraction(5, 1000)
N_FULL = 10**6
PINNED_SEED = 20260816


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def kw3():
    return kw_family([2, 3, 5], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])


@pytest.fixture(scope="module")
def sched_full():
    return WindowSchedule().retarget(N_FULL)


def test_acceptance_1_rotation_family_product_rule(kw3, sched_full):
    t0 = time.monotonic()
    rep = verify_independence(kw3, schedule=sched_full, tol=TOL, workers=1)
    elapsed = time.monotonic() - t0
    ok = rep.passed and len(rep.atoms) == 8 and elapsed <= 60.0
    worst = max(a.deviation for a in rep.atoms)
    report(1, ok, f"kw {{2,3,5}} all 8 atoms within 5e-3 at 1e6, "
                  f"worst {float(worst):.2e}, {elapsed:.1f}s")
    assert rep.passed
    assert all(a.deviation <= TOL for a in rep.atoms)
    assert elapsed <= 60.0


def test_acceptance_2_block_alignment_exact_shares():
    classical = [coded_independent_set(s, 4) for s in ("00", "01", "10")]
    fam = block_transform(classical, names=("B0", "B1", "B2"))
    m0 = alignment_block(classical)
    ok = m0 == 8
    checked = 0
    if ok:
        for m in range(m0, 9):
            start, end = block_bounds(m)
            share, rem = divmod(end - start, 8)
            if rem:
                ok = False
                break
            for i in range(8):
                bits = tuple((i >> j) & 1 for j in range(3))
                got = atom(fam, bits).count_range(start, end)
                checked += 1
                if got != share:
                    ok = False
    report(2, ok, f"block transform aligned at m0={m0}, "
                  f"{checked} atom/block counts exactly 1/8 shares")
    assert m0 == 8
    assert ok


def test_acceptance_3_thin_extension_enlarged_family(sched_full):
    fam = kw_family([2, 3], [Fraction(3, 10), Fraction(1, 2)])
    b = thin_extension(fam)
    enlarged = fam.extended("T", b, Fraction(1, 2))
    rep = verify_independence(enlarged, schedule=sched_full, tol=TOL)

    atoms = [atom(fam, (i >> 1 & 1, i & 1)) for i in range(4)]
    rng = np.random.default_rng(PINNED_SEED)
    samples = sorted(int(n) for n in rng.integers(1, N_FULL, size=100))
    thinned, *atom_counts = window_counts([b, *atoms], samples)
    identity_ok = all(
        thinned[j] == sum((c[j] + 1) // 2 for c in atom_counts) for j in range(len(samples))
    )
    ok = rep.passed and identity_ok
    report(3, ok, "thin extension: enlarged 3-member verify at 1e6 "
                  "plus exact ceiling identity at 100 sampled prefixes")
    assert rep.passed
    assert identity_ok


def test_acceptance_4_biased_extension_pinned_seed(sched_full):
    fam = kw_family([2], [Fraction(1, 2)])
    a_set = fam.set_of("A0")
    b, params = random_extension(fam, "A0", Fraction(1, 2), seed=PINNED_SEED)

    exact = (params.eps, params.x0, params.x1, params.t0, params.t1) == (
        Fraction(1, 8), Fraction(1, 8), Fraction(3, 8),
        Fraction(1, 4), Fraction(3, 4),
    )
    est_b = estimate_density(b, sched_full, TOL)
    dev_b = abs(est_b.value - Fraction(1, 2))
    joint = intersect(b, a_set).count_range(0, N_FULL)
    dev_joint = abs(Fraction(joint, N_FULL) - Fraction(3, 8))
    wit = nonindependence_witness(b, a_set, Fraction(1, 2), Fraction(1, 2),
                                  sched_full)
    ok = exact and dev_b <= TOL and dev_joint <= TOL and wit.gap >= Fraction(1, 16)
    report(4, ok, f"biased extension seed {PINNED_SEED}: exact params, "
                  f"|dB-1/2|={float(dev_b):.2e}, |djoint-3/8|={float(dev_joint):.2e}, "
                  f"gap {float(wit.gap):.4f} >= 1/16")
    assert exact
    assert dev_b <= TOL
    assert dev_joint <= TOL
    assert wit.gap >= Fraction(1, 16)
    assert wit.flagged


def test_acceptance_5_field_image_exact(kw3):
    ds = list(kw3.densities)
    els = {e.atom_mask: e.expected for e in field_elements(kw3)}
    oracle_ok = all(
        els[mask] == oracles.element_density_ie(ds, mask) for mask in range(256)
    )
    singles = [v for m, v in els.items() if bin(m).count("1") == 1]
    sum_ok = sum(singles) == 1
    sym_ok = all(els[m ^ 255] == 1 - v for m, v in els.items())

    g = gap_family(Fraction(9, 10), 4)
    prod = g.meta["threshold_product"]
    gimg = [e.expected for e in field_elements(g)]
    gap_ok = all(not (1 - prod < v < prod) for v in gimg)

    ok = oracle_ok and sum_ok and sym_ok and gap_ok
    report(5, ok, "field image: 256 elements equal the inclusion-exclusion "
                  f"oracle exactly; gap family image avoids "
                  f"({float(1 - prod):.4f}, {float(prod):.4f})")
    assert oracle_ok
    assert sum_ok
    assert sym_ok
    assert gap_ok


def test_acceptance_6_thin_extension_bisects_intersections(kw3, sched_full):
    b = thin_extension(kw3)
    names = kw3.names
    targets = []
    for mask in range(1, 8):
        chosen = [names[i] for i in range(3) if (mask >> i) & 1]
        expr = (kw3.set_of(chosen[0]) if len(chosen) == 1
                else intersect(*(kw3.set_of(c) for c in chosen)))
        targets.append(("&".join(chosen), expr))
    rep = bisect_check(b, targets, sched_full, tol=TOL)
    worst = max(m.deviation for m in rep.members)
    ok = rep.passed and len(rep.members) == 7
    report(6, ok, f"thin extension bisects all 7 intersections at 1e6, "
                  f"worst deviation {float(worst):.2e}")
    assert rep.passed


def test_acceptance_7_greedy_pack_matches_exhaustive():
    ok = True
    cases = 0
    for k in (1, 2, 3):
        ds = [Fraction(1, 2)] * k
        for x in (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)):
            result = greedy_atom_pack(ds, 1, x)
            card, _ = oracles.brute_pack_best(ds, 1, x)
            cases += 1
            if len(result.patterns) != card or not result.certificate_ok():
                ok = False
    report(7, ok, f"greedy packing equals exhaustive maximum with valid "
                  f"certificates on {cases} density-1/2 cases")
    assert ok


def test_acceptance_8_worker_counts_byte_identical():
    # a fresh family per worker count, so every run computes its own
    # chunks instead of reading masks cached by an earlier run
    sched = WindowSchedule().retarget(200_000)
    reps = {
        w: verify_independence(
            kw_family([2, 3, 5], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]),
            schedule=sched, tol=TOL, workers=w,
        )
        for w in (1, 2, 8)
    }
    counts = {w: [a.counts for a in r.atoms] for w, r in reps.items()}
    blobs = {w: canonical_json(verification_json(r)).encode()
             for w, r in reps.items()}
    ok = counts[1] == counts[2] == counts[8] and blobs[1] == blobs[2] == blobs[8]
    report(8, ok, "verification with 1/2/8 workers returns byte-identical "
                  "counts and reports")
    assert ok
