#!/usr/bin/env python3
"""End-to-end tour: build a three-member rotation family, certify its
independence numerically, enlarge it by the thinning construction, and
check that the new member bisects every nonempty intersection.

Fast by default (largest window 10^5); pass --full for the 10^6 run.
"""

import argparse
import sys
from fractions import Fraction

from densfam import (
    WindowSchedule,
    as_fraction,
    bisect_check,
    estimate_density,
    intersections,
    kw_family,
    pattern_label,
    thin_extension,
    verify_independence,
)

RADICANDS = (2, 3, 5)
THRESHOLDS = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prefix", type=int, default=100_000,
                    help="largest counting window (default 100000)")
    ap.add_argument("--full", action="store_true",
                    help="shortcut for --prefix 1000000")
    ap.add_argument("--tol", default="5/1000", help="pass tolerance")
    args = ap.parse_args(argv)

    n_max = 1_000_000 if args.full else args.prefix
    sched = WindowSchedule().retarget(n_max)
    tol = as_fraction(args.tol)

    fam = kw_family(RADICANDS, THRESHOLDS)
    print(f"windows: {', '.join(str(w) for w in sched.windows())}")
    print(f"tolerance: {tol} ({float(tol):.4g})")
    print()

    print("member densities")
    for name, s, declared in fam.items():
        est = estimate_density(s, sched, tol)
        print(f"  {name}: declared {declared}  measured {float(est.value):.6f}"
              f"  [{est.status}]")
    print()

    rep = verify_independence(fam, sched, tol)
    print(f"independence sweep over {2 ** len(fam.names)} sign patterns")
    worst = max(rep.atoms, key=lambda a: a.deviation)
    for a in rep.atoms:
        print(f"  {pattern_label(rep.names, a.bits)}  expected {float(a.expected):.6f}"
              f"  measured {float(a.empirical):.6f}"
              f"  deviation {float(a.deviation):.2e}")
    print(f"  worst deviation {float(worst.deviation):.2e}"
          f"  -> {'PASS' if rep.passed else 'FAIL'}")
    print()

    enlarged = fam.extended("B", thin_extension(fam), Fraction(1, 2))
    rep2 = verify_independence(enlarged, sched, tol)
    print(f"after thinning extension: {2 ** len(enlarged.names)} patterns,"
          f" worst deviation"
          f" {float(max(a.deviation for a in rep2.atoms)):.2e}"
          f" -> {'PASS' if rep2.passed else 'FAIL'}")
    print()

    targets = intersections(list(zip(fam.names, fam.sets)))
    bis = bisect_check(enlarged.set_of("B"), targets, sched, tol)
    print(f"bisection of all {len(targets)} nonempty intersections")
    for m in bis.members:
        print(f"  within {m.name}: ratio {float(m.final):.6f}"
              f"  deviation {float(m.deviation):.2e}"
              f"  {'ok' if m.passed else 'FAIL'}")
    ok = rep.passed and rep2.passed and bis.passed
    print()
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
