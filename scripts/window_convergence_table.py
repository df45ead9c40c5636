#!/usr/bin/env python3
"""Emit window-by-window density tables as TSV for external plotting.

Three contrasting behaviors on one geometric window ladder: a rotation
set converging to its threshold, a block-parity set converging to 1/2,
and a dyadic-blocks set whose prefix density oscillates forever between
1/3 and 2/3.
"""

import argparse
import sys
from fractions import Fraction

from densfam import (
    BlockParitySet,
    WindowSchedule,
    coded_independent_set,
    from_membership,
    kw_set,
    window_counts,
)


def dyadic_blocks():
    # n is kept iff floor(log2(n+1)) is even: [0,1), [3,7), [15,31), ...
    return from_membership(lambda n: ((n + 1).bit_length() - 1) % 2 == 0)


def parse_schedule(text: str) -> WindowSchedule:
    start, ratio, count = text.split(",")
    return WindowSchedule(int(start), Fraction(ratio), int(count))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--schedule", default="1000,2,10",
                    help="START,RATIO,COUNT geometric window ladder")
    ap.add_argument("--out", default=None, help="write TSV here instead of stdout")
    args = ap.parse_args(argv)

    sched = parse_schedule(args.schedule)
    windows = sched.windows()
    subjects = [
        ("rotation(2, 0.3)", kw_set(2, Fraction(3, 10)), Fraction(3, 10)),
        ("block-parity", BlockParitySet(coded_independent_set((0,), 4)),
         Fraction(1, 2)),
        ("dyadic-blocks", dyadic_blocks(), None),
    ]

    lines = ["set\twindow\tcount\tdensity\ttarget"]
    for name, s, target in subjects:
        for w, c in zip(windows, window_counts([s], windows)[0]):
            tgt = "" if target is None else f"{float(target):.6f}"
            lines.append(f"{name}\t{w}\t{c}\t{c / w:.8f}\t{tgt}")
    text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
