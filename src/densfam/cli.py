"""Command-line interface.

Subcommands:

* construct -- build every family member and estimate its density
* verify    -- sign-pattern independence certification
* image     -- expected densities over the generated field, plus a
               grid-coverage scan
* reap      -- bisection check of a set against target sets
* extend    -- build a thinning or biased-coin extension and check it
* pack      -- greedy pattern packing below a density budget

Exit codes: 0 all checks passed; 1 a verification-style check failed;
2 the spec or arguments failed to parse or validate; 3 a precondition
was violated (unknown names, oversize subfamily, empty targets, ...).

Reports are deterministic: the same spec and flags produce the same
bytes for any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from .constructors import (
    KWSet,
    atom_density,
    greedy_atom_pack,
    random_extension,
)
from .density import (
    WindowSchedule,
    as_fraction,
    default_tolerance,
    estimate_density,
)
from .fixedpoint import check_index_bound
from .reaping import bisect_check, nonindependence_witness, thin_extension
from .reports import (
    band_json,
    bisect_json,
    estimate_json,
    pack_json,
    rat,
    ratio,
    render_report,
    run_report,
    scan_json,
    schedule_json,
    verification_json,
    witness_json,
)
from .sets import SetBase, intersect
from .specfile import LoadedSpec, SpecError, load_spec, read_spec_file
from .verify import field_values, verify_independence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

OUT_DIR_ENV = "DENSFAM_OUT_DIR"


def _parse_schedule_flag(text: str) -> WindowSchedule:
    parts = text.split(",")
    if len(parts) != 3:
        raise SpecError("--schedule wants START,RATIO,COUNT")
    try:
        return WindowSchedule(int(parts[0]), as_fraction(parts[1]), int(parts[2]))
    except ValueError as e:
        raise SpecError(f"bad --schedule: {e}") from None


def _resolve_schedule(spec: LoadedSpec, args) -> WindowSchedule:
    sched = spec.schedule
    if args.schedule:
        sched = _parse_schedule_flag(args.schedule)
    if args.prefix:
        sched = sched.retarget(args.prefix)
    # rotation sets reject windows past their validity limit themselves,
    # but only once a sweep reaches that far; fail before the sweep
    if any(isinstance(s, KWSet) for s in spec.sets.values()):
        check_index_bound(sched.windows()[-1])
    return sched


def _resolve_tol(spec: LoadedSpec, args) -> Optional[Fraction]:
    if args.tol is not None:
        try:
            return as_fraction(args.tol)
        except ValueError:
            raise SpecError(f"--tol is not a rational: {args.tol!r}") from None
    return spec.tol


def _emit(text: str, args) -> None:
    if args.out:
        path = args.out
        out_dir = os.environ.get(OUT_DIR_ENV)
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tsv(rows: list[list], header: list[str]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


# -- construct ----------------------------------------------------------


def cmd_construct(args) -> int:
    spec = load_spec(read_spec_file(args.spec), default_seed=args.seed)
    family = spec.require_family()
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args)
    n_max = sched.windows()[-1]

    entries = []
    rows = []
    all_converged = True
    for name, s, declared in family.items():
        randomized = s.descriptor.get("kind") == "random-ext"
        set_tol = tol if tol is not None else default_tolerance(n_max, randomized)
        est = estimate_density(s, sched, set_tol, workers=args.workers)
        all_converged = all_converged and est.converged
        entry = {
            "name": name,
            "kind": s.descriptor.get("kind"),
            "declared": rat(declared),
            "estimate": estimate_json(est),
            "declared_gap": rat(abs(est.value - declared)),
        }
        if isinstance(s, KWSet):
            entry["band"] = band_json(s, n_max)
        entries.append(entry)
        for w, c, d in zip(est.windows, est.counts, est.densities):
            rows.append([name, w, c, f"{float(d):.12g}"])

    if args.format == "table":
        _emit(_tsv(rows, ["set", "window", "count", "density"]), args)
    else:
        report = run_report(
            "construct",
            spec.doc,
            {"schedule": schedule_json(sched), "sets": entries},
            seeds=spec.seeds,
            passed=all_converged,
        )
        _emit(render_report(report), args)
    print(
        f"construct: {'PASS' if all_converged else 'FAIL'} "
        f"({len(entries)} sets, max window {n_max})",
        file=sys.stderr,
    )
    return EXIT_OK if all_converged else EXIT_CHECK_FAILED


# -- verify -------------------------------------------------------------


def cmd_verify(args) -> int:
    spec = load_spec(read_spec_file(args.spec), default_seed=args.seed)
    family = spec.require_family()
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args)
    names = args.names or None
    rep = verify_independence(family, names, sched, tol, workers=args.workers)

    if args.format == "table":
        rows = []
        for a in rep.atoms:
            for w, c, d in zip(a.windows, a.counts, a.densities):
                rows.append([a.pattern.label(), w, c, f"{float(d):.12g}",
                             f"{float(a.expected):.12g}"])
        _emit(_tsv(rows, ["pattern", "window", "count", "density", "expected"]), args)
    else:
        report = run_report(
            "verify", spec.doc, verification_json(rep), seeds=spec.seeds, passed=rep.passed
        )
        _emit(render_report(report), args)

    worst = max(rep.atoms, key=lambda a: a.deviation)
    print(
        f"verify: {'PASS' if rep.passed else 'FAIL'} "
        f"({len(rep.atoms)} patterns, tol {float(rep.tol):.6g}, "
        f"worst deviation {float(worst.deviation):.6g} at {worst.pattern.label()})",
        file=sys.stderr,
    )
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# -- image --------------------------------------------------------------


def cmd_image(args) -> int:
    spec = load_spec(read_spec_file(args.spec), default_seed=args.seed)
    family = spec.require_family()
    values = field_values(family, args.names or None)
    scan = values.scan(args.grid)
    rendered = [
        {**ratio(n, values.denominator), "multiplicity": m} for n, m in values.counts.items()
    ]
    element_count = sum(values.counts.values())

    if args.format == "table":
        rows = [[r["fraction"], r["decimal"], r["multiplicity"]] for r in rendered]
        _emit(_tsv(rows, ["value", "decimal", "multiplicity"]), args)
    else:
        body = {
            "members": list(values.names),
            "element_count": element_count,
            "values": rendered,
            "scan": scan_json(scan),
        }
        report = run_report("image", spec.doc, body, seeds=spec.seeds, passed=True)
        _emit(render_report(report), args)

    print(
        f"image: {element_count} elements, {len(rendered)} distinct values, "
        f"{len(scan.unhit)} unhit cells at grid {args.grid}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- reap ---------------------------------------------------------------


def cmd_reap(args) -> int:
    spec = load_spec(read_spec_file(args.spec), default_seed=args.seed)
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args) or Fraction(5, 1000)
    if args.set not in spec.sets:
        raise ValueError(f"unknown set {args.set!r}")
    s = spec.sets[args.set]
    if not args.targets and not args.intersections:
        raise ValueError("no targets: give target names or --intersections")

    targets: list[tuple[str, SetBase]] = []
    if args.intersections:
        names = [n.strip() for n in args.intersections.split(",") if n.strip()]
        for n in names:
            if n not in spec.sets:
                raise ValueError(f"unknown set {n!r}")
        k = len(names)
        for mask in range(1, 1 << k):
            chosen = [names[i] for i in range(k) if (mask >> i) & 1]
            label = "&".join(chosen)
            expr = (
                spec.sets[chosen[0]]
                if len(chosen) == 1
                else intersect(*(spec.sets[c] for c in chosen))
            )
            targets.append((label, expr))
    for n in args.targets:
        if n not in spec.sets:
            raise ValueError(f"unknown set {n!r}")
        targets.append((n, spec.sets[n]))

    rep = bisect_check(s, targets, sched, tol, workers=args.workers)

    if args.format == "table":
        rows = []
        for m in rep.members:
            for w, mc, jc, r in zip(m.windows, m.member_counts, m.joint_counts, m.ratios):
                rows.append([m.name, w, mc, jc, f"{float(r):.12g}"])
        _emit(_tsv(rows, ["target", "window", "member_count", "joint_count", "ratio"]), args)
    else:
        body = {"set": args.set, **bisect_json(rep)}
        report = run_report("reap", spec.doc, body, seeds=spec.seeds, passed=rep.passed)
        _emit(render_report(report), args)

    worst = max(rep.members, key=lambda m: m.deviation)
    print(
        f"reap: {'PASS' if rep.passed else 'FAIL'} "
        f"({len(rep.members)} targets, worst deviation {float(worst.deviation):.6g} "
        f"at {worst.name})",
        file=sys.stderr,
    )
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# -- extend -------------------------------------------------------------


def cmd_extend(args) -> int:
    spec = load_spec(read_spec_file(args.spec), default_seed=args.seed)
    family = spec.require_family()
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args)
    base = family.subfamily(args.family.split(",")) if args.family else family

    if args.mode == "thin":
        new_set = thin_extension(base)
        descriptor = {
            "name": args.name,
            "kind": "thin-ext",
            "family": list(base.names),
        }
        enlarged = base.extended(args.name, new_set, Fraction(1, 2))
        rep = verify_independence(enlarged, None, sched, tol, workers=args.workers)
        body = {
            "mode": "thin",
            "descriptor": descriptor,
            "declared": rat(Fraction(1, 2)),
            "check": verification_json(rep),
        }
        passed = rep.passed
        summary = f"enlarged verify {'PASS' if passed else 'FAIL'}"
    else:
        if not args.distinguished:
            raise ValueError("--distinguished is required for random mode")
        seed = args.seed
        if seed is None:
            raise ValueError("--seed is required for random mode")
        target = as_fraction(args.target)
        new_set, params = random_extension(base, args.distinguished, target, seed)
        descriptor = {
            "name": args.name,
            "kind": "random-ext",
            "family": list(base.names),
            "distinguished": args.distinguished,
            "target": str(target),
            "seed": seed,
        }
        est = estimate_density(new_set, sched,
                               tol if tol is not None
                               else default_tolerance(sched.windows()[-1], True),
                               workers=args.workers)
        wit = nonindependence_witness(
            new_set,
            base.set_of(args.distinguished),
            params.target,
            params.base_density,
            sched,
            margin=params.eps / 2,
            workers=args.workers,
        )
        body = {
            "mode": "random",
            "descriptor": descriptor,
            "params": params.as_dict(),
            "estimate": estimate_json(est),
            "witness": witness_json(wit),
        }
        # for a biased-coin extension, success means the bias is visible
        passed = wit.flagged and est.converged
        summary = (
            f"witness gap {float(wit.gap):.6g} vs margin {float(wit.margin):.6g} "
            f"({'flagged' if wit.flagged else 'NOT flagged'}), "
            f"density estimate {est.status}"
        )

    report = run_report("extend", spec.doc, body, seeds=spec.seeds, passed=passed)
    _emit(render_report(report), args)
    print(f"extend[{args.mode}]: {'PASS' if passed else 'FAIL'} ({summary})", file=sys.stderr)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- pack ---------------------------------------------------------------


def cmd_pack(args) -> int:
    spec = load_spec(read_spec_file(args.spec), default_seed=args.seed)
    family = spec.require_family()
    base = family.subfamily(args.members.split(",")) if args.members else family
    result = greedy_atom_pack(base, args.side, args.target)

    if args.format == "table":
        rows = [
            ["".join(map(str, p)), f"{float(atom_density(result.densities, p)):.12g}"]
            for p in result.patterns
        ]
        _emit(_tsv(rows, ["pattern", "density"]), args)
    else:
        report = run_report(
            "pack", spec.doc, pack_json(result), seeds=spec.seeds,
            passed=result.certificate_ok(),
        )
        _emit(render_report(report), args)

    print(
        f"pack: {'PASS' if result.certificate_ok() else 'FAIL'} "
        f"({len(result.patterns)} patterns, total {float(result.total):.6g} "
        f"< target {float(result.target):.6g})",
        file=sys.stderr,
    )
    return EXIT_OK if result.certificate_ok() else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densfam",
        description="Families of integer sets with prescribed densities: "
        "construction and empirical independence certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_format: bool = True) -> None:
        p.add_argument("spec", help="path to a JSON family spec")
        p.add_argument("--prefix", type=int, default=None,
                       help="pin the largest window to exactly N")
        p.add_argument("--tol", default=None, help="tolerance as a rational, e.g. 0.005")
        p.add_argument("--schedule", default=None,
                       help="window schedule START,RATIO,COUNT")
        p.add_argument("--seed", type=int, default=None,
                       help="default seed for randomized entries")
        p.add_argument("--out", default=None,
                       help=f"output path (relative paths honor ${OUT_DIR_ENV})")
        p.add_argument("--workers", type=int, default=1,
                       help="worker count for window counting (results identical)")
        if with_format:
            p.add_argument("--format", choices=("report", "table"), default="report",
                           help="JSON run report or TSV table")

    p = sub.add_parser("construct", help="build the family and estimate densities")
    common(p)

    p = sub.add_parser("verify", help="certify the product rule over sign patterns")
    common(p)
    p.add_argument("names", nargs="*", help="member subset to verify (default: all)")

    p = sub.add_parser("image", help="expected densities over the generated field")
    common(p)
    p.add_argument("names", nargs="*", help="member subset (default: all)")
    p.add_argument("--grid", default="0.01", help="coverage grid step")

    p = sub.add_parser("reap", help="bisection check against target sets")
    common(p)
    p.add_argument("set", help="the bisecting set's name")
    p.add_argument("targets", nargs="*", help="target set names")
    p.add_argument("--intersections", default=None,
                   help="comma-separated member names; adds all nonempty "
                        "intersections as targets")

    p = sub.add_parser("extend", help="build and check a family extension")
    common(p, with_format=False)
    p.add_argument("--format", choices=("report",), default="report")
    p.add_argument("--mode", choices=("thin", "random"), required=True)
    p.add_argument("--name", default="EXT", help="name for the new member")
    p.add_argument("--family", default=None,
                   help="comma-separated base member names (default: all)")
    p.add_argument("--distinguished", default=None,
                   help="member the random extension biases against")
    p.add_argument("--target", default="1/2", help="declared density of the new member")

    p = sub.add_parser("pack", help="greedy pattern packing below a density budget")
    common(p)
    p.add_argument("--side", type=int, choices=(0, 1), required=True,
                   help="fix the first pattern bit")
    p.add_argument("--target", required=True, help="density budget, e.g. 0.3")
    p.add_argument("--members", default=None,
                   help="comma-separated member names (default: all)")

    return parser


# built once: each parser is a web of reference cycles that only the
# cyclic collector frees, and parse_args leaves the parser unchanged
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # looked up per call, so a wrapper installed on cmd_* is honored
        return globals()[f"cmd_{args.command}"](args)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError, ZeroDivisionError) as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
