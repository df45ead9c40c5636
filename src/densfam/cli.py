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
from itertools import chain
from typing import Iterable, Optional

from .constructors import (
    KWSet,
    atom_density,
    greedy_atom_pack,
    random_extension,
)
from .density import (
    DensityEstimate,
    WindowSchedule,
    as_fraction,
    default_tolerance,
)
from .fixedpoint import check_index_bound
from .reaping import WitnessReport, bisect_check, thin_extension
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
from .sets import SetBase, intersect, window_counts
from .specfile import LoadedSpec, SpecError, load_spec, parse_rational, read_spec_file
from .verify import BandDiagnostic, field_values, verify_independence

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
    except (ValueError, ZeroDivisionError) as e:
        raise SpecError(f"bad --schedule: {e}") from None


def _load(args) -> LoadedSpec:
    return load_spec(read_spec_file(args.spec), default_seed=args.seed)


def _named_set(spec: LoadedSpec, name: str) -> SetBase:
    if name not in spec.sets:
        raise ValueError(f"unknown set {name!r}")
    return spec.sets[name]


def _resolve_schedule(spec: LoadedSpec, args) -> WindowSchedule:
    sched = spec.schedule
    if args.schedule is not None:
        sched = _parse_schedule_flag(args.schedule)
    if args.prefix is not None:
        sched = sched.retarget(args.prefix)
    # rotation sets reject windows past their validity limit themselves,
    # but only once a sweep reaches that far; fail before the sweep
    if any(isinstance(s, KWSet) for s in spec.sets.values()):
        check_index_bound(sched.windows()[-1])
    return sched


def _resolve_tol(spec: LoadedSpec, args) -> Optional[Fraction]:
    return spec.tol if args.tol is None else parse_rational(args.tol, "--tol")


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


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _decimal(x: Fraction) -> str:
    return f"{float(x):.12g}"


def _finish(
    args,
    spec: LoadedSpec,
    body: dict,
    passed: bool,
    summary: str,
    table: Optional[tuple[list[str], Iterable[list]]] = None,
    label: Optional[str] = None,
) -> int:
    """The tail of every command: write the JSON run report, or with
    --format table the TSV of table = (header, rows); print the
    "<label>: <summary>" line on stderr; map the verdict to the exit code."""
    if table is not None and args.format == "table":
        header, rows = table
        text = "".join("\t".join(map(str, row)) + "\n" for row in chain([header], rows))
    else:
        report = run_report(args.command, spec.doc, body, seeds=spec.seeds, passed=passed)
        text = render_report(report)
    _emit(text, args)
    print(f"{label or args.command}: {summary}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- construct ----------------------------------------------------------


def cmd_construct(args) -> int:
    spec = _load(args)
    family = spec.require_family()
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args)
    windows = sched.windows()
    n_max = windows[-1]

    entries = []
    rows = []
    passed = True
    counts = window_counts(family.sets, windows, args.workers)
    for (name, s, declared), set_counts in zip(family.items(), counts):
        randomized = s.descriptor.get("kind") == "random-ext"
        set_tol = tol if tol is not None else default_tolerance(n_max, randomized)
        est = DensityEstimate.of(windows, set_counts, set_tol)
        passed = passed and est.converged
        entry = {
            "name": name,
            "kind": s.descriptor.get("kind"),
            "declared": rat(declared),
            "estimate": estimate_json(est),
            "declared_gap": rat(abs(est.value - declared)),
        }
        if isinstance(s, KWSet):
            entry["band"] = band_json(BandDiagnostic.of(name, s, n_max))
        entries.append(entry)
        for w, c, d in zip(est.windows, est.counts, est.densities):
            rows.append([name, w, c, _decimal(d)])

    return _finish(
        args, spec, {"schedule": schedule_json(sched), "sets": entries}, passed,
        f"{_verdict(passed)} ({len(entries)} sets, max window {n_max})",
        (["set", "window", "count", "density"], rows),
    )


# -- verify -------------------------------------------------------------


def cmd_verify(args) -> int:
    spec = _load(args)
    family = spec.require_family()
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args)
    rep = verify_independence(family, args.names or None, sched, tol, workers=args.workers)

    worst = max(rep.atoms, key=lambda a: a.deviation)
    rows = (
        [a.pattern.label(), w, c, _decimal(d), _decimal(a.expected)]
        for a in rep.atoms
        for w, c, d in zip(a.windows, a.counts, a.densities)
    )
    return _finish(
        args, spec, verification_json(rep), rep.passed,
        f"{_verdict(rep.passed)} ({len(rep.atoms)} patterns, tol {float(rep.tol):.6g}, "
        f"worst deviation {float(worst.deviation):.6g} at {worst.pattern.label()})",
        (["pattern", "window", "count", "density", "expected"], rows),
    )


# -- image --------------------------------------------------------------


def cmd_image(args) -> int:
    spec = _load(args)
    family = spec.require_family()
    grid = parse_rational(args.grid, "--grid")
    values = field_values(family, args.names or None)
    scan = values.scan(grid)
    rendered = [
        {**ratio(n, values.denominator), "multiplicity": m} for n, m in values.counts.items()
    ]
    element_count = sum(values.counts.values())

    body = {
        "members": list(values.names),
        "element_count": element_count,
        "values": rendered,
        "scan": scan_json(scan),
    }
    rows = ([r["fraction"], r["decimal"], r["multiplicity"]] for r in rendered)
    return _finish(
        args, spec, body, True,
        f"{element_count} elements, {len(rendered)} distinct values, "
        f"{len(scan.unhit)} unhit cells at grid {args.grid}",
        (["value", "decimal", "multiplicity"], rows),
    )


# -- reap ---------------------------------------------------------------


def cmd_reap(args) -> int:
    spec = _load(args)
    sched = _resolve_schedule(spec, args)
    tol = _resolve_tol(spec, args)
    if tol is None:
        tol = Fraction(5, 1000)
    s = _named_set(spec, args.set)
    if not args.targets and not args.intersections:
        raise ValueError("no targets: give target names or --intersections")

    targets: list[tuple[str, SetBase]] = []
    if args.intersections:
        names = [n.strip() for n in args.intersections.split(",") if n.strip()]
        members = [_named_set(spec, n) for n in names]
        for mask in range(1, 1 << len(names)):
            picked = [i for i in range(len(names)) if (mask >> i) & 1]
            sets = [members[i] for i in picked]
            expr = sets[0] if len(sets) == 1 else intersect(*sets)
            targets.append(("&".join(names[i] for i in picked), expr))
    targets += [(n, _named_set(spec, n)) for n in args.targets]

    rep = bisect_check(s, targets, sched, tol, workers=args.workers)

    worst = max(rep.members, key=lambda m: m.deviation)
    rows = (
        [m.name, w, mc, jc, _decimal(r)]
        for m in rep.members
        for w, mc, jc, r in zip(m.windows, m.member_counts, m.joint_counts, m.ratios)
    )
    return _finish(
        args, spec, {"set": args.set, **bisect_json(rep)}, rep.passed,
        f"{_verdict(rep.passed)} ({len(rep.members)} targets, "
        f"worst deviation {float(worst.deviation):.6g} at {worst.name})",
        (["target", "window", "member_count", "joint_count", "ratio"], rows),
    )


# -- extend -------------------------------------------------------------


def cmd_extend(args) -> int:
    spec = _load(args)
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
        summary = f"enlarged verify {_verdict(passed)}"
    else:
        if not args.distinguished:
            raise ValueError("--distinguished is required for random mode")
        seed = args.seed
        if seed is None:
            raise ValueError("--seed is required for random mode")
        target = parse_rational(args.target, "--target")
        new_set, params = random_extension(base, args.distinguished, target, seed)
        descriptor = {
            "name": args.name,
            "kind": "random-ext",
            "family": list(base.names),
            "distinguished": args.distinguished,
            "target": str(target),
            "seed": seed,
        }
        windows = sched.windows()
        joint = intersect(new_set, base.set_of(args.distinguished))
        own, joint_counts = window_counts([new_set, joint], windows, args.workers)
        est = DensityEstimate.of(windows, own, tol if tol is not None
                                 else default_tolerance(windows[-1], True))
        wit = WitnessReport.of(windows[-1], joint_counts[-1],
                               params.target * params.base_density, params.eps / 2)
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

    return _finish(args, spec, body, passed, f"{_verdict(passed)} ({summary})",
                   label=f"extend[{args.mode}]")


# -- pack ---------------------------------------------------------------


def cmd_pack(args) -> int:
    spec = _load(args)
    family = spec.require_family()
    base = family.subfamily(args.members.split(",")) if args.members else family
    result = greedy_atom_pack(base, args.side, parse_rational(args.target, "--target"))

    passed = result.certificate_ok()
    rows = (
        ["".join(map(str, p)), _decimal(atom_density(result.densities, p))]
        for p in result.patterns
    )
    return _finish(
        args, spec, pack_json(result), passed,
        f"{_verdict(passed)} ({len(result.patterns)} patterns, "
        f"total {float(result.total):.6g} < target {float(result.target):.6g})",
        (["pattern", "density"], rows),
    )


# -- parser ---------------------------------------------------------------


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _counting_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prefix", type=int, default=None,
                   help="pin the largest window to exactly N")
    p.add_argument("--tol", default=None, help="tolerance as a rational, e.g. 0.005")
    p.add_argument("--schedule", default=None,
                   help="window schedule START,RATIO,COUNT")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="worker count for window counting (results identical)")


def _table_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("report", "table"), default="report",
                   help="JSON run report or TSV table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densfam",
        description="Families of integer sets with prescribed densities: "
        "construction and empirical independence certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *flag_groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="path to a JSON family spec")
        p.add_argument("--seed", type=int, default=None,
                       help="default seed for randomized entries")
        p.add_argument("--out", default=None,
                       help=f"output path (relative paths honor ${OUT_DIR_ENV})")
        for add_flags in flag_groups:
            add_flags(p)
        return p

    command("construct", "build the family and estimate densities", _counting_flags, _table_flag)

    p = command("verify", "certify the product rule over sign patterns",
                _counting_flags, _table_flag)
    p.add_argument("names", nargs="*", help="member subset to verify (default: all)")

    p = command("image", "expected densities over the generated field", _table_flag)
    p.add_argument("names", nargs="*", help="member subset (default: all)")
    p.add_argument("--grid", default="0.01", help="coverage grid step")

    p = command("reap", "bisection check against target sets",
                _counting_flags, _table_flag)
    p.add_argument("set", help="the bisecting set's name")
    p.add_argument("targets", nargs="*", help="target set names")
    p.add_argument("--intersections", default=None,
                   help="comma-separated member names; adds all nonempty "
                        "intersections as targets")

    p = command("extend", "build and check a family extension", _counting_flags)
    p.add_argument("--mode", choices=("thin", "random"), required=True)
    p.add_argument("--name", default="EXT", help="name for the new member")
    p.add_argument("--family", default=None,
                   help="comma-separated base member names (default: all)")
    p.add_argument("--distinguished", default=None,
                   help="member the random extension biases against")
    p.add_argument("--target", default="1/2", help="declared density of the new member")

    p = command("pack", "greedy pattern packing below a density budget", _table_flag)
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
    except (SpecError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError, ZeroDivisionError) as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
