"""Empirical certification of the product rule over sign patterns.

A family is independence-certified on a window schedule when, for every
sign pattern over the chosen members, the exact empirical density of the
pattern's intersection at the largest window sits within tolerance of
the product of declared densities, and the last windows agree with each
other to the same tolerance.  Passing is evidence on this schedule, not
a proof about the limit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Optional, Sequence

from .constructors import Family, KWSet, atom_density
from .density import (
    DEFAULT_SCHEDULE,
    Rational,
    WindowSchedule,
    as_fraction,
    default_tolerance,
    tail_check,
)
from .sets import SetBase, SetExpr, complement, intersect, omega, window_counts

MAX_VERIFY_MEMBERS = 8
MAX_FIELD_MEMBERS = 4


def pattern_label(names: Sequence[str], bits: Sequence[int]) -> str:
    """The sign pattern as "A=1,B=0": each member's name and bit."""
    return ",".join(f"{n}={b}" for n, b in zip(names, bits))


def atoms(sets: Sequence[SetBase]) -> list[SetExpr]:
    """The 2**k sign-pattern intersections of k sets, in
    product((0, 1), repeat=k) order: each set (bit 1) or its complement
    (bit 0).  They are the leaves of one tree that splits every node on
    the next set, so atoms share their prefix nodes and a sweep computes
    each node's chunk once."""
    if len(sets) > MAX_VERIFY_MEMBERS:
        raise ValueError(f"at most {MAX_VERIFY_MEMBERS} members supported here, got {len(sets)}")
    nodes = [omega()]
    for s in sets:
        out = complement(s)
        nodes = [x for n in nodes for x in (intersect(n, out), intersect(n, s))]
    return nodes


@dataclass(frozen=True)
class AtomReport:
    """One sign-pattern atom of a VerificationReport: bits[i] is 1 for
    the report's member names[i] and 0 for its complement; counts and
    densities run over the report's schedule windows."""

    bits: tuple[int, ...]
    expected: Fraction
    counts: tuple[int, ...]
    densities: tuple[Fraction, ...]
    empirical: Fraction
    deviation: Fraction
    oscillation: Fraction
    passed: bool


@dataclass(frozen=True)
class BandDiagnostic:
    """Guard-band hit counts for a threshold-comparison set."""

    name: str
    window: int
    hits: int
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.hits <= self.bound

    @classmethod
    def of(cls, name: str, s: KWSet, n: int) -> "BandDiagnostic":
        """Guard-band hits of rotation set s below n, against their bound."""
        return cls(name, n, s.band_count(n), KWSet.band_bound(n))


@dataclass(frozen=True)
class VerificationReport:
    names: tuple[str, ...]
    schedule: WindowSchedule
    tol: Fraction
    atoms: tuple[AtomReport, ...]
    band_diagnostics: tuple[BandDiagnostic, ...]
    passed: bool


def _check_count_identities(
    family: Family,
    patterns: Sequence[tuple[int, ...]],
    windows: Sequence[int],
    atom_counts: Sequence[tuple[int, ...]],
) -> None:
    """Raise ValueError unless the swept atom counts add up: to each
    window; over the atoms with a member's bit set, to its count hint,
    if it has one; and, for a thin extension, by _check_thinning's
    grouped identity, which is exact when every set it thins is verified
    and whose slack m doubles with each one that is not.  The atoms come
    from chunk kernels, and no hint reads the member's own chunks, so a
    wrong chunk bit shows up here on any window it falls below.  A
    random-ext member, or an expr member with no count hint, has no
    second count to meet."""
    for j, n in enumerate(windows):
        total = sum(counts[j] for counts in atom_counts)
        if total != n:
            raise ValueError(
                f"count identity failed at window {n}: the atoms hold {total} indices, not {n}"
            )
    for i, (name, s) in enumerate(zip(family.names, family.sets)):
        if getattr(s, "thins", None) is not None:  # set by thin_extension
            _check_thinning(i, family, patterns, windows, atom_counts)
        if s.count_hint is None:
            continue
        for j, n in enumerate(windows):
            swept = sum(c[j] for bits, c in zip(patterns, atom_counts) if bits[i])
            hinted = s.count_hint(n)
            if swept != hinted:
                raise ValueError(
                    f"count identity failed for member {name} at window {n}: "
                    f"its atoms count {swept}, its count hint {hinted}"
                )


def _check_thinning(
    i: int,
    family: Family,
    patterns: Sequence[tuple[int, ...]],
    windows: Sequence[int],
    atom_counts: Sequence[tuple[int, ...]],
) -> None:
    """Member i keeps ceil(c/2) of the c indices below n of each atom of
    the k sets it thins.  Over S, the verified members among those sets
    (matched by object identity, each set once), a pattern joins m =
    2**(k - |S|) such atoms, so member i keeps from ceil(c/2) to
    floor((c + m)/2) of its c indices, wherever member i sits."""
    thinned = Counter(map(id, family.sets[i].thins))
    ids = list(map(id, family.sets))
    shared = [j for j, x in enumerate(ids) if ids[:j].count(x) < thinned[x]]
    m = 1 << (len(family.sets[i].thins) - len(shared))
    sums: dict[tuple[int, ...], list[int]] = {}
    for bits, counts in zip(patterns, atom_counts):
        key = tuple(bits[j] for j in shared + [i])
        sums[key] = [a + c for a, c in zip(sums.get(key, [0] * len(windows)), counts)]
    for base in product((0, 1), repeat=len(shared)):
        for n, dropped, kept in zip(windows, sums[base + (0,)], sums[base + (1,)]):
            lo, hi = (dropped + kept + 1) // 2, (dropped + kept + m) // 2
            if not lo <= kept <= hi:
                label = pattern_label([family.names[j] for j in shared], base) or "(none)"
                raise ValueError(
                    f"count identity failed for member {family.names[i]} on pattern {label} at "
                    f"window {n}: it keeps {kept} of the pattern's {dropped + kept} indices, "
                    f"not {lo if lo == hi else f'{lo} to {hi}'}"
                )


def verify_independence(
    family: Family,
    schedule: WindowSchedule = DEFAULT_SCHEDULE,
    tol: Optional[Rational] = None,
    workers: int = 1,
) -> VerificationReport:
    """Check every sign pattern over the family's members on the schedule.

    An atom passes when |empirical - expected| <= tol at the largest
    window and its own last-three-window spread is at most tol.  The
    default tolerance widens to 4/sqrt(N_max) when a randomized member
    is involved.  The 2**k atoms, for at most MAX_VERIFY_MEMBERS
    members, come from atoms(); pass family.subfamily(names) to verify
    some members only.  Counts that break an exact identity (see
    _check_count_identities) raise ValueError instead of a report.
    """
    leaves = atoms(family.sets)
    windows = schedule.windows()
    if tol is None:
        randomized = any(s.descriptor.get("kind") == "random-ext" for s in family.sets)
        tol_f = default_tolerance(windows[-1], randomized)
    else:
        tol_f = as_fraction(tol)

    patterns = list(product((0, 1), repeat=len(family)))
    atom_counts = window_counts(leaves, windows, workers)
    _check_count_identities(family, patterns, windows, atom_counts)
    reports = []
    for bits, counts in zip(patterns, atom_counts):
        expected = atom_density(family.densities, bits)
        densities = tuple(Fraction(c, n) for c, n in zip(counts, windows))
        dev, osc, ok = tail_check(densities, expected, tol_f)
        reports.append(
            AtomReport(
                bits=bits,
                expected=expected,
                counts=counts,
                densities=densities,
                empirical=densities[-1],
                deviation=dev,
                oscillation=osc,
                passed=ok,
            )
        )

    diagnostics = tuple(
        BandDiagnostic.of(name, s, windows[-1])
        for name, s in zip(family.names, family.sets)
        if isinstance(s, KWSet)
    )
    return VerificationReport(
        names=family.names,
        schedule=schedule,
        tol=tol_f,
        atoms=tuple(reports),
        band_diagnostics=diagnostics,
        passed=all(a.passed for a in reports),
    )


# -- the generated field of sets ----------------------------------------


@dataclass(frozen=True)
class FieldElement:
    """A union of atoms, encoded by an atom-index bitmask: atom index i
    is the integer whose binary digits are the pattern bits, least
    member first."""

    atom_mask: int
    expected: Fraction


def _atom_numerators(densities: Sequence[Fraction]) -> tuple[list[int], int]:
    """Atom densities as integer numerators over one common denominator,
    the product of the members' denominators; entry i is the atom whose
    pattern bits read off the binary digits of i, least member first."""
    nums = [1]
    for p in densities:
        a, q = p.numerator, p.denominator
        nums = [x * (q - a) for x in nums] + [x * a for x in nums]
    return nums, prod(p.denominator for p in densities)


def _check_field_size(family: Family) -> None:
    if len(family) > MAX_FIELD_MEMBERS:
        raise ValueError(f"at most {MAX_FIELD_MEMBERS} members supported here, got {len(family)}")


def field_elements(family: Family) -> list[FieldElement]:
    """All 2**(2**k) elements of the finite field of sets generated by
    the family's k <= MAX_FIELD_MEMBERS members, with exact expected
    densities."""
    _check_field_size(family)
    atoms, den = _atom_numerators(family.densities)
    values = [0] * (1 << len(atoms))
    for mask in range(1, len(values)):
        low = (mask & -mask).bit_length() - 1
        values[mask] = values[mask & (mask - 1)] + atoms[low]
    return [FieldElement(mask, Fraction(v, den)) for mask, v in enumerate(values)]


@dataclass(frozen=True)
class FieldValues:
    """The distinct expected densities over a generated field: value n
    stands for n/denominator and is taken by counts[n] field elements;
    counts runs in ascending order of n."""

    names: tuple[str, ...]
    denominator: int
    counts: dict[int, int]
    largest_atom: int

    def scan(self, delta: Rational) -> ScanReport:
        """Report which width-delta grid cells of [0,1] contain a value.
        Full coverage is expected when the largest atom is below delta."""
        d = as_fraction(delta)
        if not 0 < d < 1:
            raise ValueError("grid step must lie strictly in (0,1)")
        den, ordered = self.denominator, list(self.counts)
        cells = []
        for j in range(-(-d.denominator // d.numerator)):  # ceil(1/delta)
            lo, hi = j * d, min((j + 1) * d, Fraction(1))
            # the first value >= lo lies in the cell when below hi; the
            # last cell, hi == 1, also keeps the value 1 itself
            i = bisect_left(ordered, -(-lo.numerator * den // lo.denominator))
            hit = i < len(ordered) and (hi == 1 or ordered[i] * hi.denominator < hi.numerator * den)
            cells.append(CellReport(j, lo, hi, hit, Fraction(ordered[i], den) if hit else None))
        full = self.largest_atom * d.denominator < d.numerator * den
        return ScanReport(self.names, d, tuple(cells), full_coverage_expected=full)


def _field_values(family: Family, max_values: int) -> FieldValues:
    """Enumerate the subset sums of the atom numerators once, grouping
    equal atoms: j of c atoms of one value add j times it in comb(c, j)
    ways, so a family of many equal-density members stays cheap, while
    genuinely distinct atom values cap out at max_values sums."""
    atoms, den = _atom_numerators(family.densities)
    sums = {0: 1}
    for value, count in sorted(Counter(atoms).items()):
        if len(sums) * (count + 1) > max_values:
            raise ValueError(
                f"field image too rich to enumerate (> {max_values} sums); "
                "scan fewer members"
            )
        ways = [comb(count, j) for j in range(count + 1)]
        grown: dict[int, int] = {}
        for s, m in sums.items():
            for j, w in enumerate(ways):
                t = s + j * value
                grown[t] = grown.get(t, 0) + m * w
        sums = grown
    return FieldValues(family.names, den, dict(sorted(sums.items())), max(atoms))


def field_values(family: Family) -> FieldValues:
    """The distinct expected densities over the field generated by the
    family's at most MAX_FIELD_MEMBERS members, with their multiplicities."""
    _check_field_size(family)
    return _field_values(family, 1 << 20)


# -- grid coverage of the field image -----------------------------------


@dataclass(frozen=True)
class CellReport:
    index: int
    lo: Fraction
    hi: Fraction
    hit: bool
    witness: Optional[Fraction]


@dataclass(frozen=True)
class ScanReport:
    names: tuple[str, ...]
    delta: Fraction
    cells: tuple[CellReport, ...]
    full_coverage_expected: bool

    @property
    def unhit(self) -> tuple[CellReport, ...]:
        return tuple(c for c in self.cells if not c.hit)


def image_density_scan(family: Family, delta: Rational, max_values: int = 1 << 20) -> ScanReport:
    """Report which width-delta grid cells of [0,1] contain an expected
    field-element density, over any number of members (see
    FieldValues.scan; the enumeration stops past max_values sums).
    Full coverage is expected when the largest atom is below delta,
    i.e. when the product of max(p, 1-p) over the members is below it.
    """
    return _field_values(family, max_values).scan(delta)
