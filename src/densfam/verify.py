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
from .sets import SetExpr, complement, intersect, window_counts

MAX_VERIFY_MEMBERS = 5
MAX_FIELD_MEMBERS = 4


@dataclass(frozen=True)
class SignPattern:
    """Membership/complement selector over an ordered tuple of names."""

    names: tuple[str, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.bits):
            raise ValueError("pattern arity mismatch")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("pattern bits must be 0 or 1")

    def label(self) -> str:
        return ",".join(f"{n}={b}" for n, b in zip(self.names, self.bits))


def _resolve_names(family: Family, names: Optional[Sequence[str]], cap: int) -> tuple[str, ...]:
    chosen = tuple(names) if names is not None else family.names
    if len(chosen) == 0:
        raise ValueError("need at least one member")
    if len(set(chosen)) != len(chosen):
        raise ValueError("member names must be distinct")
    for n in chosen:
        family.index(n)  # raises KeyError for unknown names
    if len(chosen) > cap:
        raise ValueError(f"at most {cap} members supported here, got {len(chosen)}")
    return chosen


def atom(family: Family, bits: Sequence[int], names: Optional[Sequence[str]] = None) -> SetExpr:
    """Intersection selecting each named member (bit 1) or its
    complement (bit 0)."""
    chosen = tuple(names) if names is not None else family.names
    if len(bits) != len(chosen):
        raise ValueError("one bit per member required")
    parts = []
    for name, b in zip(chosen, bits):
        s = family.set_of(name)
        parts.append(s if b else complement(s))
    return intersect(*parts)


def expected_atom_density(
    family: Family, bits: Sequence[int], names: Optional[Sequence[str]] = None
) -> Fraction:
    chosen = tuple(names) if names is not None else family.names
    densities = [family.density_of(n) for n in chosen]
    return atom_density(densities, bits)


@dataclass(frozen=True)
class AtomReport:
    pattern: SignPattern
    expected: Fraction
    windows: tuple[int, ...]
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

    def atom_by_bits(self, bits: Sequence[int]) -> AtomReport:
        for a in self.atoms:
            if a.pattern.bits == tuple(bits):
                return a
        raise KeyError(f"no atom with bits {bits}")


def _family_is_randomized(family: Family, names: Sequence[str]) -> bool:
    return any(
        family.set_of(n).descriptor.get("kind") == "random-ext" for n in names
    )


def verify_independence(
    family: Family,
    names: Optional[Sequence[str]] = None,
    schedule: WindowSchedule = DEFAULT_SCHEDULE,
    tol: Optional[Rational] = None,
    workers: int = 1,
) -> VerificationReport:
    """Check every sign pattern over the chosen members on the schedule.

    An atom passes when |empirical - expected| <= tol at the largest
    window and its own last-three-window spread is at most tol.  The
    default tolerance widens to 4/sqrt(N_max) when a randomized member
    is involved.
    """
    chosen = _resolve_names(family, names, MAX_VERIFY_MEMBERS)
    windows = schedule.windows()
    if tol is None:
        tol_f = default_tolerance(windows[-1], _family_is_randomized(family, chosen))
    else:
        tol_f = as_fraction(tol)

    patterns = list(product((0, 1), repeat=len(chosen)))
    atoms = [atom(family, bits, chosen) for bits in patterns]
    reports = []
    all_pass = True
    for bits, counts in zip(patterns, window_counts(atoms, windows, workers)):
        expected = expected_atom_density(family, bits, chosen)
        densities = tuple(Fraction(c, n) for c, n in zip(counts, windows))
        dev, osc, ok = tail_check(densities, expected, tol_f)
        all_pass = all_pass and ok
        reports.append(
            AtomReport(
                pattern=SignPattern(chosen, bits),
                expected=expected,
                windows=windows,
                counts=counts,
                densities=densities,
                empirical=densities[-1],
                deviation=dev,
                oscillation=osc,
                passed=ok,
            )
        )

    diagnostics = []
    for name in chosen:
        s = family.set_of(name)
        if isinstance(s, KWSet):
            diagnostics.append(BandDiagnostic.of(name, s, windows[-1]))

    return VerificationReport(
        names=chosen,
        schedule=schedule,
        tol=tol_f,
        atoms=tuple(reports),
        band_diagnostics=tuple(diagnostics),
        passed=all_pass,
    )


# -- the generated field of sets ----------------------------------------


@dataclass(frozen=True)
class FieldElement:
    """A union of atoms, encoded by an atom-index bitmask: atom index i
    is the integer whose binary digits are the pattern bits, least
    member first."""

    names: tuple[str, ...]
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


def field_elements(
    family: Family, names: Optional[Sequence[str]] = None
) -> list[FieldElement]:
    """All 2**(2**k) elements of the finite field of sets generated by k
    members, with exact expected densities."""
    chosen = _resolve_names(family, names, MAX_FIELD_MEMBERS)
    atoms, den = _atom_numerators([family.density_of(n) for n in chosen])
    values = [0] * (1 << len(atoms))
    for mask in range(1, len(values)):
        low = (mask & -mask).bit_length() - 1
        values[mask] = values[mask & (mask - 1)] + atoms[low]
    return [FieldElement(chosen, mask, Fraction(v, den)) for mask, v in enumerate(values)]


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


def _field_values(family: Family, chosen: tuple[str, ...], max_values: int) -> FieldValues:
    """Enumerate the subset sums of the atom numerators once, grouping
    equal atoms: j of c atoms of one value add j times it in comb(c, j)
    ways, so a family of many equal-density members stays cheap, while
    genuinely distinct atom values cap out at max_values sums."""
    atoms, den = _atom_numerators([family.density_of(n) for n in chosen])
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
    return FieldValues(chosen, den, dict(sorted(sums.items())), max(atoms))


def field_values(family: Family, names: Optional[Sequence[str]] = None) -> FieldValues:
    """The distinct expected densities over the field generated by at
    most MAX_FIELD_MEMBERS members, with their multiplicities."""
    return _field_values(family, _resolve_names(family, names, MAX_FIELD_MEMBERS), 1 << 20)


def field_image(family: Family, names: Optional[Sequence[str]] = None) -> tuple[Fraction, ...]:
    """The multiset of expected densities over the generated field,
    sorted ascending (duplicates kept)."""
    return tuple(sorted(e.expected for e in field_elements(family, names)))


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


def image_density_scan(
    family: Family,
    delta: Rational,
    names: Optional[Sequence[str]] = None,
    max_values: int = 1 << 20,
) -> ScanReport:
    """Report which width-delta grid cells of [0,1] contain an expected
    field-element density, over any number of members (see
    FieldValues.scan; the enumeration stops past max_values sums).
    Full coverage is expected when the largest atom is below delta,
    i.e. when the product of max(p, 1-p) over the members is below it.
    """
    chosen = _resolve_names(family, names, len(family.names))
    return _field_values(family, chosen, max_values).scan(delta)
