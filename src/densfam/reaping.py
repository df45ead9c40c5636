"""Bisection checks and family extensions.

A set S bisects a set B when the fraction of B's members below n that
also lie in S tends to 1/2.  ``thin_extension`` builds a density-1/2
set that provably bisects every nonempty intersection from a family, by
keeping every other member of each sign-pattern intersection; its counts
obey an exact ceiling identity, so the bisection error at n is at most
2**k indices.  ``nonindependence_witness`` reports the gap between an
intersection's empirical density and the product of declared densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Union

from .constructors import Family
from .density import (
    DEFAULT_SCHEDULE,
    DEFAULT_TOL,
    Rational,
    WindowSchedule,
    as_fraction,
    tail_check,
)
from .sets import SetBase, intersect, thin, union, window_counts
from .verify import atom


@dataclass(frozen=True)
class BisectMemberReport:
    name: str
    windows: tuple[int, ...]
    member_counts: tuple[int, ...]
    joint_counts: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    final: Fraction
    deviation: Fraction
    oscillation: Fraction
    passed: bool


@dataclass(frozen=True)
class BisectReport:
    schedule: WindowSchedule
    tol: Fraction
    members: tuple[BisectMemberReport, ...]
    passed: bool


def _named_sets(r: Union[Family, Sequence]) -> list[tuple[str, SetBase]]:
    """(name, set) pairs of a family, or of a sequence of sets and
    (name, set) tuples, where a bare set at position i is named R<i>."""
    if isinstance(r, Family):
        return [(n, s) for n, s, _ in r.items()]
    out = []
    for i, entry in enumerate(r):
        if isinstance(entry, tuple):
            out.append((str(entry[0]), entry[1]))
        else:
            out.append((f"R{i}", entry))
    return out


def bisect_check(
    s: SetBase,
    targets: Union[Family, Sequence],
    schedule: WindowSchedule = DEFAULT_SCHEDULE,
    tol: Rational = DEFAULT_TOL,
    workers: int = 1,
) -> BisectReport:
    """Check that S bisects every target set on the schedule.

    Each target must have at least one member below the first window.
    A target passes when its final within-target ratio is within tol of
    1/2 and the last three ratios spread by at most tol.
    """
    tol_f = as_fraction(tol)
    windows = schedule.windows()
    named = _named_sets(targets)
    if not named:
        raise ValueError("need at least one target set")
    members = [b for _, b in named]
    counts = window_counts(members + [intersect(s, b) for b in members], windows, workers)
    half = Fraction(1, 2)
    reports = []
    all_pass = True
    for (name, _), member_counts, joint_counts in zip(named, counts, counts[len(named):]):
        if member_counts[0] == 0:
            raise ValueError(
                f"target {name!r} has no members below the first window {windows[0]}"
            )
        ratios = tuple(Fraction(j, m) for j, m in zip(joint_counts, member_counts))
        dev, osc, ok = tail_check(ratios, half, tol_f)
        all_pass = all_pass and ok
        reports.append(
            BisectMemberReport(
                name=name,
                windows=windows,
                member_counts=member_counts,
                joint_counts=joint_counts,
                ratios=ratios,
                final=ratios[-1],
                deviation=dev,
                oscillation=osc,
                passed=ok,
            )
        )
    return BisectReport(schedule=schedule, tol=tol_f, members=tuple(reports), passed=all_pass)


def thin_extension(family: Family) -> SetBase:
    """Union of the thinned sign-pattern intersections of the family.

    Every sign pattern keeps exactly the even-rank members of its
    intersection, so within each intersection the new set holds
    ceil(count/2) of the first n indices: it bisects every nonempty
    intersection up to a one-index rounding error per pattern, and its
    own density is 1/2.  The returned set is the union's chunks under
    the family's descriptor and carries no counting shortcut; its counts
    come from actual membership masks, which keeps count cross-checks
    meaningful.
    """
    patterns = product((0, 1), repeat=len(family.names))
    thins = [thin(atom(family, bits)) for bits in patterns]
    descriptor = {"kind": "thin-ext", "family": list(family.names)}
    return SetBase(descriptor, chunk_fn=union(*thins).chunk_mask)


@dataclass(frozen=True)
class WitnessReport:
    """Empirical product-rule gap between two sets."""

    window: int
    joint_count: int
    empirical: Fraction
    declared_product: Fraction
    gap: Fraction
    margin: Fraction
    flagged: bool

    @classmethod
    def of(
        cls, window: int, joint_count: int, declared_product: Fraction, margin: Fraction
    ) -> "WitnessReport":
        """The gap between the joint count's density at the window and the
        declared product, flagged when it reaches margin."""
        empirical = Fraction(joint_count, window)
        gap = abs(empirical - declared_product)
        return cls(window, joint_count, empirical, declared_product, gap, margin, gap >= margin)


def nonindependence_witness(
    b: SetBase,
    a: SetBase,
    b_density: Rational,
    a_density: Rational,
    schedule: WindowSchedule = DEFAULT_SCHEDULE,
    margin: Optional[Rational] = None,
) -> WitnessReport:
    """Compare the empirical density of B ∩ A at the largest window with
    the product of the declared densities.

    The gap is flagged when it reaches `margin`.  If no margin is given
    and B was built by a biased-coin extension, half its built-in bias
    is used; otherwise a margin is required.
    """
    if margin is None:
        params = b.descriptor.get("params") if isinstance(b.descriptor, dict) else None
        if params and "eps" in params:
            margin_f = Fraction(params["eps"]) / 2
        else:
            raise ValueError("margin required when the set carries no built-in bias")
    else:
        margin_f = as_fraction(margin)
    n_max = schedule.windows()[-1]
    joint = intersect(b, a).prefix_count(n_max)
    declared = as_fraction(b_density) * as_fraction(a_density)
    return WitnessReport.of(n_max, joint, declared, margin_f)
