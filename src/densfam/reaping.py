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
from typing import Optional, Sequence

from .constructors import Family
from .density import (
    DEFAULT_SCHEDULE,
    DEFAULT_TOL,
    Rational,
    WindowSchedule,
    as_fraction,
    tail_check,
)
from .sets import SetBase, intersect, thin, window_counts
from .verify import atoms


@dataclass(frozen=True)
class BisectMemberReport:
    name: str
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


def intersections(named: Sequence[tuple[str, SetBase]]) -> list[tuple[str, SetBase]]:
    """The 2**k - 1 nonempty intersections of k (name, set) pairs as ("A&B",
    set) pairs, in bitmask order with the first pair's bit least; each is
    one AND of an earlier one with one set."""
    out: list[tuple[str, SetBase]] = []
    for name, s in named:
        out += [(name, s)] + [(f"{label}&{name}", intersect(t, s)) for label, t in out]
    return out


def bisect_check(
    s: SetBase,
    targets: Sequence[tuple[str, SetBase]],
    schedule: WindowSchedule = DEFAULT_SCHEDULE,
    tol: Rational = DEFAULT_TOL,
    workers: int = 1,
) -> BisectReport:
    """Check that S bisects every target set, given as (name, set)
    pairs, on the schedule.

    Each target must have at least one member below the first window.
    A target passes when its final within-target ratio is within tol of
    1/2 and the last three ratios spread by at most tol.
    """
    tol_f = as_fraction(tol)
    windows = schedule.windows()
    if not targets:
        raise ValueError("need at least one target set")
    members = [b for _, b in targets]
    counts = window_counts(members + [intersect(s, b) for b in members], windows, workers)
    half = Fraction(1, 2)
    reports = []
    for (name, _), member_counts, joint_counts in zip(targets, counts, counts[len(targets):]):
        if member_counts[0] == 0:
            raise ValueError(
                f"target {name!r} has no members below the first window {windows[0]}"
            )
        ratios = tuple(Fraction(j, m) for j, m in zip(joint_counts, member_counts))
        dev, osc, ok = tail_check(ratios, half, tol_f)
        reports.append(
            BisectMemberReport(
                name=name,
                member_counts=member_counts,
                joint_counts=joint_counts,
                ratios=ratios,
                final=ratios[-1],
                deviation=dev,
                oscillation=osc,
                passed=ok,
            )
        )
    return BisectReport(schedule=schedule, tol=tol_f, members=tuple(reports),
                        passed=all(m.passed for m in reports))


def thin_extension(family: Family) -> SetBase:
    """One thinning of the family's sign-pattern intersections, taken
    from atoms(): at most MAX_VERIFY_MEMBERS members, and one fewer to
    verify the enlarged family.

    The thin node keeps exactly the even-rank members of every atom, so
    within each intersection the new set holds ceil(count/2) of the first
    n indices: it bisects every nonempty intersection up to a one-index
    rounding error per pattern, and its own density is 1/2.  The returned
    set is that node's chunks under the family's descriptor and carries no
    counting shortcut; its counts come from actual membership masks,
    which keeps count cross-checks meaningful.

    The set records the family's sets as ``thins``, and
    verify_independence checks it wherever it sits.  It finds the verified
    members among those set objects, S (names would not do: two families
    may name different sets alike), and groups the atom counts by the bits
    of S and of this set.  A group is m = 2**(k - |S|) thinned atoms, so
    of its c indices the set keeps from ceil(c/2) to floor((c + m)/2):
    the exact ceiling identity when S holds all k sets, a looser bound as
    m grows, and with S empty a bound on the set's own count.
    """
    ext = SetBase({"kind": "thin-ext", "family": list(family.names)},
                  chunk_fn=thin(*atoms(family.sets)).chunk_mask)
    ext.thins = family.sets
    return ext


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
