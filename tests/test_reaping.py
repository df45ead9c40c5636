"""Bisection checks, thinning extensions, dependence witnesses."""

from fractions import Fraction

import pytest

import oracles
from densfam import (
    Family,
    WindowSchedule,
    atoms,
    bisect_check,
    fixedpoint,
    from_elements,
    from_membership,
    intersect,
    intersections,
    kw_family,
    nonindependence_witness,
    omega,
    random_extension,
    thin_extension,
    verify_independence,
    window_counts,
)

EIGHTS = WindowSchedule(start=2048, ratio=Fraction(2), count=3)  # windows % 8 == 0


# -- bisection -------------------------------------------------------------


def test_bisect_exact_half(small_schedule):
    evens = from_membership(lambda n: n % 2 == 0)
    rep = bisect_check(evens, [("all", omega())], small_schedule,
                       tol=Fraction(1, 1000))
    assert rep.passed
    m = rep.members[0]
    assert m.name == "all"
    assert m.final == Fraction(1, 2)
    assert m.oscillation == 0


def test_bisect_fails_on_containment(small_schedule):
    evens = from_membership(lambda n: n % 2 == 0)
    rep = bisect_check(evens, [("evens", evens)], small_schedule)
    assert not rep.passed
    assert rep.members[0].final == 1


def test_bisect_family_targets(half_family, small_schedule):
    evens = from_membership(lambda n: n % 2 == 0)
    targets = [(name, s) for name, s, _ in half_family.items()]
    rep = bisect_check(evens, targets, small_schedule, tol=Fraction(1, 100))
    assert [m.name for m in rep.members] == ["E", "H"]
    # evens ∩ E = E so the first ratio is 1, a clear failure
    assert not rep.members[0].passed


def test_intersections_in_bitmask_order_one_and_each():
    multiples = [(f"M{d}", from_membership(lambda n, d=d: n % d == 0)) for d in (2, 3, 5)]
    got = intersections(multiples)
    assert [label for label, _ in got] == [
        "M2", "M3", "M2&M3", "M5", "M2&M5", "M3&M5", "M2&M3&M5"]
    n = 1000
    for mask, (_, s) in enumerate(got, start=1):
        ds = [d for i, d in enumerate((2, 3, 5)) if mask >> i & 1]
        assert s.prefix_count(n) == sum(all(m % d == 0 for d in ds) for m in range(n))
        top = mask.bit_length() - 1
        if mask != 1 << top:
            # one AND: the target without its last set, and that set
            assert s.op == "intersect"
            assert s.args == (got[(mask ^ 1 << top) - 1][1], multiples[top][1])
    assert intersections([]) == []


def test_bisect_empty_target_rejected(small_schedule):
    evens = from_membership(lambda n: n % 2 == 0)
    with pytest.raises(ValueError, match="no members below the first window"):
        bisect_check(evens, [("none", from_elements([]))], small_schedule)


def test_bisect_counts_are_windowed(small_schedule):
    thirds = from_membership(lambda n: n % 3 == 0)
    rep = bisect_check(thirds, [("all", omega())], small_schedule,
                       tol=Fraction(1, 100))
    m = rep.members[0]
    assert rep.schedule.windows() == small_schedule.windows()
    assert len(m.ratios) == len(rep.schedule.windows())
    assert not rep.passed  # a third is far from a half


# -- thinning extension -------------------------------------------------------


def test_thin_extension_membership(half_family):
    b = thin_extension(half_family)
    # atoms of (E, H) are the residues mod 4; thinning each keeps every
    # other occurrence, so the union is exactly {n : n mod 8 < 4}
    got = [oracles.chunk_bit(b, n) for n in range(24)]
    assert got == [n % 8 < 4 for n in range(24)]


def test_thin_extension_has_no_count_hint(half_family):
    # counting must go through the sweep so the ceiling identity below
    # compares two genuinely different routes
    b = thin_extension(half_family)
    assert b.count_hint is None


def test_thin_extension_ceiling_identity(half_family):
    b = thin_extension(half_family)
    for n in range(0, 120, 7):
        total = sum((a.prefix_count(n) + 1) // 2 for a in atoms(half_family.sets))
        assert b.prefix_count(n) == total


def test_thin_extension_density_exact_on_aligned_windows(half_family):
    b = thin_extension(half_family)
    for n in (2048, 4096, 8192):
        assert Fraction(b.prefix_count(n), n) == Fraction(1, 2)


def test_thin_extension_bisects_atoms(half_family):
    b = thin_extension(half_family)
    targets = [(f"atom{i}", a) for i, a in enumerate(atoms(half_family.sets))]
    rep = bisect_check(b, targets, EIGHTS, tol=Fraction(1, 1000))
    assert rep.passed
    for m in rep.members:
        assert m.final == Fraction(1, 2)


def test_thin_extension_enlarged_family_verifies(half_family):
    b = thin_extension(half_family)
    enlarged = half_family.extended("T", b, Fraction(1, 2))
    rep = verify_independence(enlarged, schedule=EIGHTS, tol=Fraction(1, 1000))
    assert rep.passed


@pytest.mark.parametrize("c0", [1, 4, 8])
def test_thin_extension_ranks_its_atoms_in_one_sweep(monkeypatch, c0):
    # a fresh thin extension asked for chunk c0 first ranks all 8 atoms
    # below it in one sweep, each of the 3 rotation leaves once per chunk,
    # and then reads chunk c0 itself; only chunk 0 takes the direct kernel
    calls = {"orbit_chunk_mask": [], "orbit_chunk_continue": []}
    for name, seen in calls.items():
        real = getattr(fixedpoint, name)
        monkeypatch.setattr(fixedpoint, name, lambda *a, r=real, s=seen: s.append(a) or r(*a))
    thin_extension(kw_family([2, 3, 5], ["0.3", "0.5", "0.7"])).chunk_mask(c0)
    assert [len(seen) for seen in calls.values()] == [3, 3 * c0]


def test_thin_extension_descriptor(half_family):
    b = thin_extension(half_family)
    assert b.descriptor["kind"] == "thin-ext"
    assert b.descriptor["family"] == ["E", "H"]


# -- dependence witness ----------------------------------------------------------


def test_witness_flags_biased_extension(kw_pair):
    sched = WindowSchedule(start=10_000, ratio=Fraction(2), count=4)
    b, params = random_extension(kw_pair, "A0", Fraction(1, 2), seed=20260816)
    rep = nonindependence_witness(
        b, kw_pair.set_of("A0"), Fraction(1, 2), Fraction(3, 10), sched
    )
    # margin defaults to eps/2 read from the descriptor
    assert rep.margin == params.eps / 2
    assert rep.gap >= rep.margin
    assert rep.flagged


def test_witness_needs_margin_for_plain_sets(small_schedule):
    a = from_membership(lambda n: n % 2 == 0)
    b = from_membership(lambda n: n % 4 < 2)
    with pytest.raises(ValueError):
        nonindependence_witness(a, b, Fraction(1, 2), Fraction(1, 2),
                                small_schedule)


def test_witness_explicit_margin_not_flagged_for_independent(small_schedule):
    # exactly independent pair: gap is 0 at aligned windows
    a = from_membership(lambda n: n % 2 == 0)
    b = from_membership(lambda n: (n >> 1) % 2 == 0)
    rep = nonindependence_witness(a, b, Fraction(1, 2), Fraction(1, 2),
                                  EIGHTS, margin=Fraction(1, 100))
    assert rep.gap == 0
    assert not rep.flagged


def test_witness_reports_joint_count(kw_pair, small_schedule):
    b, _ = random_extension(kw_pair, "A1", Fraction(1, 2), seed=3)
    rep = nonindependence_witness(
        b, kw_pair.set_of("A1"), Fraction(1, 2), Fraction(1, 2), small_schedule
    )
    n = small_schedule.windows()[-1]
    ((joint,),) = window_counts([intersect(b, kw_pair.set_of("A1"))], (n,))
    assert rep.joint_count == joint
    assert rep.window == n
    assert rep.empirical == Fraction(joint, n)


# -- stated extension and witness identities ---------------------------------


def test_thin_extension_of_single_evens_family():
    evens = from_membership(lambda n: n % 2 == 0)
    fam = Family(("A",), (evens,), (Fraction(1, 2),))
    b = thin_extension(fam)
    odds = from_membership(lambda n: n % 2 == 1)
    for n in (1, 7, 100, 257, 4096):
        want = -(-evens.prefix_count(n) // 2) + -(-odds.prefix_count(n) // 2)
        assert b.prefix_count(n) == want
    # both atoms halve exactly, so multiples of 4 carry exactly n/4 members
    assert b.prefix_count(4096) == 2048


def test_witness_of_set_against_itself_is_flagged():
    evens = from_membership(lambda n: n % 2 == 0)
    rep = nonindependence_witness(
        evens, evens, Fraction(1, 2), Fraction(1, 2), EIGHTS,
        margin=Fraction(1, 16),
    )
    # joint density 1/2 versus product 1/4
    assert rep.empirical == Fraction(1, 2)
    assert rep.declared_product == Fraction(1, 4)
    assert rep.gap == Fraction(1, 4)
    assert rep.flagged


def test_witness_is_symmetric_in_its_arguments():
    a = from_membership(lambda n: n % 3 == 0)
    b = from_membership(lambda n: n % 4 < 2)
    lhs = nonindependence_witness(
        a, b, Fraction(1, 3), Fraction(1, 2), EIGHTS, margin=Fraction(1, 50)
    )
    rhs = nonindependence_witness(
        b, a, Fraction(1, 2), Fraction(1, 3), EIGHTS, margin=Fraction(1, 50)
    )
    assert lhs.joint_count == rhs.joint_count
    assert lhs.gap == rhs.gap
    assert lhs.flagged == rhs.flagged
