"""Sign-pattern atoms, product-rule verification, field images."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from densfam import (
    Family,
    SignPattern,
    WindowSchedule,
    atom,
    complement,
    expected_atom_density,
    field_elements,
    field_image,
    field_values,
    from_membership,
    image_density_scan,
    kw_family,
    kw_set,
    random_extension,
    thin_extension,
    verify_independence,
)
from densfam.verify import MAX_FIELD_MEMBERS, MAX_VERIFY_MEMBERS


def exact_family(k):
    """k residue-coded sets mod 2**k, pairwise exactly independent."""
    sets = tuple(
        from_membership(lambda n, j=j: (n >> j) & 1 == 0) for j in range(k)
    )
    names = tuple(f"P{j}" for j in range(k))
    return Family(names, sets, (Fraction(1, 2),) * k)


# -- patterns and atoms -------------------------------------------------------


def test_sign_pattern_label():
    p = SignPattern(("A", "B"), (1, 0))
    assert p.label() == "A=1,B=0"


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern(("A",), (1, 0))
    with pytest.raises(ValueError):
        SignPattern(("A",), (2,))


def test_atom_membership(half_family):
    a = atom(half_family, (1, 0))
    # E and not H: n even, n mod 4 in {2, 3} -> n mod 4 == 2
    members = {n for n in range(40) if a.member(n)}
    assert members == {n for n in range(40) if n % 4 == 2}


def test_atom_all_ones_is_intersection(kw_pair):
    a = atom(kw_pair, (1, 1))
    for n in (0, 13, 500):
        assert a.member(n) == (kw_pair.sets[0].member(n) and kw_pair.sets[1].member(n))


@given(st.integers(0, 7))
def test_expected_atom_density_matches_oracle(bits_int):
    ds = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    fam_bits = tuple((bits_int >> j) & 1 for j in range(3))
    fam = kw_family([2, 3, 5], ds)
    assert expected_atom_density(fam, fam_bits) == oracles.atom_density_ie(ds, fam_bits)


# -- verification -------------------------------------------------------------


def test_verify_exact_family_all_atoms_exact(small_schedule):
    # the residue family is independent at every window that is a
    # multiple of 8; window 2000 etc. all are
    rep = verify_independence(exact_family(3), schedule=small_schedule)
    assert rep.passed
    assert len(rep.atoms) == 8
    for a in rep.atoms:
        assert a.deviation == 0
        assert a.empirical == Fraction(1, 8)


def test_verify_kw_pair_passes(kw_pair):
    sched = WindowSchedule(start=10_000, ratio=Fraction(2), count=4)
    rep = verify_independence(kw_pair, schedule=sched)
    assert rep.passed
    assert {a.pattern.bits for a in rep.atoms} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # rotation members get orbit band diagnostics
    assert len(rep.band_diagnostics) == 2
    for b in rep.band_diagnostics:
        assert b.hits <= b.bound


def test_verify_detects_complement_dependence(small_schedule):
    a = kw_set(2, Fraction(3, 10))
    fam = Family(("A", "NA"), (a, complement(a)),
                 (Fraction(3, 10), Fraction(7, 10)))
    rep = verify_independence(fam, schedule=small_schedule)
    assert not rep.passed
    # the all-ones atom is empty but the product rule expects 0.21
    bad = rep.atom_by_bits((1, 1))
    assert bad.empirical == 0
    assert bad.expected == Fraction(21, 100)
    assert not bad.passed


def test_verify_subset_of_members(kw_pair, small_schedule):
    rep = verify_independence(kw_pair, names=["A1"], schedule=small_schedule)
    assert len(rep.atoms) == 2
    assert rep.atoms[0].pattern.names == ("A1",)


def test_verify_member_cap(small_schedule):
    fam = exact_family(6)
    with pytest.raises(ValueError):
        verify_independence(fam, schedule=small_schedule)
    assert MAX_VERIFY_MEMBERS == 5


def test_verify_unknown_name(kw_pair, small_schedule):
    with pytest.raises(KeyError):
        verify_independence(kw_pair, names=["A0", "Z"], schedule=small_schedule)


def test_verify_default_tolerance_widens_for_randomized(kw_pair):
    sched = WindowSchedule(start=2000, ratio=Fraction(2), count=3)
    b, _ = random_extension(kw_pair, "A0", Fraction(1, 2), seed=5)
    fam = kw_pair.extended("B", b, Fraction(1, 2))
    rep = verify_independence(fam, names=["A0", "B"], schedule=sched)
    n_max = sched.windows()[-1]
    assert rep.tol == max(Fraction(5, 1000), Fraction(4, 89))  # isqrt(8000) = 89


def test_verify_workers_identical(kw_pair, small_schedule):
    r1 = verify_independence(kw_pair, schedule=small_schedule, workers=1)
    r2 = verify_independence(kw_pair, schedule=small_schedule, workers=4)
    assert [a.counts for a in r1.atoms] == [a.counts for a in r2.atoms]


def _verify_peak(with_thin: bool, n: int) -> int:
    fam = kw_family([2, 3, 5], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
    if with_thin:
        fam = fam.extended("T", thin_extension(fam), Fraction(1, 2))
    schedule = WindowSchedule(start=2000, ratio=Fraction(2), count=3).retarget(n)
    tracemalloc.start()
    try:
        assert verify_independence(fam, schedule=schedule).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("with_thin", [False, True], ids=["kw3", "kw3+thin-ext"])
def test_verify_memory_is_flat_in_the_window(with_thin):
    # a chunk-major sweep holds one chunk per set whatever the window:
    # 8x the chunks may not raise the traced peak by more than 10%
    _verify_peak(with_thin, 1 << 16)  # one-time allocations out of the way
    small, large = _verify_peak(with_thin, 1 << 20), _verify_peak(with_thin, 1 << 23)
    assert large <= 1.1 * small, (small, large)


# -- field of generated sets ---------------------------------------------------


def test_field_single_member_values():
    fam = kw_family([2], [Fraction(3, 10)])
    img = field_image(fam)
    assert img == (Fraction(0), Fraction(3, 10), Fraction(7, 10), Fraction(1))


def test_field_elements_count_and_extremes(half_family):
    els = field_elements(half_family)
    assert len(els) == 16
    by_mask = {e.atom_mask: e.expected for e in els}
    assert by_mask[0] == 0
    assert by_mask[0b1111] == 1


def test_field_atoms_sum_to_one():
    fam = kw_family([2, 3, 5], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
    els = field_elements(fam)
    singles = [e.expected for e in els if e.atom_mask.bit_count() == 1]
    assert len(singles) == 8
    assert sum(singles) == 1


def test_field_complement_symmetry():
    fam = kw_family([2, 3], [Fraction(3, 10), Fraction(2, 5)])
    els = field_elements(fam)
    by_mask = {e.atom_mask: e.expected for e in els}
    full = (1 << 4) - 1
    for mask, v in by_mask.items():
        assert by_mask[mask ^ full] == 1 - v


@given(st.integers(0, 255))
@settings(max_examples=64)
def test_field_element_matches_inclusion_exclusion_oracle(mask):
    ds = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    fam = kw_family([2, 3, 5], ds)
    els = {e.atom_mask: e.expected for e in field_elements(fam)}
    assert els[mask] == oracles.element_density_ie(ds, mask)


def test_field_member_cap():
    fam = exact_family(5)
    with pytest.raises(ValueError):
        field_elements(fam)
    assert MAX_FIELD_MEMBERS == 4


def test_field_image_sorted_with_duplicates(half_family):
    img = field_image(half_family)
    assert len(img) == 16
    assert list(img) == sorted(img)
    assert img.count(Fraction(1, 2)) > 1  # several elements share 1/2


# -- grid coverage scan ----------------------------------------------------------


def test_scan_single_member_quarter_grid():
    fam = kw_family([2], [Fraction(3, 10)])
    rep = image_density_scan(fam, Fraction(1, 4))
    # values {0, 3/10, 7/10, 1} land one per cell
    assert rep.unhit == ()
    assert not rep.full_coverage_expected  # largest atom 7/10 >= 1/4


def test_scan_single_member_eighth_grid():
    fam = kw_family([2], [Fraction(3, 10)])
    rep = image_density_scan(fam, Fraction(1, 8))
    assert tuple(c.index for c in rep.unhit) == (1, 3, 4, 6)
    assert all(c.witness is None and not c.hit for c in rep.unhit)


def test_scan_value_one_lands_in_last_cell():
    fam = kw_family([2], [Fraction(1, 2)])
    rep = image_density_scan(fam, Fraction(1, 3))
    last = rep.cells[-1]
    assert last.witness == Fraction(1)


def test_scan_many_equal_members_full_coverage():
    fam = exact_family(7)
    rep = image_density_scan(fam, Fraction(1, 100))
    assert rep.full_coverage_expected  # atoms 1/128 < 1/100
    assert rep.unhit == ()


def test_scan_gap_family_avoids_center(small_schedule):
    from densfam import gap_family

    fam = gap_family(Fraction(9, 10), 3)
    prod = fam.meta["threshold_product"]
    rep = image_density_scan(fam, Fraction(1, 20))
    # cells wholly inside the open gap interval have no witness
    inside = [c for c in rep.cells if c.lo > 1 - prod and c.hi < prod]
    assert inside
    assert all(c.witness is None for c in inside)


def test_scan_validation(half_family):
    with pytest.raises(ValueError):
        image_density_scan(half_family, Fraction(0))
    with pytest.raises(ValueError):
        image_density_scan(half_family, Fraction(3, 2))


def test_scan_respects_value_cap():
    ds = [Fraction(1, p) for p in (3, 5, 7, 11)]
    fam = Family(
        tuple(f"S{i}" for i in range(4)),
        tuple(from_membership(lambda n: False) for _ in range(4)),
        tuple(ds),
    )
    with pytest.raises(ValueError):
        image_density_scan(fam, Fraction(1, 10), max_values=16)


# -- integer field image against the Fraction oracle -------------------------

DENSITY = st.one_of(
    st.sampled_from([Fraction(3, 10), Fraction(2, 7), Fraction(1, 2), Fraction(5, 6)]),
    st.integers(1, (1 << 96) - 1).map(lambda k: Fraction(k, 1 << 96)),
)


def mixed_densities(max_members):
    """Members drawn from a pool of at most three densities, so that
    denominators mix and densities repeat: equal atoms get grouped and
    values get multiplicities above 1."""
    return st.lists(DENSITY, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=max_members)
    )


def blank_family(densities):
    return Family(
        tuple(f"S{i}" for i in range(len(densities))),
        tuple(from_membership(lambda n: False) for _ in densities),
        tuple(densities),
    )


@given(mixed_densities(MAX_FIELD_MEMBERS))
@settings(max_examples=8, deadline=None)
def test_field_values_match_fraction_oracle(ds):
    fam = blank_family(ds)
    want = oracles.field_value_counts(ds)
    fv = field_values(fam)
    assert list(fv.counts) == sorted(fv.counts)
    assert {Fraction(n, fv.denominator): m for n, m in fv.counts.items()} == want
    assert Counter(e.expected for e in field_elements(fam)) == want


@given(
    mixed_densities(6),
    st.integers(2, 40).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))),
    st.sampled_from([16, 256, 1 << 12]),
)
@settings(max_examples=80, deadline=None)
def test_scan_matches_fraction_oracle(ds, delta, max_values):
    fam = blank_family(ds)
    try:
        want_cells, want_full = oracles.scan_cells(ds, delta, max_values)
    except ValueError:
        with pytest.raises(ValueError, match="too rich"):
            image_density_scan(fam, delta, max_values=max_values)
        return
    rep = image_density_scan(fam, delta, max_values=max_values)
    assert [(c.lo, c.hi, c.witness) for c in rep.cells] == want_cells
    assert [c.hit for c in rep.cells] == [w is not None for _, _, w in want_cells]
    assert [c.index for c in rep.cells] == list(range(len(want_cells)))
    assert rep.cells[-1].hi == 1 and rep.cells[-1].hit  # the value 1 itself
    assert rep.full_coverage_expected == want_full
    assert (rep.names, rep.delta) == (fam.names, delta)


# -- stated atom and field identities ----------------------------------------


def test_atom_over_single_member_is_the_member_or_complement():
    fam = exact_family(1)
    base = fam.sets[0]
    hit = atom(fam, (1,))
    miss = atom(fam, (0,))
    for n in range(150):
        assert hit.member(n) == base.member(n)
        assert miss.member(n) == (not base.member(n))


def test_atom_counts_partition_every_prefix(kw_pair):
    from densfam import prefix_density
    from itertools import product as iproduct

    for n in (1000, 4096, 9999):
        total = sum(
            atom(kw_pair, bits).prefix_count(n)
            for bits in iproduct((0, 1), repeat=2)
        )
        assert total == n


def test_kw_pair_all_ones_expected_density(kw_pair):
    assert expected_atom_density(kw_pair, (1, 1)) == Fraction(3, 20)


def test_field_symmetric_difference_element_density():
    fam = Family(
        ("A", "B"),
        (
            from_membership(lambda n: n % 3 == 0),
            from_membership(lambda n: n % 5 < 2),
        ),
        (Fraction(1, 3), Fraction(2, 5)),
    )
    elements = {e.atom_mask: e for e in field_elements(fam)}
    assert len(elements) == 16
    # atoms (1,0) and (0,1) sit at mask bits 1 and 2 (least member first)
    sym = elements[0b110]
    assert sym.expected == Fraction(1, 3) * Fraction(3, 5) + Fraction(2, 3) * Fraction(2, 5)
    assert sym.expected == Fraction(7, 15)


def test_field_of_three_closed_under_union_and_complement():
    fam = exact_family(3)
    masks = {e.atom_mask for e in field_elements(fam)}
    assert masks == set(range(256))
    full = 255
    for a in (0b10110001, 0b00000001, 0b11001100):
        assert (a ^ full) in masks
        for b in (0b01110000, 0b10101010):
            assert (a | b) in masks
