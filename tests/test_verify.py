"""Sign-pattern atoms, product-rule verification, field images."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from densfam import (
    Family,
    SetBase,
    WindowSchedule,
    atom_density,
    atoms,
    block_transform,
    coded_independent_set,
    complement,
    field_elements,
    field_values,
    from_elements,
    from_membership,
    image_density_scan,
    kw_family,
    kw_set,
    pattern_label,
    random_extension,
    reaping,
    thin,
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
    assert pattern_label(("A", "B"), (1, 0)) == "A=1,B=0"


def test_atom_membership(half_family):
    a = atoms(half_family.sets)[0b10]  # E=1, H=0
    # E and not H: n even, n mod 4 in {2, 3} -> n mod 4 == 2
    members = {n for n in range(40) if a.member(n)}
    assert members == {n for n in range(40) if n % 4 == 2}


def test_atom_all_ones_is_intersection(kw_pair):
    a = atoms(kw_pair.sets)[0b11]
    for n in (0, 13, 500):
        assert a.member(n) == (kw_pair.sets[0].member(n) and kw_pair.sets[1].member(n))


_ATOM_N = 3000


def _atom_leaves():
    """Sets paired with the expressions oracles.expr_members evaluates
    for them below _ATOM_N: a thinned set, a biased coin, a periodic set
    and an explicit one."""
    in_base = lambda n: n % 3 < 2  # noqa: E731
    base = Family(("P",), (from_membership(in_base),), (Fraction(2, 3),))
    coin, p = random_extension(base, "P", "2/5", seed=3)
    tosses = (n for n in range(_ATOM_N) if oracles.coin_member(3, p.t1, p.t0, in_base(n), n))
    sparse = frozenset(i * i % _ATOM_N for i in range(200))
    return [
        (thin(from_membership(lambda n: n % 7 in (1, 2, 4))),
         ("thin", ("periodic", frozenset({1, 2, 4}), 7))),
        (coin, ("elements", frozenset(tosses))),
        (from_membership(in_base), ("periodic", frozenset({0, 1}), 3)),
        (from_elements(sparse), ("elements", sparse)),
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_atoms_match_pointwise_intersections(k):
    leaves = _atom_leaves()[:k]
    got = atoms([s for s, _ in leaves])
    assert len(got) == 1 << k
    for a, bits in zip(got, product((0, 1), repeat=k)):
        parts = (e if b else ("complement", e) for (_, e), b in zip(leaves, bits))
        want = oracles.expr_members(("intersect", *parts), _ATOM_N)
        assert a.bits_range(0, _ATOM_N).tolist() == want, bits


@given(st.integers(0, 7))
def test_expected_atom_density_matches_oracle(bits_int):
    ds = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    fam_bits = tuple((bits_int >> j) & 1 for j in range(3))
    fam = kw_family([2, 3, 5], ds)
    assert atom_density(fam.densities, fam_bits) == oracles.atom_density_ie(ds, fam_bits)


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
    assert {a.bits for a in rep.atoms} == {(0, 0), (0, 1), (1, 0), (1, 1)}
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
    bad = next(a for a in rep.atoms if a.bits == (1, 1))
    assert bad.empirical == 0
    assert bad.expected == Fraction(21, 100)
    assert not bad.passed


def test_verify_subset_of_members(kw_pair, small_schedule):
    rep = verify_independence(kw_pair.subfamily(["A1"]), schedule=small_schedule)
    assert len(rep.atoms) == 2
    assert rep.names == ("A1",)


def test_verify_member_cap():
    # windows are multiples of 2**8, where every residue atom is exact
    sched = WindowSchedule(start=2048, ratio=Fraction(2), count=3)
    rep = verify_independence(exact_family(8), schedule=sched)
    assert rep.passed and len(rep.atoms) == 256
    with pytest.raises(ValueError, match="at most 8 members supported here, got 9"):
        verify_independence(exact_family(9), schedule=sched)
    assert MAX_VERIFY_MEMBERS == 8


def test_verify_unknown_name(kw_pair, small_schedule):
    with pytest.raises(KeyError):
        verify_independence(kw_pair.subfamily(["A0", "Z"]), schedule=small_schedule)


def test_verify_default_tolerance_widens_for_randomized(kw_pair):
    sched = WindowSchedule(start=2000, ratio=Fraction(2), count=3)
    b, _ = random_extension(kw_pair, "A0", Fraction(1, 2), seed=5)
    fam = kw_pair.extended("B", b, Fraction(1, 2))
    rep = verify_independence(fam.subfamily(["A0", "B"]), schedule=sched)
    n_max = sched.windows()[-1]
    assert rep.tol == max(Fraction(5, 1000), Fraction(4, 89))  # isqrt(8000) = 89


def test_verify_workers_identical(kw_pair, small_schedule):
    r1 = verify_independence(kw_pair, schedule=small_schedule, workers=1)
    r2 = verify_independence(kw_pair, schedule=small_schedule, workers=4)
    assert [a.counts for a in r1.atoms] == [a.counts for a in r2.atoms]


def test_verify_raises_when_atoms_miss_an_index(kw_pair, small_schedule, monkeypatch):
    import densfam.verify as verify_mod

    swept = verify_mod.window_counts

    def one_short(sets, windows, workers=1):
        first, *rest = swept(sets, windows, workers)
        return [tuple(c - 1 for c in first), *rest]

    monkeypatch.setattr(verify_mod, "window_counts", one_short)
    with pytest.raises(ValueError, match="at window 2000: the atoms hold 1999 indices, not 2000"):
        verify_independence(kw_pair, schedule=small_schedule)


HINTED_MEMBERS = {
    "block": lambda: block_transform([coded_independent_set(s, 4) for s in ("00", "01")]).sets[0],
    "explicit": lambda: from_elements(range(0, 10**4, 3)),
    "thin": lambda: thin(kw_set(2, Fraction(1, 2))),
}


@pytest.mark.parametrize("kind", HINTED_MEMBERS)
def test_verify_raises_when_a_block_chunk_breaks_its_closed_form(kind):
    # the member's kernel gets one index wrong in every chunk, alone or
    # beside two rotation members whose chunks are right; its count hint
    # must disagree with its atoms at the first window past that index
    s = HINTED_MEMBERS[kind]()
    rotation = kw_family([3, 5], [Fraction(1, 2), Fraction(7, 10)])
    for bit, start, base in ((100, 2000, None), (12_345, 20_000, rotation)):
        broken = SetBase(s.descriptor, chunk_fn=lambda ci, bit=bit: s.chunk_mask(ci) ^ (1 << bit),
                         count_hint=s.count_hint)
        fam = (Family(("M",), (broken,), (Fraction(1, 3),)) if base is None
               else base.extended("M", broken, Fraction(1, 3)))
        sched = WindowSchedule(start=start, ratio=Fraction(2), count=3)
        with pytest.raises(ValueError, match=rf"count identity failed for member M at window "
                                             rf"{start}: its atoms count \d+, its count hint \d+"):
            verify_independence(fam, schedule=sched)


def test_thin_extension_of_a_like_named_family_bounds_its_own_count(monkeypatch):
    # f2 names its members A0 and A1 as f1 does, but T thins f1's sets: no
    # verified member is thinned, so m = 4 and the identity bounds T's own
    # count, 0 <= 2|T below n| - n <= 4, which a bit set in chunk 0 breaks
    f1 = kw_family([2, 3], ["0.3", "0.5"])
    f2 = kw_family([5, 7], ["0.3", "0.5"])
    schedule = WindowSchedule(10_000, 2, 4)
    rep = verify_independence(f2.extended("T", thin_extension(f1), Fraction(1, 2)), schedule)
    assert rep.names == ("A0", "A1", "T")
    assert len(rep.atoms) == 8
    real = reaping.thin

    def flipped(*parts):
        t = real(*parts)
        return SetBase(t.descriptor, chunk_fn=lambda ci: t.chunk_mask(ci) | (1 << 12_345))

    monkeypatch.setattr(reaping, "thin", flipped)
    with pytest.raises(ValueError, match=r"count identity failed for member T on pattern \(none\) "
                                         r"at window 40000: it keeps 20003 of the pattern's 40000 "
                                         r"indices, not 20000 to 20002"):
        verify_independence(f2.extended("T", thin_extension(f1), Fraction(1, 2)), schedule)


_KW4 = kw_family([2, 3, 5, 7], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(2, 5)])


@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(thinned=st.lists(st.sampled_from(_KW4.names), min_size=1, max_size=3, unique=True),
       others=st.lists(st.sampled_from(_KW4.names), max_size=4, unique=True),
       at=st.integers(0, 4))
def test_a_correct_thin_extension_passes_its_identity_wherever_it_sits(thinned, others, at):
    # T thins 1-3 members; verified beside any members in any order, its
    # counts meet the identity, so verify returns a report
    fam = _KW4.extended("T", thin_extension(_KW4.subfamily(thinned)), Fraction(1, 2))
    names = others[:at] + ["T"] + others[at:]
    rep = verify_independence(fam.subfamily(names), WindowSchedule(3000, 3, 5))
    assert rep.names == tuple(names)


def _kw3():
    return kw_family([2, 3, 5], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])


def _kw3_thin():
    fam = _kw3()
    return fam.extended("T", thin_extension(fam), Fraction(1, 2))


def _kw8():
    return kw_family([2, 3, 5, 6, 7, 10, 11, 13], [Fraction(1, 2)] * 8)


def _verify_peak(make_family, n: int) -> int:
    fam = make_family()
    schedule = WindowSchedule(start=2000, ratio=Fraction(2), count=3).retarget(n)
    tracemalloc.start()
    try:
        assert verify_independence(fam, schedule=schedule).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make_family", [_kw3, _kw3_thin, _kw8],
                         ids=["kw3", "kw3+thin-ext", "k8"])
def test_verify_memory_is_flat_in_the_window(make_family):
    # a chunk-major sweep holds one chunk per set whatever the window:
    # 8x the chunks may not raise the traced peak by more than 10%
    _verify_peak(make_family, 1 << 16)  # one-time allocations out of the way
    small, large = _verify_peak(make_family, 1 << 20), _verify_peak(make_family, 1 << 23)
    assert large <= 1.1 * small, (small, large)


# -- field of generated sets ---------------------------------------------------


def image(family):
    """The expected densities over the generated field, ascending, each
    repeated as often as field elements take it."""
    fv = field_values(family)
    return tuple(Fraction(v, fv.denominator) for v, c in fv.counts.items() for _ in range(c))


def test_field_single_member_values():
    fam = kw_family([2], [Fraction(3, 10)])
    img = image(fam)
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
    with pytest.raises(ValueError, match="at most 4 members supported here, got 5"):
        field_values(fam)
    assert MAX_FIELD_MEMBERS == 4


def test_field_image_sorted_with_duplicates(half_family):
    img = image(half_family)
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
    prod = math.prod(fam.densities)
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
    miss, hit = atoms(fam.sets)
    for n in range(150):
        assert hit.member(n) == base.member(n)
        assert miss.member(n) == (not base.member(n))


def test_atom_counts_partition_every_prefix(kw_pair):
    for n in (1000, 4096, 9999):
        total = sum(a.prefix_count(n) for a in atoms(kw_pair.sets))
        assert total == n


def test_kw_pair_all_ones_expected_density(kw_pair):
    assert atom_density(kw_pair.densities, (1, 1)) == Fraction(3, 20)


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
