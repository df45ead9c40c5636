"""Core set representation: membership, chunk masks, exact counting."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from densfam import (
    complement,
    empty_set,
    from_elements,
    from_membership,
    intersect,
    omega,
    scale,
    sym_diff,
    thin,
    union,
)
from densfam.sets import CHUNK_BITS, SetBase, bits_to_mask, mask_to_bits, window_counts

# small finite sets as hypothesis ground truth
finite_sets = st.frozensets(st.integers(min_value=0, max_value=400), max_size=60)


def as_pyset(s: SetBase, bound: int) -> set:
    return {n for n in range(bound) if s.member(n)}


# -- trivial identities --------------------------------------------------


def test_omega_counts():
    w = omega()
    assert w.prefix_count(0) == 0
    assert w.prefix_count(1) == 1
    assert w.prefix_count(123456) == 123456
    assert w.member(0) and w.member(10**9)


def test_empty_counts():
    e = empty_set()
    assert e.prefix_count(123456) == 0
    assert not e.member(0)


def test_from_elements_membership_and_count():
    s = from_elements([3, 5, 5, 8, 100])
    assert as_pyset(s, 120) == {3, 5, 8, 100}
    assert s.prefix_count(9) == 3
    assert s.prefix_count(101) == 4
    assert s.count_range(4, 9) == 2


def test_complement_involution():
    s = from_elements([0, 2, 9])
    cc = complement(complement(s))
    assert as_pyset(cc, 20) == {0, 2, 9}
    assert complement(s).prefix_count(10) == 7


def test_complement_of_omega_is_empty():
    assert complement(omega()).prefix_count(10**5) == 0


def test_scale_places_multiples():
    evens = from_membership(lambda n: n % 2 == 0)
    s = scale(evens, 3)
    # members are 3*k for k in evens: 0, 6, 12, ...
    assert as_pyset(s, 20) == {0, 6, 12, 18}
    assert s.prefix_count(19) == 4


def test_scale_identity_factor():
    s = from_elements([1, 4, 9])
    assert as_pyset(scale(s, 1), 12) == {1, 4, 9}


def test_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale(omega(), 0)


def test_thin_of_omega_is_evens():
    t = thin(omega())
    assert as_pyset(t, 11) == {0, 2, 4, 6, 8, 10}
    assert t.prefix_count(100) == 50


def test_thin_keeps_even_ranked_members():
    s = from_elements([4, 7, 11, 20, 21])
    # ranks:        0  1   2   3   4
    assert as_pyset(thin(s), 30) == {4, 11, 21}


def test_thin_count_is_ceiling_half():
    s = from_elements([1, 2, 3, 10, 15, 16, 30])
    t = thin(s)
    for n in range(0, 35):
        c = s.prefix_count(n)
        assert t.prefix_count(n) == (c + 1) // 2


# -- boolean combinations vs python sets ---------------------------------


@given(finite_sets, finite_sets)
def test_intersect_matches_pyset(a, b):
    s = intersect(from_elements(a), from_elements(b))
    assert as_pyset(s, 401) == a & b
    assert s.prefix_count(401) == len(a & b)


@given(finite_sets, finite_sets)
def test_union_matches_pyset(a, b):
    s = union(from_elements(a), from_elements(b))
    assert as_pyset(s, 401) == a | b


@given(finite_sets, finite_sets)
def test_sym_diff_matches_pyset(a, b):
    s = sym_diff(from_elements(a), from_elements(b))
    assert s.prefix_count(401) == len(a ^ b)


@given(finite_sets, finite_sets, finite_sets)
@settings(max_examples=25)
def test_nested_expression(a, b, c):
    s = union(intersect(from_elements(a), complement(from_elements(b))),
              from_elements(c))
    assert as_pyset(s, 401) == (a - b) | c


def test_single_operand_intersect_is_identity():
    # uniform SetExpr typing: wrapping one set is legal
    s = from_elements([1, 2, 30])
    assert as_pyset(intersect(s), 40) == {1, 2, 30}


def test_zero_operand_expression_rejected():
    with pytest.raises(ValueError):
        intersect()


# -- chunk masks and counting routes -------------------------------------


@given(finite_sets)
def test_chunk_mask_agrees_with_member(a):
    s = from_elements(a)
    m = s.chunk_mask(0)
    assert m == sum(1 << n for n in a)


def test_chunk_mask_beyond_first_chunk():
    n = CHUNK_BITS + 17
    s = from_elements([n])
    assert s.chunk_mask(1) == 1 << 17
    assert s.prefix_count(n + 1) == 1


@given(finite_sets, st.sampled_from([CHUNK_BITS - 200, 5 * CHUNK_BITS + 7,
                                     (1 << 63) - CHUNK_BITS - 300, (1 << 63) - 300,
                                     1 << 70]))
def test_explicit_chunks_match_python_set(a, base):
    # members straddle a chunk boundary, also where indices outgrow int64
    elems = {base + x for x in a}
    s = from_elements(elems)
    for ci in range(base // CHUNK_BITS - 1, base // CHUNK_BITS + 3):
        lo = ci * CHUNK_BITS
        assert s.chunk_mask(ci) == sum(1 << (n - lo) for n in elems
                                       if lo <= n < lo + CHUNK_BITS)


@given(finite_sets)
def test_hint_and_sweep_agree(a):
    s = from_elements(a)  # carries an exact count hint
    assert s.prefix_count(401) == s.sweep_prefix(401)


def test_count_range_additive():
    s = from_membership(lambda n: n % 7 in (0, 3))
    total = s.prefix_count(10_000)
    assert s.count_range(0, 4000) + s.count_range(4000, 10_000) == total


def test_workers_do_not_change_counts():
    s = from_membership(lambda n: (n * n) % 11 < 4)
    big = 3 * CHUNK_BITS + 1234
    assert s.sweep_prefix(big, workers=1) == s.sweep_prefix(big, workers=4)


def test_bits_range_crosses_chunks():
    s = from_membership(lambda n: n % 3 == 0)
    lo = CHUNK_BITS - 5
    hi = CHUNK_BITS + 5
    got = s.bits_range(lo, hi)
    assert [int(b) for b in got] == [1 if n % 3 == 0 else 0 for n in range(lo, hi)]


# -- random expression trees against the pointwise oracle ------------------

# expressions are the nested tuples oracles.expr_members evaluates
leaf_exprs = st.one_of(
    st.builds(lambda m, rs: ("periodic", frozenset(r % m for r in rs), m),
              st.integers(1, 12), st.lists(st.integers(0, 11), max_size=6)),
    st.builds(lambda xs: ("elements", frozenset(xs)),
              st.lists(st.integers(0, 3 * CHUNK_BITS), max_size=40)),
    st.just(("omega",)),
    st.just(("empty",)),
)


def _expr_nodes(children):
    return st.one_of(
        children.map(lambda x: ("complement", x)),
        st.lists(children, min_size=1, max_size=3).map(lambda xs: ("intersect", *xs)),
        st.lists(children, min_size=1, max_size=3).map(lambda xs: ("union", *xs)),
        st.tuples(children, children).map(lambda xy: ("sym_diff", *xy)),
        children.map(lambda x: ("thin", x)),
        st.tuples(children, st.integers(1, 4)).map(lambda xm: ("scale", *xm)),
    )


expressions = st.recursive(leaf_exprs, _expr_nodes, max_leaves=4)

_OPS = {"complement": complement, "intersect": intersect, "union": union,
        "sym_diff": sym_diff, "thin": thin}


def build(expr) -> SetBase:
    kind, args = expr[0], expr[1:]
    if kind == "periodic":
        residues, modulus = args
        return from_membership(lambda n: n % modulus in residues)
    if kind == "elements":
        return from_elements(args[0])
    if kind == "omega":
        return omega()
    if kind == "empty":
        return empty_set()
    if kind == "scale":
        return scale(build(args[0]), args[1])
    return _OPS[kind](*map(build, args))


@given(st.lists(expressions, min_size=1, max_size=2),
       st.integers(2 * CHUNK_BITS + 1, 3 * CHUNK_BITS),
       st.lists(st.floats(0, 1), min_size=1, max_size=4), st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_expression_counts_match_pointwise_oracle(exprs, n_max, fractions, data):
    # windows reach into the third chunk, so a sweep crosses two chunk
    # boundaries and three workers get one chunk each
    windows = [int(f * n_max) for f in fractions] + [n_max]
    truth = [oracles.expr_members(e, n_max) for e in exprs]
    below = [[0, *accumulate(t)] for t in truth]
    expected = [tuple(b[n] for n in windows) for b in below]
    for workers in (1, 3):
        assert window_counts([build(e) for e in exprs], windows, workers) == expected
    # the second window starts past the first chunk, where a fresh thin
    # must rank its base before its first chunk
    for lo in (0, CHUNK_BITS):
        start = data.draw(st.integers(lo, n_max - 1))
        stop = data.draw(st.integers(start, min(n_max, start + 2 * CHUNK_BITS)))
        assert build(exprs[0]).bits_range(start, stop).tolist() == truth[0][start:stop]


# -- bit packing helpers ---------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=200))
def test_mask_roundtrip(bits):
    arr = np.array(bits, dtype=np.uint8)
    m = bits_to_mask(arr)
    back = mask_to_bits(m, len(bits))
    assert list(back) == bits


def test_mask_to_bits_zero_width():
    assert len(mask_to_bits(0, 0)) == 0


# -- arithmetic-progression identities --------------------------------------


def test_even_multiples_membership():
    evens = scale(omega(), 2)
    assert evens.member(4)
    assert not evens.member(5)


def test_multiples_of_three_prefix_count():
    s = scale(omega(), 3)
    # 0, 3, 6, 9 below 10
    assert s.prefix_count(10) == 4


def test_scale_composes_multiplicatively():
    s = scale(scale(omega(), 2), 3)
    assert as_pyset(s, 30) == {0, 6, 12, 18, 24}
    assert s.prefix_count(12) == 2


def test_thin_of_evens_is_multiples_of_four():
    t = thin(scale(omega(), 2))
    q = scale(omega(), 4)
    assert as_pyset(t, 200) == as_pyset(q, 200)


def test_union_count_is_inclusion_exclusion():
    u = union(scale(omega(), 2), scale(omega(), 3))
    # 6 evens + 4 multiples of three - 2 multiples of six
    assert u.prefix_count(12) == 6 + 4 - 2


def test_sym_diff_with_self_is_empty():
    s = from_membership(lambda n: n % 7 < 3)
    d = sym_diff(s, s)
    assert d.prefix_count(200) == 0
