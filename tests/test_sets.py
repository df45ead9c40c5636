"""Core set representation: membership, chunk masks, exact counting."""

import functools
import gc
import multiprocessing
import os
import weakref
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import oracles
from densfam import (
    BlockParitySet,
    Family,
    atoms,
    coded_independent_set,
    complement,
    fixedpoint,
    from_elements,
    from_membership,
    intersect,
    kw_family,
    kw_set,
    omega,
    random_extension,
    scale,
    sym_diff,
    thin,
    thin_extension,
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
    e = from_elements([])
    assert e.prefix_count(123456) == 0
    assert not e.member(0)


def test_from_elements_membership_and_count():
    s = from_elements([3, 5, 5, 8, 100])
    assert as_pyset(s, 120) == {3, 5, 8, 100}
    assert s.prefix_count(9) == 3
    assert s.prefix_count(101) == 4
    below_4, below_9 = window_counts([s], (4, 9))[0]
    assert below_9 - below_4 == 2
    assert as_pyset(from_elements([np.int64(3), 5, 5.0, np.int32(8)]), 10) == {3, 5, 8}
    # a non-integral element is refused, not truncated
    for elements in ([1.7, 2.2], [1, 2.5], [np.float64(3.5)]):
        with pytest.raises(ValueError, match="elements must be integers"):
            from_elements(elements)


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
    # a non-integral factor is refused, not truncated
    for factor in (2.5, Fraction(5, 2), 0.5):
        with pytest.raises(ValueError, match="positive integer"):
            scale(omega(), factor)
    assert scale(omega(), np.int64(3)).descriptor["factor"] == 3


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


def test_from_membership_reads_fn_across_three_chunks():
    def fn(n):
        return n % 3 != 1 or n == CHUNK_BITS + 1

    s = from_membership(fn)
    edges = {c * CHUNK_BITS + d for c in range(3) for d in (-1, 0, 1)}
    for n in sorted(edges.union(range(0, 3 * CHUNK_BITS, 97)) - {-1}):
        assert s.member(n) == fn(n), n
    # fn(-1) holds, but no negative index is a member
    assert fn(-1) and s.member(-1) is False


def test_count_range_additive():
    s = from_membership(lambda n: n % 7 in (0, 3))
    total = s.prefix_count(10_000)
    below_4000 = s.prefix_count(4000)
    lo, hi = window_counts([s], (4000, 10_000))[0]
    assert below_4000 + (hi - lo) == total


def test_workers_do_not_change_counts():
    s = from_membership(lambda n: (n * n) % 11 < 4)
    big = 3 * CHUNK_BITS + 1234
    assert s.sweep_prefix(big, workers=1) == s.sweep_prefix(big, workers=4)


def chunks_away_from(pid: int) -> SetBase:
    """Chunk ci holds ci in its low bits, plus bit 20 when it is computed
    in a process other than pid."""
    return SetBase({"kind": "probe"}, chunk_fn=lambda ci: ci | (os.getpid() != pid) << 20)


def test_pool_counts_in_worker_processes_and_joins_them():
    windows = (CHUNK_BITS + 5, 9 * CHUNK_BITS)
    # chunks 0..8 hold 13 low bits, 1 of them below the first window;
    # each chunk swept in a worker adds bit 20, which only chunk 0 has
    # below the first window
    assert window_counts([chunks_away_from(os.getpid())], windows, 1) == [(1, 13)]
    assert window_counts([chunks_away_from(os.getpid())], windows, 3) == [(2, 22)]
    assert multiprocessing.active_children() == []


def test_pool_raises_a_chunk_error_as_one_process_does():
    def chunk(ci: int) -> int:
        if ci == 5:
            raise ValueError("no chunk 5")
        return ci

    for workers in (1, 3):
        with pytest.raises(ValueError, match="^no chunk 5$"):
            window_counts([SetBase({"kind": "probe"}, chunk_fn=chunk)], (9 * CHUNK_BITS,), workers)
        assert multiprocessing.active_children() == []


def test_without_fork_the_sweep_runs_in_the_calling_process(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    windows = (CHUNK_BITS + 5, 9 * CHUNK_BITS)
    assert window_counts([chunks_away_from(os.getpid())], windows, 3) == [(1, 13)]


def test_bits_range_crosses_chunks():
    s = from_membership(lambda n: n % 3 == 0)
    lo = CHUNK_BITS - 5
    hi = CHUNK_BITS + 5
    got = s.bits_range(lo, hi)
    assert [int(b) for b in got] == [1 if n % 3 == 0 else 0 for n in range(lo, hi)]


@pytest.mark.parametrize("make", [lambda: kw_set(2, "3/10"), omega,
                                  lambda: from_elements([0, 3, 9])],
                         ids=["kw", "omega", "explicit"])
def test_bits_range_rejects_negative_start(make):
    # below 0 nothing is a member, so a negative start has no honest answer
    s = make()
    with pytest.raises(ValueError, match="nonnegative"):
        s.bits_range(-8, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        s.bits_range(-1, 5)
    assert s.bits_range(0, 12).tolist() == [int(s.member(n)) for n in range(12)]


# -- membership read off the chunk, against the pointwise oracles -----------

_MEMBER_INDICES = (0, CHUNK_BITS - 1, CHUNK_BITS, 3 * CHUNK_BITS + 5)
_SPREAD = frozenset(i for i in range(4 * CHUNK_BITS) if i * i % 7 < 3)


def _on_orbit(s):
    return lambda n: oracles.orbit_walk_mask(s._step, s._thr_eff, n, 1) == 1


def _member_case(kind):
    """A set of the given kind and its membership by an independent oracle."""
    if kind == "kw":
        s = kw_set(2, "3/10")
        return s, _on_orbit(s)
    if kind == "block":
        members = {0, 3, 4, 9, 11}
        starts = oracles.factorial_block_starts(8)
        return (BlockParitySet(from_membership(members.__contains__)),
                lambda n: oracles.block_parity_member_enum(members, n, starts))
    if kind == "random-ext":
        a = kw_set(3, "1/2")
        s, p = random_extension(Family(("A",), (a,), (a.declared,)), "A", "2/5", seed=3)
        in_a = _on_orbit(a)
        return s, lambda n: oracles.coin_member(3, p.t1, p.t0, in_a(n), n)
    leaf = ("elements", _SPREAD)
    expr, s = {
        "explicit": (leaf, from_elements(_SPREAD)),
        "complement": (("complement", leaf), complement(from_elements(_SPREAD))),
        "thin": (("thin", leaf), thin(from_elements(_SPREAD))),
        "scale": (("scale", leaf, 5), scale(from_elements(_SPREAD), 5)),
    }[kind]
    return s, oracles.expr_members(expr, _MEMBER_INDICES[-1] + 1).__getitem__


@pytest.mark.parametrize("kind", ["kw", "block", "random-ext", "thin", "scale",
                                  "complement", "explicit"])
def test_member_reads_its_chunk_bit(kind):
    s, truth = _member_case(kind)
    assert [s.member(n) for n in _MEMBER_INDICES] == [truth(n) for n in _MEMBER_INDICES]
    assert s.member(-1) is False


# -- every set kind is freed by reference counting -------------------------

_PAIR = ((2, 3), ("3/10", "1/2"))
_FREED_KINDS = {
    "omega": omega,
    "empty": lambda: from_elements([]),
    "explicit": lambda: from_elements(_SPREAD),
    "oracle": lambda: from_membership(lambda n: n % 3 == 0),
    "coded": lambda: coded_independent_set("01", 3),
    "complement": lambda: complement(kw_set(2, "3/10")),
    "scale": lambda: scale(from_elements(_SPREAD), 5),
    "thin": lambda: thin(kw_set(2, "3/10")),
    "intersect": lambda: intersect(kw_set(2, "3/10"), kw_set(3, "1/2")),
    "random-ext": lambda: random_extension(kw_family(*_PAIR), "A0", "2/5", seed=3)[0],
    "thin-ext": lambda: thin_extension(kw_family(*_PAIR)),
    "kw": lambda: kw_set(2, "3/10"),
    "block": lambda: BlockParitySet(coded_independent_set("01", 3)),
}


@pytest.mark.parametrize("kind", list(_FREED_KINDS))
def test_every_set_kind_is_freed_without_cyclic_gc(kind):
    # a set that refers to itself (a bound method stored on it, a closure
    # over it) would live on until the cyclic collector runs
    gc.disable()
    try:
        s = _FREED_KINDS[kind]()
        s.chunk_mask(0)
        ref = weakref.ref(s)
        del s
        assert ref() is None
    finally:
        gc.enable()


# -- operator kernels at chunk edges, against the pointwise oracle ----------

_HALF = CHUNK_BITS // 2
# members of the second chunk, as offsets into it
_THIN_CHUNKS = {
    "empty": [],
    "full": range(CHUNK_BITS),
    "first-bit": [0],
    "last-bit": [CHUNK_BITS - 1],
    "both-halves": [i * i % CHUNK_BITS for i in range(1, 3000)] + [_HALF - 1, _HALF],
    "one-per-half": [17, _HALF + 17],
}


@pytest.mark.parametrize("below", [4, 7])  # S's count before the chunk: even, odd
@pytest.mark.parametrize("name", sorted(_THIN_CHUNKS))
def test_thin_full_chunk_matches_oracle(name, below):
    elems = frozenset(range(0, 2 * below, 2)) | {CHUNK_BITS + x for x in _THIN_CHUNKS[name]}
    want = oracles.expr_members(("thin", ("elements", elems)), 2 * CHUNK_BITS)[CHUNK_BITS:]
    # ranked from S's prefix count, and carried on from the chunk before
    fresh, swept = thin(from_elements(elems)), thin(from_elements(elems))
    swept.chunk_mask(0)
    for t in (fresh, swept):
        assert mask_to_bits(t.chunk_mask(1), CHUNK_BITS).tolist() == want


def _count_orbit_kernel_calls(monkeypatch) -> dict[str, int]:
    calls = {"orbit_chunk_mask": 0, "orbit_chunk_continue": 0}
    for name in calls:
        orig = getattr(fixedpoint, name)

        def counted(*a, orig=orig, name=name):
            calls[name] += 1
            return orig(*a)

        monkeypatch.setattr(fixedpoint, name, counted)
    return calls


def _unhinted(s: SetBase) -> SetBase:
    """s's chunks with no count hint, so window_counts sweeps them."""
    return SetBase(s.descriptor, chunk_fn=s.chunk_mask)


def test_scale_of_a_thin_extension_sweeps_in_linear_time(monkeypatch):
    # the sweep reads T at chunk c and each scale(T, m) reads it near c / m,
    # so each of these readers must start T's chunks from the parities
    # carried into them, not from a fresh count of T's atoms below them
    calls = _count_orbit_kernel_calls(monkeypatch)
    for factors in ((3,), (2, 3)):
        used, count_e = {}, {}
        for chunks in (8, 16, 32):
            fam = kw_family([2, 3, 5], ["0.3", "0.5", "0.7"])
            t = thin_extension(fam.subfamily(["A0", "A1"]))
            e = intersect(fam.set_of("A2"), *(scale(t, m) for m in factors))
            calls.update(dict.fromkeys(calls, 0))
            count_e[chunks] = window_counts([*fam.sets, t, e], (chunks * CHUNK_BITS,))[-1]
            used[chunks] = sum(calls.values())
        assert used[16] <= 2 * used[8] + 8, (factors, used)
        assert used[32] <= 2 * used[16] + 8, (factors, used)
        # E counted alone, so no sweep of T interleaves with the scales' reads
        fam = kw_family([2, 3, 5], ["0.3", "0.5", "0.7"])
        t = thin_extension(fam.subfamily(["A0", "A1"]))
        alone = intersect(fam.set_of("A2"), *(scale(t, m) for m in factors))
        assert window_counts([alone], (32 * CHUNK_BITS,))[0] == count_e[32]


def test_rotation_set_swept_with_its_scale_takes_the_direct_kernel_a_fixed_number_of_times(
        monkeypatch):
    # the sweep reads A at chunk c and scale(A, 3) reads it near c / 3;
    # each reader continues from the mask carried into its next chunk, so
    # only the readers' first chunks take the direct kernel
    calls = _count_orbit_kernel_calls(monkeypatch)
    direct = {}
    for chunks in (8, 16, 32):
        a = kw_set(2, "3/10")
        calls.update(dict.fromkeys(calls, 0))
        counts = window_counts([_unhinted(a), _unhinted(scale(a, 3))], (chunks * CHUNK_BITS,))
        assert counts == [(a.prefix_count(chunks * CHUNK_BITS),),
                          (a.prefix_count(-(-chunks * CHUNK_BITS // 3)),)]
        direct[chunks] = calls["orbit_chunk_mask"]
    assert direct[8] == direct[16] == direct[32] <= 4, direct


@pytest.mark.parametrize("chunks", [16, 64])
def test_carried_state_stays_two_entries_per_reader(chunks):
    # T is read by the sweep, by scale(T, 2) and by scale(T, 3): three
    # readers, and so are the rotation leaves under T's atoms
    fam = kw_family([2, 3], ["0.3", "0.5"])
    t = thin(*atoms(fam.sets))
    e = intersect(scale(t, 2), scale(t, 3))
    window_counts([t, e], (chunks * CHUNK_BITS,))
    for s in (*fam.sets, t):
        assert len(s._carried) <= 2 * 3, (s.descriptor, sorted(s._carried))


_READ_CHUNKS = 16


@functools.cache
def _fresh_chunk(kind: str, ci: int) -> int:
    return _read_order_set(kind).chunk_mask(ci)


def _read_order_set(kind: str) -> SetBase:
    if kind == "kw":
        return kw_set(2, "3/10")
    return thin_extension(kw_family([3, 5], ["0.5", "0.7"]))


def _two_readers(start: int, rate: int, steps: int) -> list[int]:
    # one reader at chunk c and one near c / rate, as a sweep and a scale
    return [i for c in range(start, start + steps) for i in (c, c // rate)]


_read_runs = st.one_of(
    st.builds(lambda a, k: list(range(a, a + k)), st.integers(0, 10), st.integers(1, 5)),
    st.builds(lambda a, k: [a] * k, st.integers(0, 15), st.integers(2, 3)),
    st.builds(_two_readers, st.integers(0, 10), st.integers(2, 3), st.integers(1, 5)),
)


# no shrink phase: a failing order is short enough to read as it is drawn
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.lists(_read_runs, min_size=1, max_size=6).map(lambda runs: sum(runs, [])))
def test_chunks_read_in_any_order_match_a_fresh_set(order):
    # forward runs, repeats, jumps back and ahead between runs, and two
    # readers at different rates: whatever state the reads leave carried,
    # every chunk is the one a set that computed nothing else gives
    assert max(order) < _READ_CHUNKS
    for kind in ("kw", "thin-ext"):
        s = _read_order_set(kind)
        for ci in order:
            assert s.chunk_mask(ci) == _fresh_chunk(kind, ci), (kind, ci)


@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_thin_of_k_parts_matches_oracle(k, odd):
    # part i has i + odd members below the second chunk, so its rank
    # there is even or odd by i; in the chunk it has a few hundred
    # members, the chunk's first and last index among them for some parts
    rng = np.random.default_rng(k + 10 * odd)
    parts = []
    for i in range(k):
        inside = rng.choice(CHUNK_BITS, 300 + 40 * i, replace=False).tolist()
        edges = [0, CHUNK_BITS - 1][: i % 3]
        parts.append(frozenset(range(0, 2 * (i + odd), 2))
                     | {CHUNK_BITS + x for x in inside + edges})
    want = oracles.expr_members(("thin", *(("elements", p) for p in parts)), 2 * CHUNK_BITS)
    fresh, swept = (thin(*(from_elements(p) for p in parts)) for _ in range(2))
    swept.chunk_mask(0)
    for t in (fresh, swept):
        assert mask_to_bits(t.chunk_mask(1), CHUNK_BITS).tolist() == want[CHUNK_BITS:]


@pytest.mark.parametrize("factor", [5, 7, 65_537])
@pytest.mark.parametrize("ci", [1, 3])  # chunk starts 65,536 and 196,608
def test_scale_chunk_off_progression_matches_oracle(factor, ci):
    assert ci * CHUNK_BITS % factor != 0
    expr = ("periodic", frozenset({1, 3, 4}), 7)
    truth = oracles.expr_members(("scale", expr, factor), (ci + 1) * CHUNK_BITS)
    got = scale(build(expr), factor).chunk_mask(ci)
    assert mask_to_bits(got, CHUNK_BITS).tolist() == truth[ci * CHUNK_BITS:]
    assert got != 0


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
        st.lists(children, min_size=1, max_size=3).map(lambda xs: ("thin", *xs)),
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
        return from_elements([])
    if kind == "scale":
        return scale(build(args[0]), args[1])
    return _OPS[kind](*map(build, args))


@given(st.lists(expressions, min_size=1, max_size=2),
       st.integers(2 * CHUNK_BITS + 1, 3 * CHUNK_BITS),
       st.lists(st.floats(0, 1), min_size=1, max_size=4), st.data())
# no shrink phase: minimising a failure reruns the pointwise leaves until
# hypothesis's time cap, so a failure would take minutes to report
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
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
    # must rank its parts before its first chunk
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
