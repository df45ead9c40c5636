"""Family constructors: rotation sets, coded classical sets, block
parity transforms, randomized extensions, gap families, pattern packing.
"""

import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import densfam.fixedpoint as fx
import densfam.rng as rng
from densfam import (
    AtomReport,
    BlockParitySet,
    ExtensionParams,
    Family,
    KWSet,
    WindowSchedule,
    alignment_block,
    atom_density,
    block_transform,
    coded_independent_set,
    f2_rank,
    from_elements,
    from_membership,
    gap_family,
    greedy_atom_pack,
    kw_family,
    kw_set,
    random_extension,
)
from densfam.constructors import MAX_PACK_MEMBERS, _blocks
from densfam.sets import CHUNK_BITS, SetBase, bits_to_mask, thin, window_counts

rationals_01 = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                            max_denominator=100)


# -- fixed-point layer -----------------------------------------------------

# frozen from mpmath: floor(sqrt(r) * 2**96) at 60 digits
SQRT_FIXED = {
    2: 112045541949572279837463876454,
    3: 137227202865029797602485611888,
    5: 177159557114295710296101716160,
}


@pytest.mark.parametrize("r", sorted(SQRT_FIXED))
def test_sqrt_fixed_matches_frozen_oracle(r):
    assert fx.sqrt_fixed(r) == SQRT_FIXED[r]


def test_sqrt_fixed_is_floor_of_true_root():
    for r in (2, 3, 7, 11):
        v = fx.sqrt_fixed(r)
        assert v * v <= r << 192 < (v + 1) * (v + 1)


def test_sqrt_fixed_rejects_bad_radicands():
    for r in (0, 1, 4, 9, 12, 18):
        with pytest.raises(ValueError):
            fx.sqrt_fixed(r)


def test_is_square_free():
    assert [r for r in range(2, 20) if fx.is_square_free(r)] == [
        2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]


def test_square_free_radicands_prefix():
    # a gap family takes the square-free radicands from 2 up, in order
    fam = gap_family(Fraction(9, 10), 5)
    assert tuple(s.radicand for s in fam.sets) == (2, 3, 5, 6, 7)


def test_threshold_fixed_rounds_down():
    assert fx.threshold_fixed(Fraction(1, 2)) == 1 << 95
    assert fx.threshold_fixed(Fraction(1, 3)) == ((1 << 96) - 1) // 3


def test_threshold_fixed_guards_margin():
    eps = Fraction(1, 1 << 40)  # inside the forbidden margin
    for p in (eps, 1 - eps):
        with pytest.raises(ValueError):
            fx.threshold_fixed(p)


@pytest.mark.parametrize("p, accepted", [
    (Fraction(1, 1 << 39), False), (Fraction(3, 1 << 40), True),
    (1 - Fraction(3, 1 << 40), True), (1 - Fraction(1, 1 << 39), False),
], ids=["margin", "margin+half", "top-half", "top"])
def test_kw_threshold_margin_at_its_edges(p, accepted):
    # the rejected margin is 2**-39 on either side; 1.5 of it builds a set
    if not accepted:
        with pytest.raises(ValueError, match="too close to 0 or 1"):
            kw_set(2, p)
        return
    s = kw_set(2, p)
    low = (1 << 3000) - 1
    assert s.chunk_mask(0) & low == oracles.orbit_walk_mask(s._step, s._thr_eff, 0, 3000)


def test_orbit_value_is_exact_modular_multiple():
    step = fx.frac_step(2)
    for n in (0, 1, 7, 12345, 10**7):
        assert fx.orbit_value(step, n) == (n * step) % fx.MOD


def test_iterated_sqrt_converges_toward_one():
    p = Fraction(9, 10)
    prev = fx.threshold_fixed(p)
    for t in range(1, 4):
        cur = fx.iterated_sqrt_fixed(p, t)
        assert cur > prev
        # squaring back, up to fixed-point truncation, recovers the
        # previous level
        sq = (cur * cur) >> fx.FRAC_BITS
        assert abs(sq - prev) <= 2
        prev = cur


# -- counter RNG -----------------------------------------------------------

# frozen: numpy Philox4x64, key=20260816, first eight outputs
PHILOX_PIN = [
    15195873253082300152, 6405049353886341247, 6480161597397182469,
    9623267390198222785, 12490499062507873345, 7299875259050722401,
    5971853599101367929, 1864653829396523777,
]


def test_u64_stream_pinned():
    got = [int(x) for x in rng.u64_range(20260816, 0, 8)]
    assert got == PHILOX_PIN


def test_u64_range_is_offset_consistent():
    whole = [int(x) for x in rng.u64_range(99, 0, 40)]
    part = [int(x) for x in rng.u64_range(99, 13, 29)]
    assert part == whole[13:29]
    assert int(rng.u64_range(99, 17, 18)[0]) == whole[17]


def test_acceptance_threshold_floor():
    assert rng.acceptance_threshold(Fraction(1, 2)) == 1 << 63
    assert rng.acceptance_threshold(Fraction(3, 10)) == (3 << 64) // 10


# -- rotation threshold sets -------------------------------------------------


def test_kw_set_validation():
    with pytest.raises(ValueError):
        kw_set(4, Fraction(1, 2))  # not square-free
    with pytest.raises(ValueError):
        kw_set(2, Fraction(1, 1 << 40))  # threshold under the margin


def test_kw_family_shape():
    fam = kw_family([2, 3, 5], [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
    assert fam.names == ("A0", "A1", "A2")
    assert fam.densities == (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
    assert all(isinstance(s, KWSet) for s in fam.sets)


def test_kw_family_rejects_repeated_radicand():
    with pytest.raises(ValueError):
        kw_family([2, 2], [Fraction(1, 3), Fraction(1, 2)])


def test_kw_chunk_agrees_with_member():
    s = kw_set(3, Fraction(2, 7))
    walk = oracles.orbit_walk_mask(s._step, s._thr_eff, 0, 3000)
    assert bits_to_mask(s.bits_range(0, 3000)) == walk
    for n in (0, 1, 17, 100, 2999):
        assert oracles.chunk_bit(s, n) == bool(walk >> n & 1)


@pytest.mark.parametrize("first", [1, 5, 1 << 20])
def test_kw_sweep_from_a_chunk_whose_predecessor_was_never_computed(monkeypatch, first):
    # the first chunk of a sweep, as at the start of a worker's range,
    # comes from the direct kernel, each later one is continued, and all
    # of them match the walk
    calls = {"orbit_chunk_mask": [], "orbit_chunk_continue": []}
    # the start is argument 2 of the direct kernel and 1 of the continued one
    for (name, seen), at in zip(calls.items(), (2, 1)):
        real = getattr(fx, name)
        monkeypatch.setattr(fx, name,
                            lambda *a, r=real, s=seen, at=at: s.append(a[at]) or r(*a))
    s = kw_set(7, Fraction(5, 11))
    for ci in range(first, first + 3):
        assert s.chunk_mask(ci) == oracles.orbit_walk_mask(s._step, s._thr_eff,
                                                           ci * CHUNK_BITS, CHUNK_BITS)
    starts = [first * CHUNK_BITS, (first + 1) * CHUNK_BITS, (first + 2) * CHUNK_BITS]
    assert calls == {"orbit_chunk_mask": starts[:1], "orbit_chunk_continue": starts[1:]}


def test_kw_chunk_0_is_not_continued_from_the_empty_slot(monkeypatch):
    # nothing is carried into a fresh set's chunk 0, so the direct kernel
    # computes it; the one-chunk slot's start, (-1, 0), is no chunk -1
    monkeypatch.setattr(fx, "orbit_chunk_continue", None)
    s = kw_set(2, Fraction(1, 2))
    assert s.chunk_mask(0) == oracles.orbit_walk_mask(s._step, s._thr_eff, 0, CHUNK_BITS)


def test_kw_band_bound_formula():
    assert KWSet.band_bound(10**6) == Fraction(2 * 10**6, 1 << 40) + 1


def test_kw_band_hits_within_bound():
    s = kw_set(2, Fraction(3, 10))
    hits = s.band_count(10**5)
    assert 0 <= hits <= KWSet.band_bound(10**5)


# an index far out with a mid-range orbit value, which places thr_fixed exactly
_N0 = 12_345_678


@pytest.mark.parametrize("offset, member, in_band", [
    (fx.GUARD * 3 // 4, True, True),  # in the upper half of the band
    (fx.GUARD - 1, True, True),  # the band's last value
    (fx.GUARD, False, False),  # the first value past it
    (-fx.GUARD, True, True),  # the band's first value
], ids=["upper-half", "last", "past", "first"])
def test_kw_resolves_orbit_values_in_the_guard_band_as_members(offset, member, in_band):
    # index _N0's orbit value sits at thr_fixed + offset: the guard band is
    # [thr_fixed - GUARD, thr_fixed + GUARD), and all of it is members
    v = fx.orbit_value(fx.frac_step(2), _N0)
    assert fx.MOD // 4 < v < 3 * fx.MOD // 4
    s = KWSet(2, Fraction(1, 2), thr_fixed=v - offset)
    ci, b = divmod(_N0, CHUNK_BITS)
    assert s.chunk_mask(ci) >> b & 1 == member
    assert s.count_hint(_N0 + 1) - s.count_hint(_N0) == member
    assert s.band_count(_N0 + 1) - s.band_count(_N0) == in_band


@pytest.mark.parametrize("thr_fixed, accepted", [
    (fx.GUARD, False), (fx.GUARD + 1, True),
    (fx.MOD - 2 * fx.GUARD - 1, True), (fx.MOD - 2 * fx.GUARD, False),
    (fx.MOD - 2 * fx.GUARD + 1, False),
], ids=["guard", "guard+1", "top-1", "top", "top+1"])
def test_kw_threshold_check_at_its_edges(thr_fixed, accepted):
    # top = MOD - 2 * GUARD, the first threshold rejected below 1
    if not accepted:
        with pytest.raises(ValueError, match="too close to 0 or 1"):
            KWSet(2, Fraction(1, 2), thr_fixed=thr_fixed)
        return
    s = KWSet(2, Fraction(1, 2), thr_fixed=thr_fixed)
    low = (1 << 3000) - 1
    assert s.chunk_mask(0) & low == oracles.orbit_walk_mask(s._step, thr_fixed + fx.GUARD, 0, 3000)


def test_kw_reader_that_starts_mid_sweep_steps_from_its_own_visits(monkeypatch):
    # one reader sweeps from chunk 0; a second starts at chunk 37 when the
    # first is at chunk 3, and they interleave.  Each continues from what
    # was carried into its own next chunk, so only chunks 0 and 37 take the
    # direct kernel, and every gap q' or q + q' (under 2 chunks for sqrt 5)
    # is stepped several times by each
    s = kw_set(5, Fraction(3, 10))
    want = [fx.orbit_chunk_mask(s._step, s._thr_eff, ci * CHUNK_BITS, CHUNK_BITS)
            for ci in range(48)]
    direct = []
    real = fx.orbit_chunk_mask
    monkeypatch.setattr(fx, "orbit_chunk_mask", lambda *a: direct.append(a[2]) or real(*a))
    reads = [0, 1, 2] + [ci for k in range(11) for ci in (3 + k, 37 + k)]
    assert [s.chunk_mask(ci) for ci in reads] == [want[ci] for ci in reads]
    assert direct == [0, 37 * CHUNK_BITS]


def test_kw_descriptor():
    s = kw_set(5, Fraction(7, 10))
    assert s.descriptor["kind"] == "kw"
    assert s.descriptor["radicand"] == 5


# -- coded classical sets -----------------------------------------------------

# frozen from oracles.coded_bits_hex (explicit subset enumeration)
CODED_BITS = {
    ("0", 1, 6): "0x2a",
    ("1", 1, 6): "0x32",
    ("00", 2, 22): "0x2aaaaa",
    ("01", 2, 22): "0x33332a",
    ("10", 2, 22): "0x3c3c32",
    ("11", 2, 22): "0x3fc032",
    ("00", 4, 278): "0x2aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    ("01", 4, 278): "0x3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c33332a",
    ("10", 4, 278): "0x3fffc0003fffc0003fffc0003fffc0003fffc0003fffc0003fffc0003fffc0003c3c32",
}


@pytest.mark.parametrize("sigma,depth,nbits", sorted(CODED_BITS, key=str))
def test_coded_bits_match_frozen_oracle(sigma, depth, nbits):
    s = coded_independent_set(sigma, depth)
    assert hex(bits_to_mask(s.bits_range(0, nbits))) == CODED_BITS[(sigma, depth, nbits)]


def test_coded_matches_live_oracle():
    s = coded_independent_set("101", 3)
    for k in range(0, 278, 7):
        assert oracles.chunk_bit(s, k) == oracles.coded_member_enum("101", 3, k)


def test_coded_block_sizes():
    # block n holds one index per subset of the length-n strings
    assert oracles.coded_block_starts(4) == [0, 2, 6, 22, 278, 65814]


def test_coded_separation_in_next_block():
    # parameters differing at position i separate inside block i+1
    for a, b, pos in (("00", "01", 1), ("00", "10", 0), ("01", "11", 0)):
        sa = coded_independent_set(a, 4)
        sb = coded_independent_set(b, 4)
        starts = oracles.coded_block_starts(4)
        lo, hi = starts[pos + 1], starts[pos + 2]
        assert any(oracles.chunk_bit(sa, k) != oracles.chunk_bit(sb, k) for k in range(lo, hi))


def test_coded_depth_cap():
    with pytest.raises(ValueError):
        coded_independent_set("0", 6)


def test_coded_indices_beyond_last_block_excluded():
    s = coded_independent_set("01", 2)
    assert not any(oracles.chunk_bit(s, k) for k in range(22, 50))


# a parameter per depth, with both bit values below the cap
CODED_SIGMA = {0: "", 1: "1", 2: "10", 3: "011", 4: "1011", 5: "01101"}


@pytest.mark.parametrize("depth", sorted(CODED_SIGMA))
def test_coded_kernel_matches_oracle_next_to_every_block_start(depth):
    sigma = CODED_SIGMA[depth]
    s = coded_independent_set(sigma, depth)
    # the last start is the end of the last block
    starts = oracles.coded_block_starts(depth)
    for k in sorted({k for start in starts for k in (start - 1, start, start + 1) if k >= 0}):
        assert oracles.chunk_bit(s, k) == oracles.coded_member_enum(sigma, depth, k), k


@pytest.mark.parametrize("depth", sorted(CODED_SIGMA))
def test_coded_kernel_matches_oracle_on_the_chunk_that_holds_its_end(depth):
    sigma = CODED_SIGMA[depth]
    s = coded_independent_set(sigma, depth)
    end = oracles.coded_block_starts(depth)[-1]
    ci = end // CHUNK_BITS
    assert ci == {4: 1, 5: 65537}.get(depth, 0)
    assert oracles.chunk_bit(s, end - 1) == oracles.coded_member_enum(sigma, depth, end - 1)
    assert not oracles.chunk_bit(s, end)
    lo = ci * CHUNK_BITS
    expect = sum(1 << i for i in range(CHUNK_BITS)
                 if oracles.coded_member_enum(sigma, depth, lo + i))
    assert s.chunk_mask(ci) == expect
    assert s.chunk_mask(ci + 1) == 0


# -- factorial blocks ----------------------------------------------------------


def test_factorial_block_layout():
    starts = oracles.factorial_block_starts(40)
    assert list(_blocks(0, starts[39])) == [(m, starts[m], starts[m + 1]) for m in range(39)]
    for m in range(40):
        assert next(_blocks(starts[m], starts[m] + 1))[0] == m
        if m:
            assert next(_blocks(starts[m] - 1, starts[m]))[0] == m - 1
    # no block holds a negative index
    assert list(_blocks(-1, 0)) == []


# frozen from oracles.block_parity_count_enum
BLOCK_PARITY_COUNTS = {
    "evens": {7: 3, 100: 50, 250: 125, 3000: 1500},
    "odds": {7: 0, 100: 47, 250: 123, 3000: 1498},
}


@pytest.mark.parametrize("which", sorted(BLOCK_PARITY_COUNTS))
def test_block_parity_counts_match_frozen_oracle(which):
    residue = 0 if which == "evens" else 1
    cls = from_elements(range(residue, 40, 2))
    bp = BlockParitySet(cls)
    for n, expect in BLOCK_PARITY_COUNTS[which].items():
        assert bp.prefix_count(n) == expect


def test_block_parity_hint_matches_sweep():
    bp = BlockParitySet(from_elements([0, 3, 4, 9, 11]))
    for n in (1, 28, 222, 2141, 5000, 70_001):
        assert bp.prefix_count(n) == bp.sweep_prefix(n)


def test_block_parity_member_matches_live_oracle():
    members = {0, 3, 4, 9, 11}
    bp = BlockParitySet(from_elements(members))
    starts = oracles.factorial_block_starts(12)
    for n in range(0, 2141, 13):
        assert oracles.chunk_bit(bp, n) == oracles.block_parity_member_enum(members, n, starts)


# chunk 5 holds the start of block 7 (347,741) and chunk 84 that of block 8
# (5,508,701); each chunk opens inside the block before, at a nonzero phase
WALK_CHUNKS = {5: 7, 84: 8}


@pytest.mark.parametrize("ci, m", sorted(WALK_CHUNKS.items()))
def test_block_parity_chunk_across_a_block_start_matches_oracle(ci, m):
    members = {0, 3, 4, 9, 11}
    starts = oracles.factorial_block_starts(10)
    a = ci * CHUNK_BITS
    assert a < starts[m] < a + CHUNK_BITS
    expect = sum(1 << i for i in range(CHUNK_BITS)
                 if oracles.block_parity_member_enum(members, a + i, starts))
    assert BlockParitySet(from_elements(members)).chunk_mask(ci) == expect


@pytest.mark.parametrize("m", sorted(WALK_CHUNKS.values()))
def test_block_parity_hint_matches_sweep_at_a_block_start(m):
    start = oracles.factorial_block_starts(10)[m]
    bp = BlockParitySet(from_elements([0, 3, 4, 9, 11]))
    for n in (start - 1, start, start + 1):
        assert bp.count_hint(n) == bp.sweep_prefix(n)


def test_f2_rank_examples():
    assert f2_rank([]) == 0
    assert f2_rank([0b1010, 0b0101]) == 2
    assert f2_rank([0b1010, 0b0101, 0b1111]) == 2  # third is the sum
    assert f2_rank([1, 2, 4, 8]) == 4


def test_alignment_block_for_coded_triple():
    classical = [coded_independent_set(s, 4) for s in ("00", "01", "10")]
    # frozen from the enumeration oracle: the three initial-segment
    # indicator vectors first reach rank 3 at block 8
    assert alignment_block(classical) == 8


def test_alignment_block_none_for_dependent_masks():
    # identical classical sets can never reach rank 2
    a = from_elements(range(0, 40, 2))
    b = from_elements(range(0, 40, 2))
    assert alignment_block([a, b], max_block=10) is None


def test_block_transform_family():
    classical = [coded_independent_set(s, 4) for s in ("00", "01")]
    fam = block_transform(classical)
    assert fam.densities == (Fraction(1, 2), Fraction(1, 2))
    assert alignment_block(classical) is not None


def race(call, threads=4):
    """Results of call() in `threads` threads released together, with the
    interpreter switching threads every microsecond."""
    barrier = threading.Barrier(threads)
    out = [None] * threads

    def run(i):
        barrier.wait()
        out[i] = call()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in pool)
    return out


def test_classical_mask_is_thread_safe():
    # counting forks processes, but a library caller may share a set
    # between threads: four of them grow a fresh set's classical prefix
    # concurrently, and a lost update drops a bit and changes every
    # parity period above it
    expect = sum(1 << n for n in range(3000) if n % 3 != 0)
    for _ in range(20):
        bp = BlockParitySet(from_membership(lambda n: n % 3 != 0))
        assert race(lambda: bp.classical_mask(3000)) == [expect] * 4


def test_thin_set_shared_across_threads_stays_exact():
    # threads of one process (counting itself forks processes) share the
    # thin set's last-chunk tuple and its carried parities; each depends
    # on its chunk index only.  Three base members per chunk make
    # the kept bits flip with the rank parity at every chunk.
    for _ in range(5):
        t = thin(SetBase({"kind": "probe"}, chunk_fn=lambda ci: 0b111))
        assert race(lambda: t.sweep_prefix(64 * CHUNK_BITS)) == [96] * 4


def test_rotation_set_shared_across_threads_stays_exact():
    # the threads share the set's one-chunk slot and the masks carried
    # from chunk to chunk; a carried mask depends on its chunk index only
    for _ in range(5):
        s = kw_set(2, Fraction(3, 10))
        n = 16 * CHUNK_BITS
        assert race(lambda: s.sweep_prefix(n)) == [s.prefix_count(n)] * 4


# -- biased-coin extension parameters -------------------------------------------


def test_extension_params_half_half_exact():
    p = ExtensionParams.from_target(Fraction(1, 2), Fraction(1, 2))
    assert (p.eps, p.x0, p.x1, p.t0, p.t1) == (
        Fraction(1, 8), Fraction(1, 8), Fraction(3, 8),
        Fraction(1, 4), Fraction(3, 4),
    )


@given(rationals_01, rationals_01)
def test_extension_params_identity(a, s):
    p = ExtensionParams.from_target(a, s)
    # the two conditional rates must average back to the target exactly
    assert p.t1 * a + p.t0 * (1 - a) == s
    assert p.eps == Fraction(1, 2) * min(a * (1 - s), s * (1 - a))
    assert 0 <= p.t0 <= 1 and 0 <= p.t1 <= 1
    assert p.t1 - p.t0 > 0  # the bias direction is fixed


def test_extension_params_rejects_degenerate():
    with pytest.raises(ValueError):
        ExtensionParams.from_target(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        ExtensionParams.from_target(Fraction(1, 2), Fraction(1))


def test_random_extension_deterministic(kw_pair):
    b1, p1 = random_extension(kw_pair, "A0", Fraction(1, 2), seed=7)
    b2, p2 = random_extension(kw_pair, "A0", Fraction(1, 2), seed=7)
    assert p1 == p2
    assert b1.prefix_count(30_000) == b2.prefix_count(30_000)
    assert b1.bits_range(0, 500).tolist() == b2.bits_range(0, 500).tolist()


def test_random_extension_seed_sensitivity(kw_pair):
    b1, _ = random_extension(kw_pair, "A0", Fraction(1, 2), seed=7)
    b2, _ = random_extension(kw_pair, "A0", Fraction(1, 2), seed=8)
    assert b1.bits_range(0, 2000).tolist() != b2.bits_range(0, 2000).tolist()


def test_random_extension_chunk_agrees_with_member(kw_pair):
    b, p = random_extension(kw_pair, "A1", Fraction(2, 5), seed=3)
    a = kw_pair.set_of("A1")
    in_a = oracles.orbit_walk_mask(a._step, a._thr_eff, 0, 1000)
    expect = [oracles.coin_member(3, p.t1, p.t0, bool(in_a >> n & 1), n) for n in range(1000)]
    assert [bool(x) for x in b.bits_range(0, 1000)] == expect
    for n in (0, 1, 2, 99, 500, 999):
        assert oracles.chunk_bit(b, n) == expect[n]


def test_random_extension_unknown_member(kw_pair):
    with pytest.raises(KeyError):
        random_extension(kw_pair, "NOPE", Fraction(1, 2), seed=1)


def test_random_extension_descriptor_records_provenance(kw_pair):
    b, _ = random_extension(kw_pair, "A0", Fraction(1, 2), seed=11)
    d = b.descriptor
    assert d["kind"] == "random-ext"
    assert d["algorithm"] == rng.RNG_ALGORITHM
    assert d["seed"] == 11
    assert d["distinguished"] == "A0"


def coin_family(lo):
    """A rotation, a block parity and an explicit member, the last one
    holding every third index around [lo, lo + CHUNK_BITS)."""
    explicit = from_elements(range(max(lo - 256, 0), lo + CHUNK_BITS + 256, 3))
    return Family(
        ("K", "B", "E"),
        (kw_set(2, Fraction(3, 10)), BlockParitySet(coded_independent_set("0110", 4)),
         explicit),
        (Fraction(3, 10), Fraction(1, 2), Fraction(1, 3)),
    )


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["K", "B", "E"]),
    ci=st.one_of(st.integers(0, 3), st.integers(0, (1 << 24) - 2)),
    off=st.integers(-256, CHUNK_BITS - 1),
    length=st.integers(1, 256),
    target=rationals_01,
    seed=st.integers(0, (1 << 128) - 1),
    swap=st.booleans(),
)
def test_random_extension_matches_pointwise_coin(which, ci, off, length, target,
                                                 seed, swap):
    lo = ci * CHUNK_BITS
    start = max(lo + off, 0)
    stop = start + length
    fam = coin_family(lo)
    from_target = ExtensionParams.from_target

    def params(a, s):
        # from_target always gives t1 > t0; swapping covers the other order
        p = from_target(a, s)
        return p._replace(t0=p.t1, t1=p.t0) if swap else p

    with mock.patch.object(ExtensionParams, "from_target", params):
        b, p = random_extension(fam, which, target, seed)
    assert (p.t1 < p.t0) == swap
    a_set = fam.set_of(which)
    expect = [oracles.coin_member(seed, p.t1, p.t0, oracles.chunk_bit(a_set, n), n)
              for n in range(start, stop)]
    assert [bool(x) for x in b.bits_range(start, stop)] == expect
    inside = range(max(start, lo), min(stop, lo + CHUNK_BITS))
    mask = b.chunk_mask(ci)
    assert [bool(mask >> (n - lo) & 1) for n in inside] == [
        expect[n - start] for n in inside]


def coin_over_block():
    b0 = BlockParitySet(coded_independent_set("0110", 4))
    fam = Family(("B0",), (b0,), (Fraction(1, 2),))
    return random_extension(fam, "B0", Fraction(2, 5), seed=11)[0]


@pytest.mark.parametrize("chunks", [1, 2, 5, 7])
def test_sweep_prefix_agrees_across_workers(chunks):
    # a fresh set per worker count, so every run computes its own chunks;
    # 3 workers split 5 or 7 chunks unevenly, 8 workers outnumber them
    n = chunks * CHUNK_BITS + 4321
    counts = {}
    for w in (1, 2, 3, 8):
        s = coin_over_block()
        counts[w] = [s.sweep_prefix(n, workers=w)] + [
            s.sweep_prefix(k * CHUNK_BITS) for k in range(chunks + 1)]
    assert counts[2] == counts[3] == counts[8] == counts[1]


# -- gap families -----------------------------------------------------------------


def test_gap_family_product_exceeds_target():
    fam = gap_family(Fraction(9, 10), 4)
    prod = math.prod(fam.densities)
    assert prod >= Fraction(9, 10)
    # frozen decimal from the fixed-point construction
    assert f"{float(prod):.12f}" == "0.905946085100"


def test_gap_family_densities_increase_toward_one():
    fam = gap_family(Fraction(9, 10), 4)
    ds = fam.densities
    assert all(Fraction(1, 2) < d < 1 for d in ds)
    assert all(a < b for a, b in zip(ds, ds[1:]))
    assert fam.names == ("G0", "G1", "G2", "G3")


def test_gap_family_validation():
    with pytest.raises(ValueError):
        gap_family(Fraction(1, 2), 3)  # target must exceed one half
    with pytest.raises(ValueError):
        gap_family(Fraction(9, 10), 0)


# -- atom densities and greedy packing ----------------------------------------------


@given(st.lists(rationals_01, min_size=1, max_size=4), st.integers(0, 15))
def test_atom_density_matches_inclusion_exclusion(ds, bits_int):
    bits = tuple((bits_int >> i) & 1 for i in range(len(ds)))
    assert atom_density(ds, bits) == oracles.atom_density_ie(ds, bits)


def test_atom_density_sums_to_one():
    ds = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    total = sum(
        atom_density(ds, tuple((i >> j) & 1 for j in range(3))) for i in range(8)
    )
    assert total == 1


# frozen from oracles.brute_pack_best over density-1/2 families
BRUTE_HALF_PACK = {
    (1, Fraction(1, 10)): 0,
    (2, Fraction(1, 10)): 0,
    (3, Fraction(1, 10)): 0,
    (1, Fraction(3, 10)): 0,
    (2, Fraction(3, 10)): 1,
    (3, Fraction(3, 10)): 2,
    (1, Fraction(3, 5)): 1,
    (2, Fraction(3, 5)): 2,
    (3, Fraction(3, 5)): 4,
}


@pytest.mark.parametrize("k,target", sorted(BRUTE_HALF_PACK, key=str))
def test_greedy_pack_optimal_for_uniform_densities(k, target):
    result = greedy_atom_pack([Fraction(1, 2)] * k, 1, target)
    assert len(result.patterns) == BRUTE_HALF_PACK[(k, target)]
    assert result.certificate_ok()
    assert result.total < target


def test_greedy_pack_worked_example():
    ds = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    result = greedy_atom_pack(ds, 1, Fraction(3, 10))
    assert result.patterns == ((1, 0, 0), (1, 0, 1), (1, 1, 0))
    assert result.total == Fraction(39, 200)
    assert result.certificate_ok()
    # the exhaustive oracle confirms three patterns is the maximum
    card, _ = oracles.brute_pack_best(ds, 1, Fraction(3, 10))
    assert card == len(result.patterns)


def test_greedy_pack_empty_when_nothing_fits():
    result = greedy_atom_pack([Fraction(1, 2)], 1, Fraction(1, 10))
    assert result.patterns == ()
    assert result.total == 0
    assert result.certificate_ok()
    assert len(result.excluded) == 1  # the single side-1 atom


@given(st.lists(rationals_01, min_size=1, max_size=3),
       st.integers(0, 1), rationals_01)
@settings(max_examples=60)
def test_greedy_pack_properties(ds, side, target):
    result = greedy_atom_pack(ds, side, target)
    k = len(ds)
    assert result.total < target
    assert result.certificate_ok()
    assert len(set(result.patterns)) == len(result.patterns)
    for p in result.patterns:
        assert len(p) == k and p[0] == side
    # never beats the exhaustive optimum
    card, _ = oracles.brute_pack_best(ds, side, target)
    assert len(result.patterns) <= card


def test_greedy_pack_accepts_family(half_family):
    result = greedy_atom_pack(half_family.densities, 0, Fraction(2, 5))
    assert result.total < Fraction(2, 5)
    assert result.certificate_ok()


def test_greedy_pack_validation():
    with pytest.raises(ValueError):
        greedy_atom_pack([Fraction(1, 2)], 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        greedy_atom_pack([], 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        greedy_atom_pack([Fraction(1, 2)], 1, Fraction(0))
    with pytest.raises(ValueError, match="at most 18 members supported here, got 19"):
        greedy_atom_pack([Fraction(1, 2)] * (MAX_PACK_MEMBERS + 1), 1, Fraction(1, 2))


# -- family container ------------------------------------------------------------


def test_family_validation():
    e = from_elements([0])
    with pytest.raises(ValueError, match="family must be nonempty"):
        Family((), (), ())
    with pytest.raises(ValueError):
        Family(("A", "A"), (e, e), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        Family(("A",), (e,), (Fraction(1),))


def test_family_lookup_and_subfamily(kw_pair):
    assert kw_pair.index("A1") == 1
    assert kw_pair.density_of("A0") == Fraction(3, 10)
    sub = kw_pair.subfamily(["A1"])
    assert sub.names == ("A1",)
    with pytest.raises(ValueError, match="names must be unique"):
        kw_pair.subfamily(["A1", "A1"])
    with pytest.raises(KeyError):
        kw_pair.index("Z")


def test_family_extended(kw_pair):
    bigger = kw_pair.extended("X", from_elements(range(0, 100, 2)), Fraction(1, 2))
    assert bigger.names == ("A0", "A1", "X")
    assert kw_pair.names == ("A0", "A1")  # original untouched


_E0, _E1 = from_elements([0]), from_elements([1])
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize("make, field, size", [
    (lambda spelled: Family(("A", "B"), (_E0, _E1), (_HALF, _THIRD)), "names", 2),
    (lambda spelled: WindowSchedule(100, "3/2" if spelled else Fraction(3, 2), 4), "ratio", None),
    (lambda spelled: AtomReport((1, 0), _THIRD, (34, 67), (_THIRD, _THIRD), _THIRD, Fraction(0),
                                Fraction(1, 201), True), "passed", None),
], ids=["family", "schedule", "atom-report"])
def test_records_are_immutable_values(make, field, size):
    # two records built apart from equal fields (a schedule's ratio once
    # as a string) are equal and hash alike, and no field can be assigned
    a, b = make(True), make(False)
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b
    if size is not None:
        assert len(a) == size


def test_replace_builds_a_family_or_schedule_through_its_checks():
    fam = Family(("A", "B"), (_E0, _E1), (_HALF, _THIRD))
    assert fam._replace(names=("X", "Y")) == Family(("X", "Y"), (_E0, _E1), (_HALF, _THIRD))
    with pytest.raises(ValueError, match="names must be unique"):
        fam._replace(names=("X", "X"))
    schedule = WindowSchedule(100, 2, 4)
    assert schedule._replace(ratio="3/2") == WindowSchedule(100, Fraction(3, 2), 4)
    with pytest.raises(ValueError, match="ratio must be > 1"):
        schedule._replace(ratio=1)


# -- stated construction identities -----------------------------------------


def test_kw_membership_tracks_fractional_part_of_root_two():
    # frac(sqrt(2)) = 0.41421..., so index 1 flips right there
    assert oracles.chunk_bit(kw_set(2, Fraction(42, 100)), 1)
    assert not oracles.chunk_bit(kw_set(2, Fraction(41, 100)), 1)


def test_kw_family_rejects_empty_input():
    with pytest.raises(ValueError):
        kw_family([], [])


def test_kw_root_three_quarter_threshold_converges():
    from densfam import WindowSchedule, estimate_density

    sched = WindowSchedule().retarget(100_000)
    est = estimate_density(kw_set(3, Fraction(1, 4)), sched)
    assert abs(est.value - Fraction(1, 4)) <= Fraction(5, 1000)


def test_coded_all_ones_offset_is_in_every_set():
    starts = oracles.coded_block_starts(5)
    sets = [coded_independent_set(tuple(int(c) for c in sig), 4)
            for sig in ("0", "1", "00", "01", "10", "11")]
    for n in (1, 2, 3):
        # the last offset of block n encodes the full set of strings
        idx = starts[n] + (1 << (1 << n)) - 1
        for s in sets:
            assert oracles.chunk_bit(s, idx)


def test_coded_every_pattern_appears_inside_early_blocks():
    sigmas = ("00", "01", "10")
    sets = [coded_independent_set(tuple(int(c) for c in sig), 4)
            for sig in sigmas]
    starts = oracles.coded_block_starts(5)
    for n in (2, 3):
        lo, hi = starts[n], starts[n] + (1 << (1 << n))
        seen = set()
        for k in range(lo, hi):
            seen.add(tuple(int(oracles.chunk_bit(s, k)) for s in sets))
        # distinct prefixes realize all 2^3 boolean patterns in one block
        assert seen == {tuple(b) for b in
                        ((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))}


def test_block_parity_fills_half_of_each_full_block():
    s = BlockParitySet(coded_independent_set((0,), 4))
    bounds = {m: (lo, hi) for m, lo, hi in _blocks(0, fx.INDEX_LIMIT)}
    for m in (4, 5, 6):
        lo, hi = bounds[m]
        below_lo, below_hi = window_counts([s], (lo, hi))[0]
        assert below_hi - below_lo == (hi - lo) // 2


def test_gap_family_nested_intersections_shrink_to_product():
    fam = gap_family(Fraction(9, 10), 4)
    partials = []
    for depth in range(1, 5):
        sub = fam.subfamily(fam.names[:depth])
        partials.append(atom_density(sub.densities, (1,) * depth))
    assert all(a > b for a, b in zip(partials, partials[1:]))
    prod = Fraction(1)
    for d in fam.densities:
        prod *= d
    assert partials[-1] == prod


def test_greedy_single_member_cases():
    got = greedy_atom_pack([Fraction(1, 2)], 1, Fraction(3, 5))
    assert got.patterns == ((1,),)
    assert got.total == Fraction(1, 2)
    empty = greedy_atom_pack([Fraction(1, 2)], 1, Fraction(3, 10))
    assert empty.patterns == ()
    assert empty.total == 0


def test_greedy_three_halves_side_zero():
    got = greedy_atom_pack([Fraction(1, 2)] * 3, 0, Fraction(3, 10))
    assert got.patterns == ((0, 0, 0), (0, 0, 1))
    assert got.total == Fraction(1, 4)
    # every excluded eligible atom would push the total to >= 3/10
    for _, d in got.excluded:
        assert got.total + d >= Fraction(3, 10)
