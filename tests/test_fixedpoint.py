"""Rotation kernels against the exact orbit walk in oracles.py: the numpy
high-limb chunk kernel bit for bit, floor-sum counts and band counts exactly,
and the enforced 2**40 validity domain."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densfam.fixedpoint as fx
import oracles
from densfam import kw_set
from densfam.constructors import KWSet
from densfam.sets import CHUNK_BITS, window_counts

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 101, 9973)

radicands = st.sampled_from(RADICANDS)
# any comparison threshold a KWSet can produce, plus the extremes
thresholds = st.one_of(
    st.integers(fx.GUARD + 1, fx.MOD - 2 * fx.GUARD - 1).map(lambda t: t + fx.GUARD),
    st.sampled_from([0, 1, fx.MOD // 2, fx.MOD - 1]),
)
chunk_indices = st.one_of(st.integers(0, 1 << 24), st.sampled_from([0, 1, 1 << 24]))
lengths = st.one_of(
    st.integers(1, CHUNK_BITS),
    # block edges of the kernel and lengths that are not byte multiples
    st.sampled_from([1, 7, 8, 9, 8191, 8192, 8193, fx._BLOCK - 1, fx._BLOCK, fx._BLOCK + 1,
                     40000, CHUNK_BITS - 1, CHUNK_BITS]),
)
# any step, not only the square roots: the kernel's edges need orbit
# values and thresholds placed by hand
steps = st.one_of(radicands.map(fx.frac_step), st.integers(1, fx.MOD - 1))


# -- floor sums -----------------------------------------------------------


@given(st.integers(0, 60), st.integers(1, 50), st.integers(-200, 200), st.integers(-200, 200))
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert fx.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_large_arguments_exact():
    # sum_{i<n} floor(i * a / m) for a = m - 1 equals sum (i - ceil(i/m)) for i < m
    m = fx.MOD
    n = 1 << 20
    assert fx.floor_sum(n, m, m - 1, 0) == n * (n - 1) // 2 - (n - 1)


# -- chunk kernel -----------------------------------------------------------


@given(radicands, thresholds, chunk_indices, st.integers(0, CHUNK_BITS - 1), lengths)
@settings(max_examples=80, deadline=None)
def test_chunk_kernel_matches_orbit_walk(r, thr_eff, ci, offset, length):
    step = fx.frac_step(r)
    start = ci * CHUNK_BITS + offset
    assert (fx.orbit_chunk_mask(step, thr_eff, start, length)
            == oracles.orbit_walk_mask(step, thr_eff, start, length))


@given(radicands, chunk_indices, lengths, st.integers(0, CHUNK_BITS - 1),
       st.one_of(st.integers(-(1 << 34), 1 << 34), st.integers(-(1 << 47), 1 << 47),
                 st.sampled_from([-1, 0, 1])))
@settings(max_examples=80, deadline=None)
def test_chunk_kernel_matches_walk_at_threshold_on_the_orbit(r, ci, length, k, delta):
    # a random threshold almost never lies within a carry (below 2**46)
    # of an orbit value; put it near one, inside and outside that reach,
    # so that a wrongly decided index flips a bit
    step = fx.frac_step(r)
    start = ci * CHUNK_BITS
    thr_eff = (fx.orbit_value(step, start + k % length) + delta) % fx.MOD
    assert (fx.orbit_chunk_mask(step, thr_eff, start, length)
            == oracles.orbit_walk_mask(step, thr_eff, start, length))


@pytest.mark.parametrize("ci", [0, 7, (1 << 24) - 1, 1 << 24])
@pytest.mark.parametrize("length", [1, 8191, 8193, fx._BLOCK - 1, fx._BLOCK + 1, CHUNK_BITS])
def test_chunk_kernel_block_edges(ci, length):
    step = fx.frac_step(3)
    thr_eff = fx.threshold_fixed(Fraction(2, 7)) + fx.GUARD
    start = ci * CHUNK_BITS
    assert (fx.orbit_chunk_mask(step, thr_eff, start, length)
            == oracles.orbit_walk_mask(step, thr_eff, start, length))


def _carry_free_high(step, start, j):
    """The kernel's high limb of index j of a range from start, before the
    low limbs' carry: hi(x) + i*hi(step) mod 2**64, where x is the orbit
    value at the start of j's block and i is j's offset in it."""
    o = (j - start) // fx._BLOCK * fx._BLOCK
    return ((fx.orbit_value(step, start + o) >> 32) + (j - start - o) * (step >> 32)) % (1 << 64)


@given(steps, st.integers(0, fx.INDEX_LIMIT), lengths, st.integers(0, CHUNK_BITS - 1),
       st.booleans(), st.sampled_from([-1, 0, 1, fx._BLOCK - 2, fx._BLOCK - 1, fx._BLOCK]),
       st.integers(0, (1 << 32) - 1))
@settings(max_examples=120, deadline=None)
def test_chunk_kernel_at_the_ends_of_the_tie_arc(step, start, length, k, carry_free, e, t_lo):
    # the threshold's high limb t sits next to an index's high limb: the
    # true one (the tie), or the carry-free one h at either end of the
    # arc [t - B + 1, t] that the kernel must decide exactly
    j = start + k % length
    h = _carry_free_high(step, start, j) if carry_free else fx.orbit_value(step, j) >> 32
    thr_eff = ((h + e) % (1 << 64)) << 32 | t_lo
    assert (fx.orbit_chunk_mask(step, thr_eff, start, length)
            == oracles.orbit_walk_mask(step, thr_eff, start, length))


@given(st.integers(0, fx.INDEX_LIMIT // 2), lengths, st.integers(0, CHUNK_BITS - 1),
       st.one_of(st.integers(0, 1 << 40), st.integers(0, 1 << 47),
                 st.integers(fx.MOD - (1 << 47), fx.MOD - 1)),
       thresholds)
@settings(max_examples=120, deadline=None)
def test_chunk_kernel_at_an_orbit_value_next_to_the_wrap(m, length, k, value, thr_eff):
    # a step chosen so that the odd index j has orbit value `value`, just
    # past 0 or just below 2**96: past 0, the carry wraps the high limb
    j = 2 * m + 1
    start = j - min(k % length, j)
    step = value * pow(j, -1, fx.MOD) % fx.MOD
    assert fx.orbit_value(step, j) == value
    assert (fx.orbit_chunk_mask(step, thr_eff, start, length)
            == oracles.orbit_walk_mask(step, thr_eff, start, length))


def test_chunk_kernel_empty_range():
    assert fx.orbit_chunk_mask(fx.frac_step(2), fx.MOD // 2, 123, 0) == 0


# -- continued chunks -----------------------------------------------------------


def _continued(step, thr_eff, ci):
    """Chunk ci continued from the direct kernel's chunk ci - 1, and the
    direct kernel's chunk ci itself."""
    shift = fx.orbit_shift(step, thr_eff, CHUNK_BITS)
    prev = fx.orbit_chunk_mask(step, thr_eff, (ci - 1) * CHUNK_BITS, CHUNK_BITS)
    return (fx.orbit_chunk_continue(step, shift, ci * CHUNK_BITS, CHUNK_BITS, prev),
            fx.orbit_chunk_mask(step, thr_eff, ci * CHUNK_BITS, CHUNK_BITS))


@given(st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 14, 15]), st.integers(1, 999),
       st.integers(1, 1 << 24))
@settings(max_examples=60, deadline=None)
def test_continued_chunk_matches_direct_kernel(r, k, ci):
    s = KWSet(r, Fraction(k, 1000))
    got, want = _continued(s._step, s._thr_eff, ci)
    assert got == want


def test_shift_is_the_largest_convergent_in_a_chunk():
    # frac(sqrt 2) = [0; 2, 2, 2, ...]: denominators 1, 2, 5, 12, ..., 33461, 80782
    q, w, (a0, a1) = fx.orbit_shift(fx.frac_step(2), fx.MOD // 2, CHUNK_BITS)
    assert q == 33461
    assert w == min(fx.orbit_value(fx.frac_step(2), q), fx.MOD - fx.orbit_value(fx.frac_step(2), q))
    assert w < fx.MOD // 80782 and a1 == (a0 + fx.MOD // 2) % fx.MOD


@pytest.mark.parametrize("r", [2, 3, 5, 7])
def test_continued_chunk_at_thresholds_within_w_of_0_or_1(monkeypatch, r):
    # the two flip arcs meet or overlap, and an index on both flips twice
    step = fx.frac_step(r)
    _, w, _ = fx.orbit_shift(step, fx.MOD // 2, CHUNK_BITS)
    for thr_eff in (w - 1, w, w + 1, fx.MOD - w - 1, fx.MOD - w, fx.MOD - w + 1):
        shift = fx.orbit_shift(step, thr_eff, CHUNK_BITS)
        for ci in (1, 2):
            prev = fx.orbit_chunk_mask(step, thr_eff, (ci - 1) * CHUNK_BITS, CHUNK_BITS)
            assert (fx.orbit_chunk_continue(step, shift, ci * CHUNK_BITS, CHUNK_BITS, prev)
                    == oracles.orbit_walk_mask(step, thr_eff, ci * CHUNK_BITS, CHUNK_BITS))
    # such a rotation set continues its chunks too
    continued = []
    real = fx.orbit_chunk_continue
    monkeypatch.setattr(fx, "orbit_chunk_continue",
                        lambda *a: continued.append(a[2]) or real(*a))
    s = KWSet(2, Fraction(1, 10**6))
    for ci in (0, 1):
        assert s.chunk_mask(ci) == oracles.orbit_walk_mask(s._step, s._thr_eff,
                                                           ci * CHUNK_BITS, CHUNK_BITS)
    assert continued == [CHUNK_BITS]


def _d(step):
    q, _, _ = fx.orbit_shift(step, fx.MOD // 3, CHUNK_BITS)
    return q, fx.orbit_value(step, q)


def _on_zero_arc_end(sign, at_d, delta):
    """(step, index n past chunk 0) with v(n) = delta, or d + delta when
    at_d, where d = v(q) is below 2**95 for sign +1 and above it for -1.
    The zero arc is [0, d) for positive d and [d, 2**96) for negative d,
    so these are its two ends, nudged by delta."""
    for j in range(1, 1000, 2):
        if delta:  # v(m) = delta for an odd m, so the step is delta / m
            m = CHUNK_BITS + j
            step = delta * pow(m, -1, fx.MOD) % fx.MOD
        else:  # v(2**17) = 0 for a rotation by j / 2**17
            m, step = 1 << 17, j << 79
        q, d = _d(step)
        if (d < fx.MOD // 2) == (sign > 0):
            n = m + q if at_d else m
            assert fx.orbit_value(step, n) == (d * at_d + delta) % fx.MOD
            return step, n
    raise AssertionError("no step found")


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("at_d", [False, True], ids=["at-0", "at-d"])
@pytest.mark.parametrize("sign", [1, -1], ids=["d-positive", "d-negative"])
def test_continued_chunk_at_the_ends_of_the_zero_arc(sign, at_d, delta):
    step, n = _on_zero_arc_end(sign, at_d, delta)
    got, want = _continued(step, fx.MOD // 3, n // CHUNK_BITS)
    assert got == want


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("at_end", [False, True], ids=["at-start", "at-end"])
@pytest.mark.parametrize("r, n", [
    (2, 5 * CHUNK_BITS + 12_345), (3, 5 * CHUNK_BITS + 12_345), (5, 5 * CHUNK_BITS + 12_345),
    (7, 5 * CHUNK_BITS + 12_345),
    # a block's first index has no carry, so at the arc's last value its
    # carry-free high limb can reach hi(a) + hi(w) + 1
    (2, 30 * CHUNK_BITS + fx._BLOCK),
], ids=["2", "3", "5", "7", "2-block-start"])
def test_continued_chunk_at_the_ends_of_the_threshold_arc(r, n, at_end, delta):
    # the threshold arc [t + s, t + s + w) is placed by t: put index n's
    # orbit value at either end, nudged by delta
    step = fx.frac_step(r)
    q, w, (s, _) = fx.orbit_shift(step, fx.MOD // 3, CHUNK_BITS)
    thr_eff = (fx.orbit_value(step, n) - s - w * at_end - delta) % fx.MOD
    got, want = _continued(step, thr_eff, n // CHUNK_BITS)
    assert got == want


def test_threshold_arc_cases_cover_both_signs_of_d():
    signs = {_d(fx.frac_step(r))[1] < fx.MOD // 2 for r in (2, 3, 5, 7)}
    assert signs == {True, False}


# -- closed-form counts -------------------------------------------------------


@given(radicands, st.one_of(thresholds, st.integers(0, fx.MOD)), st.integers(0, 5000))
@settings(deadline=None)
def test_orbit_count_matches_orbit_walk(r, t, n):
    step = fx.frac_step(r)
    assert fx.orbit_count(step, t, n) == oracles.orbit_walk_mask(step, t, 0, n).bit_count()


@given(radicands, st.integers(0, fx.INDEX_LIMIT - 20000), st.integers(0, 20000),
       st.integers(0, 19999), st.integers(-fx.GUARD, fx.GUARD))
@settings(max_examples=60, deadline=None)
def test_band_count_matches_orbit_walk(r, start, length, k, delta):
    # centre the band near the orbit value of an index in the range so
    # that hits actually occur
    step = fx.frac_step(r)
    thr = fx.orbit_value(step, start + min(k, max(length - 1, 0))) + delta
    thr = min(max(thr, fx.GUARD + 1), fx.MOD - 2 * fx.GUARD - 1)
    want = oracles.orbit_walk_band(step, thr - fx.GUARD, thr + fx.GUARD, start, length)
    got = fx.orbit_band_count(step, thr, start + length) - fx.orbit_band_count(step, thr, start)
    assert got == want


@given(radicands, st.fractions(Fraction(1, 100), Fraction(99, 100)),
       st.integers(0, 300_000), st.integers(0, 20_000))
@settings(max_examples=40, deadline=None)
def test_kw_count_hint_matches_sweep_and_walk(r, p, n, width):
    s = kw_set(r, p)
    hint = s.count_hint
    assert hint(n) == s.sweep_prefix(n)
    step = fx.frac_step(r)
    want = oracles.orbit_walk_mask(step, s._thr_eff, n, width).bit_count()
    below_n, below_end = window_counts([s], (n, n + width))[0]
    assert below_end - below_n == want


@given(radicands, st.fractions(Fraction(1, 100), Fraction(99, 100)),
       st.integers(0, fx.INDEX_LIMIT - 20_000), st.integers(0, 20_000))
@settings(max_examples=40, deadline=None)
def test_kw_count_hint_at_far_offsets_matches_walk(r, p, start, width):
    s = kw_set(r, p)
    step = fx.frac_step(r)
    want = oracles.orbit_walk_mask(step, s._thr_eff, start, width).bit_count()
    below_start, below_end = window_counts([s], (start, start + width))[0]
    assert below_end - below_start == want


def test_kw_band_count_one_call_matches_walk():
    s = kw_set(2, Fraction(3, 10))
    n = 3 * CHUNK_BITS + 17
    want = oracles.orbit_walk_band(s._step, s._thr - fx.GUARD, s._thr + fx.GUARD, 0, n)
    assert s.band_count(n) == want


# -- validity domain -------------------------------------------------------------


def test_kw_counts_allowed_up_to_the_limit():
    s = kw_set(2, Fraction(1, 2))
    assert 0 < s.prefix_count(fx.INDEX_LIMIT) < fx.INDEX_LIMIT
    assert s.band_count(fx.INDEX_LIMIT) <= KWSet.band_bound(fx.INDEX_LIMIT)
    last = fx.INDEX_LIMIT // CHUNK_BITS - 1
    assert s.chunk_mask(last) == oracles.orbit_walk_mask(
        s._step, s._thr_eff, last * CHUNK_BITS, CHUNK_BITS)
    s.member(fx.INDEX_LIMIT - 1)


@pytest.mark.parametrize("call", [
    lambda s: s.prefix_count(fx.INDEX_LIMIT + 1),
    lambda s: s.band_count(fx.INDEX_LIMIT + 1),
    lambda s: s.chunk_mask(fx.INDEX_LIMIT // CHUNK_BITS),
    lambda s: s.member(fx.INDEX_LIMIT),
], ids=["count", "band", "chunk", "member"])
def test_kw_rejects_indices_past_the_limit(call):
    s = kw_set(2, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"2\*\*40"):
        call(s)
