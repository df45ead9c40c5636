"""Exact fixed-point arithmetic for fractional parts of n * sqrt(r).

Floating point drifts by about n ulps when a fractional orbit is walked
to n ~= 1e8, which is fatal for membership thresholds.  Everything here
is integer arithmetic on 96 fractional bits: sqrt(r) is computed as
isqrt(r << 192), and the orbit value (n * step) mod 2**96 is exact.

Three kernels read the orbit without visiting indices one by one in
Python:

* ``orbit_chunk_mask`` evaluates blocks of B = 2**14 indices with
  numpy, on the 64-bit high limb (bits 32-95) of the orbit value alone,
  which wraps mod 2**64 as the value wraps mod 2**96.  Over a block the
  low limbs add a carry below B to the high limb, so an index is
  decided by its carry-free high limb h unless h lies on one of two
  arcs of B values: up to the threshold's high limb (the tie included),
  or just below 2**64 (where the carry wraps).  A block that meets
  neither arc, found by binary search in a sorted per-step table, is
  one add and one compare; each index on an arc is decided by the exact
  ``orbit_value`` comparison, so every bit agrees with ``orbit_value``.
  Only np.uint64 operands enter the arithmetic.
* ``orbit_chunk_continue`` derives a chunk from the one before it
  (three-distance theorem: Sós 1958; Lothaire, *Algebraic Combinatorics
  on Words*, ch. 2).  With d = v(q), v(n) = v(n - q) + d mod 2**96, so
  bit(n) = bit(n - q) XOR flip(n), with flip(n) exactly when v(n) is in
  [0, t) symmetric-difference [d, d + t).  If w = min(d, 2**96 - d) <=
  min(t, 2**96 - t) those are two arcs, [s, s + w) and [t + s, t + s + w)
  with s = 0 for d <= 2**95 and s = d otherwise.  For q the largest
  convergent denominator of step / 2**96 in a chunk, w < 2**96 / q', q'
  the next one, so a chunk has a few flips: found in the sorted table as
  above, and each decided by the exact arc test.
* ``orbit_count`` counts {i < n : orbit value < t} in closed form.  The
  orbit is a rational rotation with modulus 2**96, so the count is a
  difference of two ``floor_sum`` values (the Euclid-style sum of
  floor((a*i + b) / m) of the AtCoder Library), O(log 2**96) integer
  steps for any n.  ``orbit_band_count`` is a difference of such counts.

The only approximation left is that step encodes sqrt(r) to 96 bits, so
the computed fractional part is within n * 2**-96 of the true one; for
n <= INDEX_LIMIT = 2**40 that error is at least 2**16 times smaller than
the 2**-40 guard band used when comparing against a threshold.  Beyond
it the guarantee is gone, so ``check_index_bound`` rejects larger index
bounds with a ValueError instead of returning unguarded counts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

FRAC_BITS = 96
GUARD_BITS = 40

MOD = 1 << FRAC_BITS
MASK = MOD - 1
GUARD = 1 << (FRAC_BITS - GUARD_BITS)

# largest index bound n (indices 0..n-1) whose orbit error n * 2**-96
# stays 2**16 times below the guard band
INDEX_LIMIT = 1 << (FRAC_BITS - GUARD_BITS - 16)

# thresholds this close to 0 or 1 would let the guard band wrap the
# modulus; reject them up front
_THRESHOLD_MARGIN = Fraction(1, 1 << (GUARD_BITS - 1))


def check_index_bound(n: int) -> None:
    """Reject an index bound outside the 96-bit validity domain, in a
    message that gives a long bound by its bit length, not its digits."""
    if n > INDEX_LIMIT:
        shown = n if n.bit_length() <= 64 else f"of {n.bit_length()} bits"
        raise ValueError(
            f"index bound {shown} exceeds 2**40, the validity limit of the 96-bit "
            "rotation arithmetic"
        )


def is_square_free(r: int) -> bool:
    if r < 1:
        return False
    d = 2
    while d * d <= r:
        if r % (d * d) == 0:
            return False
        while r % d == 0:
            r //= d
        d += 1
    return True


def sqrt_fixed(radicand: int) -> int:
    """floor(sqrt(radicand) * 2**96), exact."""
    if radicand < 2:
        raise ValueError("radicand must be an integer >= 2")
    if not is_square_free(radicand):
        raise ValueError(f"radicand {radicand} is not square-free")
    return isqrt(radicand << (2 * FRAC_BITS))


def frac_step(radicand: int) -> int:
    """Fractional part of sqrt(radicand) in fixed point; the additive
    step of the orbit n -> frac(n * sqrt(radicand))."""
    return sqrt_fixed(radicand) & MASK


def threshold_fixed(p: Fraction) -> int:
    """floor(p * 2**96) for a rational threshold p.

    p must stay 2**-39 away from both 0 and 1 so that the comparison
    guard band cannot wrap around the modulus.
    """
    if not (_THRESHOLD_MARGIN < p < 1 - _THRESHOLD_MARGIN):
        raise ValueError(f"threshold {p} too close to 0 or 1 for guarded comparison")
    return (p.numerator << FRAC_BITS) // p.denominator


def iterated_sqrt_fixed(p: Fraction, times: int) -> int:
    """Fixed-point value of p ** (2**-times): apply isqrt `times` times.

    Each square root keeps 96 fractional bits, so the accumulated error
    stays within a few ulps, far below the guard band.
    """
    if not 0 < p < 1:
        raise ValueError("base must be strictly between 0 and 1")
    if times < 1:
        raise ValueError("need at least one square root")
    v = (p.numerator << FRAC_BITS) // p.denominator
    for _ in range(times):
        v = isqrt(v << FRAC_BITS)
    return v


def orbit_value(step: int, n: int) -> int:
    """(n * step) mod 2**96: the fixed-point fractional part at index n."""
    return (n * step) & MASK


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i<n} floor((a*i + b) / m) for n >= 0, m >= 1, in O(log m) steps.

    The Euclid-style reduction of the AtCoder Library's ``floor_sum``
    (``math.hpp``): peel off the integer parts of a/m and b/m, then swap
    the roles of a and m on the remaining lattice-point count.  Python's
    floor division makes the first peel exact for negative a and b too.
    """
    total = 0
    while True:
        if not 0 <= a < m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if not 0 <= b < m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def orbit_count(step: int, t: int, n: int) -> int:
    """#{i < n : (i * step) mod 2**96 < t} for 0 <= t <= 2**96, exact.

    (i*step mod M) >= t exactly when floor((i*step + M - t) / M) exceeds
    floor(i*step / M) by one, so the complement count is a difference of
    two floor sums.
    """
    return n - (floor_sum(n, MOD, step, MOD - t) - floor_sum(n, MOD, step, 0))


_BLOCK = 1 << 14  # B: indices per numpy pass, and the bound on the low limbs' carry
_TOP = 1 << 64


# Building a table costs about as much as one chunk, and a family has a
# few radicands; the bound keeps arbitrary steps from piling up tables.
@lru_cache(maxsize=8)
def _step_table(s_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T[i] = i * s_hi mod 2**64 for i < B, a sorted copy of T, and the
    permutation that sorts it."""
    table = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(s_hi)
    order = np.argsort(table)
    return table, table[order], order


def orbit_chunk_mask(step: int, thr_eff: int, start: int, length: int) -> int:
    """Membership bitmask of {n : orbit value < thr_eff} on [start, start+length).

    A block of indices start+o+i, i < B, starts at orbit value x.  The
    high limb (bits 32-95) of x + i*step is h_i + c_i mod 2**64, where
    h_i = hi(x) + T[i] mod 2**64 with T[i] = i*hi(step), and c_i < B is
    the carry out of the low limbs, since lo(x) + i*lo(step) < B * 2**32.
    With t = hi(thr_eff):

    * h_i < t - B + 1: the high limb is below t, a member;
    * t < h_i <= 2**64 - B: the high limb exceeds t, not a member;
    * h_i in [t - B + 1, t] (the tie arc) or in (2**64 - B, 2**64) (the
      wrap arc): undecided by h_i alone.

    Each arc, shifted by -hi(x), is located in the sorted copy of T by
    binary search, so a block that meets neither is one add and one
    compare.  In a block that meets one, each index on an arc is decided
    by the exact orbit_value comparison.  Every bit agrees with
    orbit_value.
    """
    table, sorted_table, _ = _step_table(step >> 32)
    t_hi = thr_eff >> 32
    sure = np.uint64(max(t_hi - _BLOCK + 1, 0))
    tie_lo = (t_hi - _BLOCK + 1) % _TOP
    wrap_lo = _TOP - _BLOCK + 1
    hit = np.empty(length, dtype=bool)
    h = np.empty(min(length, _BLOCK), dtype=np.uint64)
    for o in range(0, length, _BLOCK):
        n = min(_BLOCK, length - o)
        x_hi = orbit_value(step, start + o) >> 32
        hb = h[:n]
        np.add(table[:n], np.uint64(x_hi), out=hb)
        np.less(hb, sure, out=hit[o : o + n])
        # T entries on the arc [a, a + w) mod 2**64 number p(a + w) - p(a),
        # plus B if the arc wraps, where p is the sorted insertion point
        tie = (tie_lo - x_hi) % _TOP
        wrap = (wrap_lo - x_hi) % _TOP
        ends = (tie, (tie + _BLOCK) % _TOP, wrap, (wrap + _BLOCK - 1) % _TOP)
        p = np.searchsorted(sorted_table, np.array(ends, dtype=np.uint64)).tolist()
        if (p[1] - p[0] + _BLOCK * (tie + _BLOCK >= _TOP)
                or p[3] - p[2] + _BLOCK * (wrap + _BLOCK - 1 >= _TOP)):
            on_arc = (hb - np.uint64(tie_lo) < np.uint64(_BLOCK)) | (hb >= np.uint64(wrap_lo))
            for i in np.flatnonzero(on_arc).tolist():
                hit[o + i] = orbit_value(step, start + o + i) < thr_eff
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def orbit_shift(step: int, thr_eff: int, length: int) -> tuple | None:
    """(q, w, arc starts) for orbit_chunk_continue, q the largest
    convergent denominator of step / 2**96 up to length, or None when
    the two flip arcs would overlap."""
    h, k, q0, q = MOD, step, 0, 1
    while k:  # the continued fraction of step / 2**96
        a, r = divmod(h, k)
        if a * q + q0 > length:
            break
        h, k, q0, q = k, r, q, a * q + q0
    d = orbit_value(step, q)
    w = min(d, MOD - d)
    if w > min(thr_eff, MOD - thr_eff):
        return None
    s = 0 if d == w else d
    return q, w, (s, (thr_eff + s) & MASK)


def orbit_chunk_continue(step: int, shift: tuple, start: int, length: int, prev: int) -> int:
    """orbit_chunk_mask(step, thr_eff, start, length) from prev, the mask of
    the length indices before start, and shift = orbit_shift(step, thr_eff,
    length).  An index on arc [a, a + w) has a carry-free high limb on
    [hi(a) - B + 1, hi(a) + hi(w) + 1]; the flips, XOR-ed onto prev's last
    q bits, are extended with period q by shift-XOR doubling."""
    q, w, arcs = shift
    _, sorted_table, order = _step_table(step >> 32)
    width = (w >> 32) + _BLOCK + 1
    blocks = range(0, length, _BLOCK)
    los = [((a >> 32) - _BLOCK + 1 - (orbit_value(step, start + o) >> 32)) % _TOP
           for o in blocks for a in arcs]
    ends = np.array(los + [(lo + width) % _TOP for lo in los], dtype=np.uint64)
    p = np.searchsorted(sorted_table, ends).tolist()
    flips = 0
    for j, lo in enumerate(los):
        p0, p1 = p[j], p[j + len(los)]
        o, a = blocks[j // 2], arcs[j % 2]
        found = order[p0:p1] if lo + width < _TOP else np.r_[order[p0:], order[:p1]]
        for i in found.tolist():
            if i < length - o and (orbit_value(step, start + o + i) - a) & MASK < w:
                flips ^= 1 << (o + i)
    bits = prev >> (length - q) ^ flips
    while q < length:
        bits ^= bits << q
        q <<= 1
    return bits & ((1 << length) - 1)


def orbit_band_count(step: int, thr: int, start: int, length: int) -> int:
    """Number of indices in [start, start+length) whose orbit value lies
    in the guard band [thr - GUARD, thr + GUARD); exact, by floor sums."""

    def below(t: int) -> int:
        return orbit_count(step, t, start + length) - orbit_count(step, t, start)

    return below(thr + GUARD) - below(thr - GUARD)
