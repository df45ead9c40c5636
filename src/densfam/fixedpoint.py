"""Exact fixed-point arithmetic for fractional parts of n * sqrt(r).

Floating point drifts by about n ulps when a fractional orbit is walked
to n ~= 1e8, which is fatal for membership thresholds.  Everything here
is integer arithmetic on 96 fractional bits: sqrt(r) is computed as
isqrt(r << 192), and the orbit value (n * step) mod 2**96 is exact.

Three kernels read the orbit without visiting indices one by one in
Python:

* ``orbit_chunk_mask`` evaluates blocks of B = 2**14 indices with
  numpy, on the 64-bit high limb (bits 32-95) of the orbit value alone,
  which wraps mod 2**64 as the value wraps mod 2**96.  Index i of a
  block that starts at orbit value x has the carry-free high limb
  h_i = hi(x) + i*hi(step) mod 2**64, and the low limbs add a carry
  c_i < B to it, since lo(x) + i*lo(step) < B * 2**32.  So h_i decides
  how the value compares with a point p unless the high limb, carry
  included, can equal hi(p): unless h_i lies on [hi(p) - B + 1, hi(p)].
  The kernel compares h_i with the threshold's high limb and so decides
  every index except those near two points: the threshold (the tie) and
  0 (where the carry wraps).  One binary search in a sorted per-step
  table finds those offsets for every block, and each is decided by the
  exact ``orbit_value`` test.  Only np.uint64 operands enter the
  arithmetic.
* ``orbit_chunk_continue`` derives a chunk from the one before it
  (three-distance theorem: Sós 1958; Lothaire, *Algebraic Combinatorics
  on Words*, ch. 2).  With d = v(q) and e = d or d - 2**96, whichever
  has |e| = w = min(d, 2**96 - d), v(n - q) = v(n) - e mod 2**96, so
  bit(n) = bit(n - q) XOR flip(n), flip(n) = [v(n) on [0, t)] XOR
  [v(n) on [e, e + t)].  For every threshold t, [0, t) then [t, t + e),
  and [0, e) then [e, e + t), both run once from 0 to t + e mod 2**96,
  so flip(n) = [v(n) on [s, s + w)] XOR [v(n) on [t + s, t + s + w)],
  s = min(0, e) mod 2**96; an index on both arcs flips twice, which is
  right.  Here q is the largest convergent denominator of step / 2**96
  up to the chunk length and q' the next one, above it, with e' = v(q')
  signed, |e'| < w.  Each arc's visits are stepped to, not searched for
  (the three-gap theorem for return times: N. B. Slater, "Gaps and steps
  for the sequence n theta mod 1", 1967).  From a visit n with offset
  u = v(n) - a on [0, w):

  - no n + m with 0 < m < q' is a visit: with alpha = step / 2**96 and
    ||x|| the distance to the nearest integer, in units of 2**-96,
    ||m alpha|| >= ||q alpha|| = w there (best approximation), and m = q
    moves u by +-w, off the arc;
  - no n + q' + j with 0 < j < q is a visit: ||j alpha|| >= ||p alpha||
    for p the convergent denominator before q, and q' = c q + p with a
    partial quotient c >= 1 gives ||p alpha|| = c w + |e'|, so
    |v(q' + j)| >= w;
  - e and e' have opposite signs, so exactly one of u + e' and u + e' + e
    lies on [0, w): the next visit is n + q' or n + q + q', each an
    integer addition, and the map induced on the arc is a rotation by e'
    mod w.

  Both gaps exceed a chunk, so a chunk holds at most one visit per arc,
  found by one comparison.  When w = 0 the orbit has period q, at most a
  chunk, and nothing flips.  A reader's first visits come from
  ``orbit_visits``: per arc, one Euclid-style solve for the first index
  at or after a given one whose value lies on the arc.
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
from typing import TYPE_CHECKING

# numpy is imported in the chunk kernels, so that importing densfam skips
# it; here it is only named in annotations
if TYPE_CHECKING:
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
    import numpy as np

    table = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(s_hi)
    order = np.argsort(table)
    return table, table[order], order


def _arc_candidates(step: int, start: int, length: int, points: tuple):
    """Yield each offset i < length from start whose carry-free high limb
    lies on [hi(p) - B + 1, hi(p)] mod 2**64 for a point p: every index
    whose high limb, carry included, can equal hi(p)."""
    import numpy as np

    _, sorted_table, order = _step_table(step >> 32)
    blocks = range(0, length, _BLOCK)
    los = [((p >> 32) - _BLOCK + 1 - (orbit_value(step, start + o) >> 32)) % _TOP
           for o in blocks for p in points]
    ends = np.array(los + [(lo + _BLOCK) % _TOP for lo in los], dtype=np.uint64)
    at = np.searchsorted(sorted_table, ends).tolist()
    for j, lo in enumerate(los):
        # T entries on [lo, lo + B) mod 2**64, two runs if it wraps
        p0, p1 = at[j], at[j + len(los)]
        o = blocks[j // len(points)]
        found = order[p0:p1] if lo + _BLOCK < _TOP else np.r_[order[p0:], order[:p1]]
        for i in found.tolist():
            if i < length - o:
                yield o + i


def orbit_chunk_mask(step: int, thr_eff: int, start: int, length: int) -> int:
    """Membership bitmask of {n : orbit value < thr_eff} on [start, start+length).

    With t = hi(thr_eff), index i of a block is a member when its
    carry-free high limb h_i < t - B + 1 and not one when t < h_i <=
    2**64 - B; the rest lie near t or near 0, and ``_arc_candidates``
    finds them for the exact orbit_value comparison.  Every bit agrees
    with orbit_value.
    """
    import numpy as np

    table = _step_table(step >> 32)[0]
    sure = np.uint64(max((thr_eff >> 32) - _BLOCK + 1, 0))
    x_hi = [orbit_value(step, start + o) >> 32 for o in range(0, length, _BLOCK)]
    hit = (np.array(x_hi, dtype=np.uint64)[:, None] + table < sure).ravel()[:length]
    for i in _arc_candidates(step, start, length, (thr_eff, 0)):
        hit[i] = orbit_value(step, start + i) < thr_eff
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def orbit_shift(step: int, thr_eff: int, length: int) -> tuple:
    """(q, w, arc starts, q', e, e') for orbit_chunk_continue: q <= length <
    q' the convergent denominators of step / 2**96 on either side of
    length, e = v(q) and e' = v(q') signed, with |e| = w = min(v(q), 2**96 -
    v(q)) and |e'| < w, and the two flip arcs [s, s + w) and [thr_eff + s,
    thr_eff + s + w), s = min(0, e) mod 2**96, for any thr_eff.  When the
    continued fraction ends at q, w = 0 and q' = e' = 0."""
    h, k, q0, q = MOD, step, 0, 1
    while k:  # the continued fraction of step / 2**96
        a, r = divmod(h, k)
        if a * q + q0 > length:
            break
        h, k, q0, q = k, r, q, a * q + q0
    d = orbit_value(step, q)
    w = min(d, MOD - d)
    s = 0 if d == w else d
    q1 = a * q + q0 if w else 0
    d1 = orbit_value(step, q1)
    return (q, w, (s, (thr_eff + s) & MASK), q1, d if d == w else d - MOD,
            d1 - MOD if d1 > w else d1)


def _first_hit(a: int, m: int, lo: int, hi: int) -> int | None:
    """The smallest x >= 0 with lo <= a*x mod m <= hi, for 0 < a < m and
    0 < lo <= hi < m, or None if there is none.

    With no multiple of a on [lo, hi], x solves it with y = floor(a*x / m)
    exactly when [m*y + lo, m*y + hi] holds a multiple of a, that is when
    (m mod a)*y mod a lies on [a - hi mod a, a - lo mod a]: the same
    problem on (m mod a, a), Euclid's step of ``floor_sum``.  The smallest
    y gives the smallest x.
    """
    x = -(-lo // a)
    if a * x <= hi:
        return x
    if m % a == 0:
        return None
    y = _first_hit(m % a, a, a - hi % a, a - lo % a)
    return None if y is None else -(-(m * y + lo) // a)


def orbit_visits(step: int, shift: tuple, n: int) -> tuple:
    """For each flip arc [a, a + w) of shift = orbit_shift(...), its first
    visit m >= n and the offset v(m) - a, in [0, w): the state that
    orbit_chunk_continue steps from.  Empty when w = 0."""
    _, w, arcs, *_ = shift
    v, visits = orbit_value(step, n), []
    for a in arcs if w else ():
        u = (v - a) & MASK
        # an arc of width w holds an orbit value, since w is a multiple of
        # the orbit's gcd with 2**96, so a visit exists
        x = 0 if u < w else _first_hit(step, MOD, MOD - u, MOD - u + w - 1)
        visits.append((n + x, (u + x * step) & MASK))
    return tuple(visits)


@lru_cache(maxsize=8)
def _low_bits(length: int) -> int:
    """(1 << length) - 1, kept: building it takes a third of a continued
    chunk."""
    return (1 << length) - 1


def orbit_chunk_continue(shift: tuple, start: int, length: int, carried: tuple) -> tuple:
    """(orbit_chunk_mask(step, thr_eff, start, length), the visits carried
    into start + length) from carried = (the mask of the length indices
    before start, orbit_visits(step, shift, start)), for shift =
    orbit_shift(step, thr_eff, length).  Each arc's next visit is a flip
    if it lies in the chunk, and then steps on by q' or q + q'; the flips
    are XOR-ed onto prev's last q bits and extended with period q by
    shift-XOR doubling."""
    q, w, _, q1, e, e1 = shift
    prev, visits = carried
    end = start + length
    flips, stepped = 0, []
    for n, u in visits:
        if n < end:
            flips ^= 1 << (n - start)
            u += e1
            n, u = (n + q1, u) if 0 <= u < w else (n + q + q1, u + e)
        stepped.append((n, u))
    bits = prev >> (length - q) ^ flips
    while q < length:
        bits ^= bits << q
        q <<= 1
    return bits & _low_bits(length), tuple(stepped)


def orbit_band_count(step: int, thr: int, n: int) -> int:
    """Number of indices below n whose orbit value lies in the guard band
    [thr - GUARD, thr + GUARD): the difference of the two orbit_count
    values, whose floor_sum(n, MOD, step, 0) terms cancel."""
    return floor_sum(n, MOD, step, MOD - thr + GUARD) - floor_sum(n, MOD, step, MOD - thr - GUARD)
