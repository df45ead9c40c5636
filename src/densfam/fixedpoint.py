"""Exact fixed-point arithmetic for fractional parts of n * sqrt(r).

Floating point drifts by about n ulps when a fractional orbit is walked
to n ~= 1e8, which is fatal for membership thresholds.  Everything here
is integer arithmetic on 96 fractional bits: sqrt(r) is computed as
isqrt(r << 192), and the orbit value (n * step) mod 2**96 is exact.

Two kernels read the orbit without visiting indices one by one in
Python:

* ``orbit_chunk_mask`` evaluates blocks of indices with numpy.  The
  96-bit orbit value is split into a 32-bit low limb and a 64-bit high
  limb that wraps mod 2**64, which is exactly reduction mod 2**96; with
  block offsets below 2**13 the low-limb products stay below 2**46, so
  the carry between the limbs is exact and every bit agrees with
  ``orbit_value``.  Only np.uint64 operands enter the arithmetic.
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
    """Reject an index bound outside the 96-bit validity domain."""
    if n > INDEX_LIMIT:
        raise ValueError(
            f"index bound {n} exceeds 2**40, the validity limit of the 96-bit "
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


_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_BLOCK = 8192  # indices per numpy pass; a multiple of 8 keeps packed bytes aligned


def orbit_chunk_mask(step: int, thr_eff: int, start: int, length: int) -> int:
    """Membership bitmask of {n : orbit value < thr_eff} on [start, start+length).

    Each block of indices start+o+i, i < _BLOCK, splits the orbit value
    x + i*step (mod 2**96) into a 32-bit low limb and a 64-bit high limb
    that wraps mod 2**64.  i*lo(step) + lo(x) < 2**46 fits in uint64, so
    the carry into the high limb is exact and the result agrees bit for
    bit with orbit_value at every index.
    """
    lo_mask = np.uint64(_LIMB_MASK)
    shift = np.uint64(_LIMB_BITS)
    s_lo = np.uint64(step & _LIMB_MASK)
    s_hi = np.uint64(step >> _LIMB_BITS)
    t_lo = np.uint64(thr_eff & _LIMB_MASK)
    t_hi = np.uint64(thr_eff >> _LIMB_BITS)
    out = np.empty((length + 7) // 8, dtype=np.uint8)
    idx = np.arange(min(length, _BLOCK), dtype=np.uint64)
    for o in range(0, length, _BLOCK):
        i = idx[: min(_BLOCK, length - o)]
        x = ((start + o) * step) & MASK
        low = i * s_lo + np.uint64(x & _LIMB_MASK)
        high = i * s_hi + np.uint64(x >> _LIMB_BITS) + (low >> shift)
        low &= lo_mask
        hit = (high < t_hi) | ((high == t_hi) & (low < t_lo))
        packed = np.packbits(hit, bitorder="little")
        out[o // 8 : o // 8 + len(packed)] = packed
    return int.from_bytes(out.tobytes(), "little")


def orbit_band_count(step: int, thr: int, start: int, length: int) -> int:
    """Number of indices in [start, start+length) whose orbit value lies
    in the guard band [thr - GUARD, thr + GUARD); exact, by floor sums."""

    def below(t: int) -> int:
        return orbit_count(step, t, start + length) - orbit_count(step, t, start)

    return below(thr + GUARD) - below(thr - GUARD)
