"""Counter-based deterministic randomness.

Every draw is a pure function of (seed, index): index n maps to lane
n % 4 of Philox-4x64 counter block n // 4 under key `seed`.  Ranges are
generated in bulk from the same counter stream, so bulk and pointwise
evaluation agree exactly and any partition of a range across processes
reproduces identical values.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.random import Philox

RNG_ALGORITHM = "philox4x64"

_LANES = 4


def check_seed(seed: int, what: str = "seed") -> int:
    if not 0 <= seed < (1 << 128):
        raise ValueError(f"{what} must be an integer in [0, 2**128)")
    return seed


def u64_range(seed: int, start: int, stop: int) -> np.ndarray:
    """uint64 draws for indices [start, stop), identical for any split."""
    check_seed(seed)
    if stop <= start:
        return np.zeros(0, dtype=np.uint64)
    block0 = start // _LANES
    blocks = (stop + _LANES - 1) // _LANES - block0
    raw = Philox(key=seed, counter=block0).random_raw(blocks * _LANES)
    lo = start - block0 * _LANES
    return raw[lo : lo + (stop - start)]


def acceptance_threshold(t: Fraction) -> int:
    """floor(t * 2**64): draw u accepts iff u < threshold, so the accept
    probability is exactly t up to 2**-64."""
    if not 0 <= t <= 1:
        raise ValueError("probability must lie in [0, 1]")
    return (t.numerator << 64) // t.denominator
