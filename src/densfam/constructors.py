"""Constructors for families of integer sets with prescribed densities.

Four construction routes are provided:

* irrational-rotation threshold sets (``kw_set`` / ``kw_family``), whose
  densities follow from equidistribution of n*sqrt(r) mod 1;
* factorial-block parity transforms of classical independent set
  families (``block_transform``), which make every sign-pattern
  intersection occupy an exactly equal share of each aligned block;
* biased-coin randomized extensions (``random_extension``), which add a
  member with a prescribed density that provably breaks the product
  rule against a chosen existing member;
* near-1 threshold chains (``gap_family``) whose generated field leaves
  a density gap around 1/2.

``greedy_atom_pack`` selects sign patterns whose expected total density
stays below a target, level by level, with a local maximality
certificate.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import fixedpoint as fx
from .density import Rational, as_fraction
from .rng import RNG_ALGORITHM, acceptance_threshold, check_seed, u64_range
from .sets import CHUNK_BITS, SetBase, bits_to_mask


# -- families ----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A finite ordered family of named sets with declared densities.

    The declared density is the construction's claim about the set's
    asymptotic density; verification compares empirical window counts
    against products of declared values.
    """

    names: tuple[str, ...]
    sets: tuple[SetBase, ...]
    densities: tuple[Fraction, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.names) == 0:
            raise ValueError("family must be nonempty")
        if not (len(self.names) == len(self.sets) == len(self.densities)):
            raise ValueError("names, sets and densities must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("family member names must be unique")
        for name, d in zip(self.names, self.densities):
            if not (0 < d < 1):
                raise ValueError(f"member {name!r} has declared density {d} outside (0,1)")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no family member named {name!r}") from None

    def set_of(self, name: str) -> SetBase:
        return self.sets[self.index(name)]

    def density_of(self, name: str) -> Fraction:
        return self.densities[self.index(name)]

    def items(self):
        return list(zip(self.names, self.sets, self.densities))

    def subfamily(self, names: Sequence[str]) -> "Family":
        if len(set(names)) != len(names):
            raise ValueError("subfamily names must be distinct")
        idx = [self.index(n) for n in names]
        return Family(
            tuple(self.names[i] for i in idx),
            tuple(self.sets[i] for i in idx),
            tuple(self.densities[i] for i in idx),
            dict(self.meta),
        )

    def extended(self, name: str, s: SetBase, density: Fraction) -> "Family":
        return Family(
            self.names + (name,),
            self.sets + (s,),
            self.densities + (density,),
            dict(self.meta),
        )


def _default_names(k: int, prefix: str = "A") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(k))


# -- irrational-rotation threshold sets --------------------------------


class KWSet(SetBase):
    """{n : frac(n * sqrt(radicand)) < p} with exact fixed-point orbits.

    The set is defined by its chunks, from the numpy limb kernel: an
    index is a member when its 96-bit orbit value lies below the
    threshold plus a 2**-40 guard band.  Indices inside the band are
    resolved as members and surface in the band diagnostic, never
    silently.  Prefix counts and band counts are closed-form floor sums.
    Every index bound above fx.INDEX_LIMIT is rejected with a
    ValueError; the limit is a multiple of CHUNK_BITS, so the chunk
    bound rejects exactly the indices at or past it.
    """

    def __init__(
        self,
        radicand: int,
        declared: Fraction,
        thr_fixed: Optional[int] = None,
    ) -> None:
        step = fx.frac_step(radicand)
        if thr_fixed is None:
            thr_fixed = fx.threshold_fixed(declared)
        if not fx.GUARD < thr_fixed < fx.MOD - 2 * fx.GUARD:
            raise ValueError("threshold too close to 0 or 1 for guarded comparison")
        super().__init__({"kind": "kw", "radicand": radicand, "threshold": str(declared)})
        self.radicand = radicand
        self.declared = declared
        self._step = step
        self._thr = thr_fixed
        self._thr_eff = thr_fixed + fx.GUARD

    @property
    def count_hint(self) -> Callable[[int], int]:
        return self._count

    def _count(self, n: int) -> int:
        fx.check_index_bound(n)
        return fx.orbit_count(self._step, self._thr_eff, n)

    def _compute_chunk(self, ci: int) -> int:
        fx.check_index_bound((ci + 1) * CHUNK_BITS)
        return fx.orbit_chunk_mask(self._step, self._thr_eff, ci * CHUNK_BITS, CHUNK_BITS)

    def band_count(self, n: int) -> int:
        """Exact number of indices below n whose orbit value falls in the
        guard band around the threshold."""
        fx.check_index_bound(n)
        return fx.orbit_band_count(self._step, self._thr, 0, n)

    @staticmethod
    def band_bound(n: int) -> Fraction:
        """Sanity bound for band_count: 2 * n * 2**-40 + 1."""
        return Fraction(2 * n, 1 << fx.GUARD_BITS) + 1


def kw_set(radicand: int, threshold: Rational) -> KWSet:
    """Threshold set {n : frac(n * sqrt(radicand)) < threshold}."""
    return KWSet(int(radicand), as_fraction(threshold))


def kw_family(
    radicands: Sequence[int],
    thresholds: Sequence[Rational],
    names: Optional[Sequence[str]] = None,
) -> Family:
    """Family of rotation threshold sets over distinct square-free
    radicands; distinctness keeps the generators rationally independent,
    which is what makes the joint orbit equidistribute."""
    if len(radicands) == 0:
        raise ValueError("family must be nonempty")
    if len(radicands) != len(thresholds):
        raise ValueError("need one threshold per radicand")
    if len(set(int(r) for r in radicands)) != len(radicands):
        raise ValueError("radicands must be distinct")
    sets = tuple(kw_set(r, p) for r, p in zip(radicands, thresholds))
    names = tuple(names) if names is not None else _default_names(len(sets))
    return Family(names, sets, tuple(s.declared for s in sets))


# -- coded classical independent sets ----------------------------------


_CODED_MAX_DEPTH = 5


def _coded_starts(depth: int) -> list[int]:
    starts = [0]
    for n in range(depth + 1):
        starts.append(starts[-1] + (1 << (1 << n)))
    return starts


def coded_independent_set(
    sigma: Union[Sequence[int], Callable[[int], int]],
    depth_limit: int = 4,
) -> SetBase:
    """Classical independent set coded by a binary parameter string.

    Index space is a concatenation of blocks; block n enumerates all
    subsets of the length-n binary strings, one index per subset, the
    subset read off the index offset's binary digits.  The set keeps the
    indices whose subset contains the parameter's length-n prefix.  Two
    parameters differing at position i separate inside block i+1, so
    distinct parameters give genuinely distinct sets.

    depth_limit is capped at 5 because block n has 2**(2**n) indices;
    indices beyond the last complete block are excluded.
    """
    if not 0 <= depth_limit <= _CODED_MAX_DEPTH:
        raise ValueError(f"depth_limit must be in [0, {_CODED_MAX_DEPTH}]")
    if callable(sigma):
        bits = tuple(int(bool(sigma(i))) for i in range(depth_limit))
    else:
        seq = [int(b) for b in sigma]
        if any(b not in (0, 1) for b in seq):
            raise ValueError("parameter bits must be 0 or 1")
        bits = tuple((seq[i] if i < len(seq) else 0) for i in range(depth_limit))

    starts = _coded_starts(depth_limit)
    end = starts[depth_limit + 1]
    # lexicographic index of the length-n prefix among length-n strings:
    # the first bit is the most significant digit
    prefix_index = [0]
    for n in range(depth_limit):
        prefix_index.append((prefix_index[-1] << 1) | bits[n])

    def is_member(k: int) -> bool:
        if k < 0 or k >= end:
            return False
        n = bisect.bisect_right(starts, k) - 1
        offset = k - starts[n]
        return bool((offset >> prefix_index[n]) & 1)

    return SetBase(
        {"kind": "coded", "sigma": "".join(str(b) for b in bits), "depth_limit": depth_limit},
        membership=is_member,
    )


# -- factorial-block parity transform ----------------------------------


# start index of block m; block m has 2**m * (m+1)! indices.  A caller's
# threads may grow it at once, so it is only ever replaced by a whole tuple.
_block_starts: tuple[int, ...] = (0,)


def _block_len(m: int) -> int:
    return (1 << m) * factorial(m + 1)


def _starts_through(m: int) -> tuple[int, ...]:
    """Block starts with at least m + 2 entries."""
    global _block_starts
    starts = _block_starts
    if len(starts) < m + 2:
        grown = list(starts)
        while len(grown) < m + 2:
            grown.append(grown[-1] + _block_len(len(grown) - 1))
        starts = _block_starts = tuple(grown)
    return starts


def block_bounds(m: int) -> tuple[int, int]:
    """[start, end) index range of factorial block m."""
    starts = _starts_through(m)
    return starts[m], starts[m + 1]


def block_of(n: int) -> int:
    """The block index m with n inside block m."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    starts = _block_starts
    while starts[-1] <= n:
        starts = _starts_through(len(starts) - 1)
    return bisect.bisect_right(starts, n) - 1


class BlockParitySet(SetBase):
    """Parity transform of a classical set into a density-1/2 set.

    Block m is split into 2**m residue classes by offset mod 2**m; the
    class with residue v joins the set iff v has odd overlap with the
    classical set's first m indices.  Membership of a whole class is
    constant, so block masks tile a 2**m-bit parity period and exact
    counting is closed-form per block.
    """

    def __init__(self, classical: SetBase) -> None:
        super().__init__({"kind": "block", "classical": classical.descriptor})
        self._classical = classical
        self._periods: dict[int, int] = {}

    @property
    def count_hint(self) -> Callable[[int], int]:
        return self._count

    def classical_mask(self, m: int) -> int:
        """Bitmask of the classical set's membership on [0, m); m stays
        below about 30, since block m already has 2**m * (m+1)! indices."""
        return sum(1 << n for n in range(m) if self._classical.member(n))

    def _period(self, m: int) -> int:
        got = self._periods.get(m)
        if got is not None:
            return got
        mask = self.classical_mask(m)
        p = 0  # bit v of the result = parity of popcount(v & mask)
        width = 1
        for i in range(m):
            ones = (1 << width) - 1
            upper = (p ^ ones) if (mask >> i) & 1 else p
            p |= upper << width
            width <<= 1
        self._periods[m] = p
        return p

    def _count(self, n: int) -> int:
        total = 0
        m = 0
        while True:
            start, end = block_bounds(m)
            if start >= n:
                return total
            y = min(n, end) - start
            p = self._period(m)
            cycles, rem = divmod(y, 1 << m)
            total += cycles * p.bit_count()
            if rem:
                total += (p & ((1 << rem) - 1)).bit_count()
            m += 1

    def _compute_chunk(self, ci: int) -> int:
        a = ci * CHUNK_BITS
        b = a + CHUNK_BITS
        out = 0
        pos = a
        while pos < b:
            m = block_of(pos)
            start, end = block_bounds(m)
            length = min(b, end) - pos
            period = 1 << m
            p = self._period(m)
            phase = (pos - start) & (period - 1)
            if phase:
                p = ((p >> phase) | (p << (period - phase))) & ((1 << period) - 1)
            width = period
            while width < length:
                p |= p << width
                width <<= 1
            out |= (p & ((1 << length) - 1)) << (pos - a)
            pos += length
        return out


def f2_rank(vectors: Sequence[int]) -> int:
    """Rank over GF(2) of bitmask-encoded 0/1 vectors."""
    basis: dict[int, int] = {}
    rank = 0
    for v in vectors:
        v = int(v)
        while v:
            top = v.bit_length() - 1
            if top in basis:
                v ^= basis[top]
            else:
                basis[top] = v
                rank += 1
                break
    return rank


MAX_ALIGNMENT_BLOCK = 16


def alignment_block(
    classical: Sequence[SetBase], max_block: int = MAX_ALIGNMENT_BLOCK
) -> Optional[int]:
    """First block index m at which the classical sets' initial-segment
    indicator vectors reach full rank over GF(2), or None if that never
    happens up to max_block.

    From that block on, every sign-pattern intersection of the parity
    transforms occupies exactly a 2**-k share of each block.
    """
    k = len(classical)
    probes = [BlockParitySet(c) for c in classical]
    for m in range(max_block + 1):
        if f2_rank([p.classical_mask(m) for p in probes]) == k:
            return m
    return None


def block_transform(
    classical: Sequence[SetBase],
    names: Optional[Sequence[str]] = None,
) -> Family:
    """Parity-transform a finite list of classical sets into a family of
    density-1/2 sets; exact equal block shares kick in at the alignment
    block recorded in the family's meta, searched up to block
    MAX_ALIGNMENT_BLOCK."""
    if len(classical) == 0:
        raise ValueError("family must be nonempty")
    sets = tuple(BlockParitySet(c) for c in classical)
    names = tuple(names) if names is not None else _default_names(len(sets), "B")
    m0 = alignment_block(classical)
    meta = {"alignment_block": m0}
    if m0 is None:
        meta["alignment_note"] = (
            f"indicator rank never reached {len(classical)} up to block {MAX_ALIGNMENT_BLOCK}; "
            "equal block shares are not guaranteed"
        )
    return Family(names, sets, tuple(Fraction(1, 2) for _ in sets), meta)


# -- biased-coin randomized extension ----------------------------------


@dataclass(frozen=True)
class ExtensionParams:
    """Exact rational parameters of a biased-coin extension.

    The coin accepts index n with probability t1 when n lies in the
    distinguished member A (density a) and t0 otherwise, so the new
    set's density is t1*a + t0*(1-a) = s exactly, while the density of
    the intersection with A is x1 = s*a + eps, off the product s*a by
    eps -- a built-in witness against independence.
    """

    base_density: Fraction
    target: Fraction
    eps: Fraction
    x0: Fraction
    x1: Fraction
    t0: Fraction
    t1: Fraction

    @classmethod
    def from_target(cls, base_density: Rational, target: Rational) -> "ExtensionParams":
        a = as_fraction(base_density)
        s = as_fraction(target)
        if not 0 < a < 1:
            raise ValueError("base density must be strictly between 0 and 1")
        if not 0 < s < 1:
            raise ValueError("target density must be strictly between 0 and 1")
        eps = min(a * (1 - s), s * (1 - a)) / 2
        x1 = s * a + eps
        x0 = s * (1 - a) - eps
        t1 = x1 / a
        t0 = x0 / (1 - a)
        return cls(a, s, eps, x0, x1, t0, t1)

    def as_dict(self) -> dict:
        return {
            "base_density": str(self.base_density),
            "target": str(self.target),
            "eps": str(self.eps),
            "x0": str(self.x0),
            "x1": str(self.x1),
            "t0": str(self.t0),
            "t1": str(self.t1),
        }


def random_extension(
    family: Family,
    distinguished: str,
    target: Rational,
    seed: int,
) -> tuple[SetBase, ExtensionParams]:
    """Randomized new member with density `target` that provably fails
    the product rule against the distinguished member.

    Index n joins by a deterministic counter-based coin: draw the uint64
    at (seed, n) and accept below a threshold chosen by whether n lies in
    the distinguished member.  A chunk draws its 65536 coins at once and
    selects between the two thresholds' masks with the distinguished
    member's chunk.  Identical seeds give identical sets for any
    evaluation order or partition.  The seed must lie in [0, 2**128).
    """
    check_seed(seed)
    a_set = family.set_of(distinguished)
    params = ExtensionParams.from_target(family.density_of(distinguished), target)
    thr1 = acceptance_threshold(params.t1)
    thr0 = acceptance_threshold(params.t0)

    def chunk(ci: int) -> int:
        lo = ci * CHUNK_BITS
        us = u64_range(seed, lo, lo + CHUNK_BITS)
        # both thresholds are below 2**64, so the uint64 scalars are exact
        m1 = bits_to_mask(us < np.uint64(thr1))
        m0 = bits_to_mask(us < np.uint64(thr0))
        a = a_set.chunk_mask(ci)
        return (m1 & a) | (m0 & ~a)

    out = SetBase(
        {
            "kind": "random-ext",
            "algorithm": RNG_ALGORITHM,
            "seed": seed,
            "distinguished": distinguished,
            "family": list(family.names),
            "target": str(params.target),
            "params": params.as_dict(),
        },
        chunk_fn=chunk,
    )
    return out, params


# -- near-1 threshold chains (density gap families) ---------------------


def square_free_radicands(k: int) -> tuple[int, ...]:
    """The first k square-free integers >= 2."""
    out = []
    r = 2
    while len(out) < k:
        if fx.is_square_free(r):
            out.append(r)
        r += 1
    return tuple(out)


def gap_family(
    target: Rational,
    size: int,
    names: Optional[Sequence[str]] = None,
) -> Family:
    """Family whose generated field's densities avoid an interval
    around 1/2.

    Member n gets threshold target**(2**-(n+1)), so the running product
    of thresholds stays at least `target`; any field element either
    contains the all-members intersection (density >= product) or
    misses it (density <= 1 - product), leaving the open gap
    (1 - product, product) empty.  Requires target in (1/2, 1).
    """
    p = as_fraction(target)
    if not Fraction(1, 2) < p < 1:
        raise ValueError("gap target must lie strictly between 1/2 and 1")
    if size < 1:
        raise ValueError("family must be nonempty")
    radicands = square_free_radicands(size)
    sets = []
    declared = []
    for n in range(size):
        thr = fx.iterated_sqrt_fixed(p, n + 1)
        d = Fraction(thr, fx.MOD)
        sets.append(KWSet(radicands[n], d, thr_fixed=thr))
        declared.append(d)
    prod = Fraction(1)
    for d in declared:
        prod *= d
    names = tuple(names) if names is not None else _default_names(size, "G")
    meta = {"gap_target": p, "threshold_product": prod}
    return Family(names, tuple(sets), tuple(declared), meta)


# -- greedy pattern packing below a density budget ----------------------


def atom_density(densities: Sequence[Fraction], bits: Sequence[int]) -> Fraction:
    """Expected density of the sign-pattern intersection: the product of
    each member's declared density (bit 1) or its complement (bit 0)."""
    out = Fraction(1)
    for d, b in zip(densities, bits):
        out *= d if b else 1 - d
    return out


@dataclass(frozen=True)
class PackResult:
    """Chosen sign patterns with total expected density below target.

    ``excluded`` lists every eligible final-level pattern left out,
    with its atom density; local maximality means the total plus any
    excluded atom's density would reach the target.
    """

    side: int
    target: Fraction
    densities: tuple[Fraction, ...]
    patterns: tuple[tuple[int, ...], ...]
    total: Fraction
    excluded: tuple[tuple[tuple[int, ...], Fraction], ...]

    def certificate_ok(self) -> bool:
        return all(self.total + d >= self.target for _, d in self.excluded)


def greedy_atom_pack(
    family: Union[Family, Sequence[Rational]],
    side: int,
    target: Rational,
) -> PackResult:
    """Level-by-level greedy pattern packing.

    At level L the candidate patterns are the sign patterns over the
    first L members whose first bit equals `side`.  Refinements of
    previously chosen patterns are kept (they add no density); remaining
    candidates are added cheapest-first, ties in lexicographic pattern
    order, while the running total stays strictly below the target.
    """
    if isinstance(family, Family):
        densities = family.densities
    else:
        densities = tuple(as_fraction(d) for d in family)
        if any(not 0 < d < 1 for d in densities):
            raise ValueError("member densities must lie strictly in (0,1)")
    if len(densities) == 0:
        raise ValueError("family must be nonempty")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    x = as_fraction(target)
    if not 0 < x < 1:
        raise ValueError("target must lie strictly in (0,1)")

    chosen: set[tuple[int, ...]] = set()
    total = Fraction(0)
    for level in range(1, len(densities) + 1):
        level_densities = densities[:level]
        chosen = {pat + (b,) for pat in chosen for b in (0, 1)}
        candidates = [
            (side,) + rest
            for rest in product((0, 1), repeat=level - 1)
            if ((side,) + rest) not in chosen
        ]
        candidates.sort(key=lambda pat: (atom_density(level_densities, pat), pat))
        for pat in candidates:
            d = atom_density(level_densities, pat)
            if total + d < x:
                chosen.add(pat)
                total += d

    eligible = sorted((side,) + rest for rest in product((0, 1), repeat=len(densities) - 1))
    excluded = tuple(
        (pat, atom_density(densities, pat)) for pat in eligible if pat not in chosen
    )
    return PackResult(
        side=side,
        target=x,
        densities=densities,
        patterns=tuple(sorted(chosen)),
        total=total,
        excluded=excluded,
    )
