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

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, product
from math import factorial
from typing import Callable, Iterator, Optional, Sequence

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
        idx = [self.index(n) for n in names]
        return Family(
            tuple(self.names[i] for i in idx),
            tuple(self.sets[i] for i in idx),
            tuple(self.densities[i] for i in idx),
        )

    def extended(self, name: str, s: SetBase, density: Fraction) -> "Family":
        return Family(self.names + (name,), self.sets + (s,), self.densities + (density,))


def _default_names(k: int, prefix: str = "A") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(k))


# -- irrational-rotation threshold sets --------------------------------


class KWSet(SetBase):
    """{n : frac(n * sqrt(radicand)) < p} with exact fixed-point orbits.

    The set is defined by its chunks: an index is a member when its 96-bit
    orbit value lies below the threshold plus a 2**-40 guard band.
    Indices inside the band are resolved as members and surface in the
    band diagnostic, never silently.  At any threshold, a chunk is
    continued from the mask of the chunk before, carried into it (about
    20 us); each reader's first chunk, chunk 0 included, takes the direct
    kernel (about 70 us).  Both agree with orbit_value bit for bit.  Prefix
    counts and band counts are closed-form floor sums.
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
        self._shift = fx.orbit_shift(step, self._thr_eff, CHUNK_BITS)
        self._carried = {}

    @property
    def count_hint(self) -> Callable[[int], int]:
        return self._count

    def _count(self, n: int) -> int:
        fx.check_index_bound(n)
        return fx.orbit_count(self._step, self._thr_eff, n)

    def _compute_chunk(self, ci: int, prev: Optional[int]) -> tuple[int, Optional[int], int]:
        fx.check_index_bound((ci + 1) * CHUNK_BITS)
        start = ci * CHUNK_BITS
        mask = (fx.orbit_chunk_mask(self._step, self._thr_eff, start, CHUNK_BITS) if prev is None
                else fx.orbit_chunk_continue(self._step, self._shift, start, CHUNK_BITS, prev))
        return mask, prev, mask

    def band_count(self, n: int) -> int:
        """Exact number of indices below n whose orbit value falls in the
        guard band around the threshold."""
        fx.check_index_bound(n)
        return fx.orbit_band_count(self._step, self._thr, n)

    @staticmethod
    def band_bound(n: int) -> Fraction:
        """Sanity bound for band_count: 2 * n * 2**-40 + 1."""
        return Fraction(2 * n, 1 << fx.GUARD_BITS) + 1


def kw_set(radicand: int, threshold: Rational) -> KWSet:
    """Threshold set {n : frac(n * sqrt(radicand)) < threshold}."""
    return KWSet(int(radicand), as_fraction(threshold))


def kw_family(radicands: Sequence[int], thresholds: Sequence[Rational]) -> Family:
    """Family A0, A1, ... of rotation threshold sets over distinct
    square-free radicands; distinctness keeps the generators rationally
    independent, which is what makes the joint orbit equidistribute."""
    if len(radicands) == 0:
        raise ValueError("family must be nonempty")
    if len(radicands) != len(thresholds):
        raise ValueError("need one threshold per radicand")
    if len(set(int(r) for r in radicands)) != len(radicands):
        raise ValueError("radicands must be distinct")
    sets = tuple(kw_set(r, p) for r, p in zip(radicands, thresholds))
    return Family(_default_names(len(sets)), sets, tuple(s.declared for s in sets))


# -- coded classical independent sets ----------------------------------


_CODED_MAX_DEPTH = 5


def coded_independent_set(
    sigma: Sequence[int],
    depth_limit: int = 4,
) -> SetBase:
    """Classical independent set coded by a binary parameter string:
    sigma is its bits, as 0/1 integers or a string of 0/1 digits, and
    bits past its end are 0.

    Index space is a concatenation of blocks; block n enumerates all
    subsets of the length-n binary strings, one index per subset, the
    subset read off the index offset's binary digits.  The set keeps the
    indices whose subset contains the parameter's length-n prefix.  Two
    parameters differing at position i separate inside block i+1, so
    distinct parameters give genuinely distinct sets.

    depth_limit is capped at 5 because block n has 2**(2**n) indices;
    indices beyond the last complete block are excluded.  A chunk reads
    the offset bits of each block it meets in one numpy pass.
    """
    if not 0 <= depth_limit <= _CODED_MAX_DEPTH:
        raise ValueError(f"depth_limit must be in [0, {_CODED_MAX_DEPTH}]")
    seq = [int(b) for b in sigma]
    if any(b not in (0, 1) for b in seq):
        raise ValueError("parameter bits must be 0 or 1")
    bits = tuple((seq[i] if i < len(seq) else 0) for i in range(depth_limit))

    # block n is [starts[n], starts[n + 1]), of 2**(2**n) indices
    starts = list(accumulate((1 << (1 << n) for n in range(depth_limit + 1)), initial=0))
    # lexicographic index of the length-n prefix among length-n strings:
    # the first bit is the most significant digit
    prefix_index = [0]
    for b in bits:
        prefix_index.append((prefix_index[-1] << 1) | b)

    def chunk(ci: int) -> int:
        import numpy as np  # here, so that importing densfam skips it

        lo = ci * CHUNK_BITS
        out = 0
        for start, stop, shift in zip(starts, starts[1:], prefix_index):
            a, b = max(lo, start), min(lo + CHUNK_BITS, stop)
            if a < b:
                # offsets in block n are below 2**(2**n) <= 2**32
                offsets = np.arange(a - start, b - start, dtype=np.uint32)
                offsets >>= shift
                offsets &= 1
                out |= bits_to_mask(offsets) << (a - lo)
        return out

    return SetBase(
        {"kind": "coded", "sigma": "".join(str(b) for b in bits), "depth_limit": depth_limit},
        chunk_fn=chunk,
    )


# -- factorial-block parity transform ----------------------------------


def _blocks(lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """(m, start, end) of each factorial block that meets [lo, hi).

    Block 0 starts at index 0, block m has 2**m * (m+1)! indices, and
    each block starts where the one before it ends.
    """
    m = start = 0
    while start < hi:
        end = start + (1 << m) * factorial(m + 1)
        if end > lo:
            yield m, start, end
        m, start = m + 1, end


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
        small, since only blocks 0-12 start below index 2**40."""
        return bits_to_mask(self._classical.bits_range(0, m))

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
        for m, start, end in _blocks(0, n):
            p = self._period(m)
            cycles, rem = divmod(min(n, end) - start, 1 << m)
            total += cycles * p.bit_count() + (p & ((1 << rem) - 1)).bit_count()
        return total

    def _compute_chunk(self, ci: int) -> int:
        a = ci * CHUNK_BITS
        b = a + CHUNK_BITS
        out = 0
        for m, start, end in _blocks(a, b):
            pos = max(a, start)
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
    for m in range(max_block + 1):
        if f2_rank([bits_to_mask(c.bits_range(0, m)) for c in classical]) == k:
            return m
    return None


def block_transform(classical: Sequence[SetBase]) -> Family:
    """Parity-transform a finite list of classical sets into a family
    B0, B1, ... of density-1/2 sets.  Exact equal block shares kick in at
    alignment_block(classical); when that is None, the rank never became
    full up to block MAX_ALIGNMENT_BLOCK and equal block shares are not
    guaranteed."""
    if len(classical) == 0:
        raise ValueError("family must be nonempty")
    sets = tuple(BlockParitySet(c) for c in classical)
    return Family(_default_names(len(sets), "B"), sets, tuple(Fraction(1, 2) for _ in sets))


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
        import numpy as np  # here, so that importing densfam skips it

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


def gap_family(target: Rational, size: int) -> Family:
    """Family G0, G1, ... whose generated field's densities avoid an
    interval around 1/2.

    Member n gets threshold target**(2**-(n+1)), so the running product
    of thresholds stays at least `target`; any field element either
    contains the all-members intersection (density >= product) or
    misses it (density <= 1 - product), leaving the open gap
    (1 - product, product) empty; the product is math.prod of the
    family's densities.  Requires target in (1/2, 1).
    """
    p = as_fraction(target)
    if not Fraction(1, 2) < p < 1:
        raise ValueError("gap target must lie strictly between 1/2 and 1")
    if size < 1:
        raise ValueError("family must be nonempty")
    # radicands are found member by member, so a size past the guard
    # band fails at its first unguardable threshold, not after the search
    radicands = filter(fx.is_square_free, count(2))
    sets = []
    for n, radicand in zip(range(size), radicands):
        thr = fx.iterated_sqrt_fixed(p, n + 1)
        sets.append(KWSet(radicand, Fraction(thr, fx.MOD), thr_fixed=thr))
    return Family(_default_names(size, "G"), tuple(sets), tuple(s.declared for s in sets))


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


# the final level holds 2**(k-1) patterns, each kept or excluded in the
# result, so time, memory and report double with every member
MAX_PACK_MEMBERS = 18


def greedy_atom_pack(
    member_densities: Sequence[Rational],
    side: int,
    target: Rational,
) -> PackResult:
    """Level-by-level greedy pattern packing over at most
    MAX_PACK_MEMBERS members, given by their declared densities.

    At level L the candidate patterns are the sign patterns over the
    first L members whose first bit equals `side`.  Refinements of
    previously chosen patterns are kept (they add no density); remaining
    candidates are added cheapest-first, ties in lexicographic pattern
    order, while the running total stays strictly below the target.
    """
    densities = tuple(as_fraction(d) for d in member_densities)
    if any(not 0 < d < 1 for d in densities):
        raise ValueError("member densities must lie strictly in (0,1)")
    if len(densities) == 0:
        raise ValueError("family must be nonempty")
    if len(densities) > MAX_PACK_MEMBERS:
        raise ValueError(
            f"at most {MAX_PACK_MEMBERS} members supported here, got {len(densities)}"
        )
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
