"""Lazy subsets of the nonnegative integers with exact prefix counting.

A set is represented by a pure membership oracle plus optional exact
counting shortcuts.  Bulk counting never calls the oracle point by point
if it can help it: membership over an aligned 65536-index chunk is
materialized as a Python integer bitmask and combined with cheap
bitwise operations.  All counts are exact integers; densities derived
from them are exact ``Fraction`` values.

``window_counts`` counts many sets in one chunk-major sweep, so a leaf
shared by many expressions is computed once per chunk, and each set
keeps only the last chunk it computed on each thread: memory is flat
in the window size.  The chunk range may be split into contiguous
parts counted on separate threads and reduced by summation, so results
are identical for any worker count.
"""

from __future__ import annotations

import bisect
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

CHUNK_BITS = 1 << 16
_CHUNK_BYTES = CHUNK_BITS // 8
_FULL_CHUNK = (1 << CHUNK_BITS) - 1


def bits_to_mask(bits: np.ndarray) -> int:
    """Pack a 0/1 or boolean array into an integer bitmask, bit i = bits[i]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def mask_to_bits(mask: int, width: int) -> np.ndarray:
    """Unpack an integer bitmask into a uint8 0/1 array of the given width."""
    nbytes = (width + 7) // 8
    raw = mask.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:width]


class SetBase:
    """Shared counting machinery for all set representations."""

    # read only by perfbench/tracer.py, which counts chunk-cache hits on
    # sets where it is true; no set keeps more than its one-chunk slot
    caches_chunks = False

    def __init__(self) -> None:
        # per thread: (ci, mask) of the last chunk computed there
        self._slot = threading.local()

    # -- membership ---------------------------------------------------

    def member(self, n: int) -> bool:
        raise NotImplementedError

    def __contains__(self, n: int) -> bool:
        return self.member(n)

    @property
    def count_hint(self) -> Optional[Callable[[int], int]]:
        return None

    @property
    def descriptor(self) -> dict:
        return {"kind": "abstract"}

    # -- chunked evaluation -------------------------------------------

    def _compute_chunk(self, ci: int) -> int:
        # fallback: point-by-point oracle calls over the chunk
        base = ci * CHUNK_BITS
        bits = bytearray(_CHUNK_BYTES)
        for i in range(CHUNK_BITS):
            if self.member(base + i):
                bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bytes(bits), "little")

    def chunk_mask(self, ci: int) -> int:
        """Membership bitmask for indices [ci*CHUNK_BITS, (ci+1)*CHUNK_BITS)."""
        got = getattr(self._slot, "chunk", None)
        if got is None or got[0] != ci:
            got = self._slot.chunk = (ci, self._compute_chunk(ci))
        return got[1]

    def bits_range(self, start: int, stop: int) -> np.ndarray:
        """Membership as a uint8 0/1 array over [start, stop)."""
        if stop <= start:
            return np.zeros(0, dtype=np.uint8)
        first = start // CHUNK_BITS
        chunks = range(first, (stop - 1) // CHUNK_BITS + 1)
        bits = np.concatenate([mask_to_bits(self.chunk_mask(ci), CHUNK_BITS) for ci in chunks])
        return bits[start - first * CHUNK_BITS : stop - first * CHUNK_BITS]

    # -- exact counting -----------------------------------------------

    def sweep_prefix(self, n: int, workers: int = 1) -> int:
        """Exact |S ∩ [0, n)| obtained from chunk masks alone (no hints)."""
        unhinted = OmegaSet(self.member, chunk_fn=self.chunk_mask)
        return window_counts([unhinted], (n,), workers)[0][0]

    def prefix_count(self, n: int, workers: int = 1) -> int:
        """Exact number of members below n; uses the count hint when present."""
        return window_counts([self], (n,), workers)[0][0]

    def count_range(self, start: int, stop: int, workers: int = 1) -> int:
        """Exact number of members in [start, stop)."""
        if stop <= start:
            return 0
        below_start, below_stop = window_counts([self], (start, stop), workers)[0]
        return below_stop - below_start


def window_counts(
    sets: Sequence[SetBase], windows: Sequence[int], workers: int = 1
) -> list[tuple[int, ...]]:
    """Exact |S ∩ [0, n)| for each set S and each window n.

    A set with a count hint is counted by it.  The others share one pass
    over the chunks in index order that evaluates every set at a chunk
    before the next; with workers > 1 each thread sweeps one contiguous
    range of chunks and the ranges' counts are summed.
    """
    if any(n < 0 for n in windows):
        raise ValueError("prefix bound must be nonnegative")
    hints = [s.count_hint for s in sets]
    swept = [s for s, h in zip(sets, hints) if h is None]

    def sweep(chunks: range) -> list[list[int]]:
        # members below each window in the chunk range; a window past the
        # range takes all of the range's last chunk
        ends: dict[int, list[tuple[int, int]]] = {}
        for j, n in enumerate(windows):
            ci, low = n // CHUNK_BITS, (1 << n % CHUNK_BITS) - 1
            if ci >= chunks.stop:
                ci, low = chunks.stop - 1, _FULL_CHUNK
            ends.setdefault(ci, []).append((j, low))
        counts = [[0] * len(windows) for _ in swept]
        run = [0] * len(swept)
        for ci in chunks:
            here = ends.get(ci, ())
            for i, s in enumerate(swept):
                m = s.chunk_mask(ci)
                for j, low in here:
                    counts[i][j] = run[i] + (m & low).bit_count()
                run[i] += m.bit_count()
        return counts

    chunks = -(-max(windows, default=0) // CHUNK_BITS) if swept else 0
    k = min(workers, chunks)
    if k <= 1:
        # on the calling thread, so its one-chunk slots outlive the call
        parts = [sweep(range(chunks))]
    else:
        ranges = [range(chunks * i // k, chunks * (i + 1) // k) for i in range(k)]
        with ThreadPoolExecutor(max_workers=k) as pool:
            parts = list(pool.map(sweep, ranges))
    totals = iter([tuple(map(sum, zip(*(p[i] for p in parts)))) for i in range(len(swept))])
    return [next(totals) if h is None else tuple(map(h, windows)) for h in hints]


class OmegaSet(SetBase):
    """A subset of ω given by a pure membership oracle.

    ``count_hint``, when supplied, must return the exact value of
    |S ∩ [0, n)| for every n; it is trusted by ``prefix_count`` and is
    spot-checked against exhaustive counting in the test suite.
    ``chunk_fn`` optionally supplies a whole 65536-index membership
    bitmask at once; it must agree with the oracle bit for bit.
    """

    def __init__(
        self,
        membership: Callable[[int], bool],
        descriptor: Optional[dict] = None,
        count_hint: Optional[Callable[[int], int]] = None,
        chunk_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        super().__init__()
        self._membership = membership
        self._descriptor = descriptor or {"kind": "oracle"}
        self._count_hint = count_hint
        self._chunk_fn = chunk_fn

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        return bool(self._membership(n))

    @property
    def count_hint(self) -> Optional[Callable[[int], int]]:
        return self._count_hint

    @property
    def descriptor(self) -> dict:
        return self._descriptor

    def _compute_chunk(self, ci: int) -> int:
        if self._chunk_fn is not None:
            return self._chunk_fn(ci)
        return super()._compute_chunk(ci)


class SetExpr(SetBase):
    """Finite boolean combination of sets: intersection, union, or
    symmetric difference of already-built nodes."""

    def __init__(self, op: str, args: tuple[SetBase, ...]) -> None:
        if op not in ("intersect", "union", "sym_diff"):
            raise ValueError(f"unknown set operation {op!r}")
        if op == "sym_diff" and len(args) != 2:
            raise ValueError("sym_diff takes exactly two operands")
        if not args:
            raise ValueError("set operation needs at least one operand")
        super().__init__()
        self.op = op
        self.args = tuple(args)

    def member(self, n: int) -> bool:
        if self.op == "intersect":
            return all(a.member(n) for a in self.args)
        if self.op == "union":
            return any(a.member(n) for a in self.args)
        return self.args[0].member(n) != self.args[1].member(n)

    @property
    def descriptor(self) -> dict:
        return {"kind": self.op, "args": [a.descriptor for a in self.args]}

    def _compute_chunk(self, ci: int) -> int:
        masks = [a.chunk_mask(ci) for a in self.args]
        out = masks[0]
        for m in masks[1:]:
            if self.op == "intersect":
                out &= m
            elif self.op == "union":
                out |= m
            else:
                out ^= m
        return out


# -- constructors -----------------------------------------------------


def omega() -> OmegaSet:
    """The full set of nonnegative integers."""
    return OmegaSet(
        lambda n: True,
        descriptor={"kind": "omega"},
        count_hint=lambda n: n,
        chunk_fn=lambda ci: _FULL_CHUNK,
    )


def empty_set() -> OmegaSet:
    return OmegaSet(
        lambda n: False,
        descriptor={"kind": "empty"},
        count_hint=lambda n: 0,
        chunk_fn=lambda ci: 0,
    )


def from_elements(elements: Iterable[int]) -> OmegaSet:
    """Finite explicit set; useful as a leaf in tests and expressions."""
    elems = sorted(set(int(e) for e in elements))
    if elems and elems[0] < 0:
        raise ValueError("elements must be nonnegative")
    frozen = frozenset(elems)
    # int64 while every index a chunk search can meet fits in it
    top = elems[-1] if elems else -1
    arr = np.array(elems, dtype=np.int64 if top < (1 << 63) - CHUNK_BITS else object)

    def hint(n: int) -> int:
        return bisect.bisect_left(elems, n)

    def chunk(ci: int) -> int:
        lo = ci * CHUNK_BITS
        if lo > top:
            return 0
        i, j = np.searchsorted(arr, (lo, lo + CHUNK_BITS))
        bits = np.zeros(CHUNK_BITS, dtype=np.uint8)
        bits[(arr[i:j] - lo).astype(np.intp)] = 1
        return bits_to_mask(bits)

    return OmegaSet(
        lambda n: n in frozen,
        descriptor={"kind": "explicit", "size": len(elems)},
        count_hint=hint,
        chunk_fn=chunk,
    )


def from_membership(fn: Callable[[int], bool], descriptor: Optional[dict] = None) -> OmegaSet:
    return OmegaSet(fn, descriptor=descriptor or {"kind": "oracle"})


# -- operations -------------------------------------------------------


def complement(s: SetBase) -> OmegaSet:
    """Pointwise complement within ω."""
    hint = None
    inner = s.count_hint
    if inner is not None:
        hint = lambda n: n - inner(n)  # noqa: E731

    return OmegaSet(
        lambda n: not s.member(n),
        descriptor={"kind": "complement", "of": s.descriptor},
        count_hint=hint,
        chunk_fn=lambda ci: s.chunk_mask(ci) ^ _FULL_CHUNK,
    )


def scale(s: SetBase, factor: int) -> OmegaSet:
    """The set {factor * a : a in S}.

    Exact count identity: |scale(S,m) ∩ [0,n)| = |S ∩ [0, ceil(n/m))|.
    """
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    m = int(factor)

    def hint(n: int) -> int:
        return s.prefix_count(-(-n // m))

    def chunk(ci: int) -> int:
        a = ci * CHUNK_BITS
        b = a + CHUNK_BITS
        j0 = -(-a // m)
        j1 = -(-b // m)
        if j1 <= j0:
            return 0
        src = s.bits_range(j0, j1)
        out = np.zeros(CHUNK_BITS, dtype=np.uint8)
        js = np.arange(j0, j1, dtype=np.int64)
        keep = src != 0
        out[(js[keep] * m - a)] = 1
        return bits_to_mask(out)

    return OmegaSet(
        lambda n: n % m == 0 and s.member(n // m),
        descriptor={"kind": "scale", "factor": m, "of": s.descriptor},
        count_hint=hint,
        chunk_fn=chunk,
    )


def thin(s: SetBase) -> OmegaSet:
    """Every other element of S: keep members of even rank.

    If x_0 < x_1 < ... enumerates S, the result is {x_0, x_2, x_4, ...}.
    Exact count identity: |thin(S) ∩ [0,n)| = ceil(|S ∩ [0,n)| / 2).
    Each thread keeps a running rank of S, the next chunk index and S's
    count below it, so a forward sweep gets each chunk's starting rank
    for free; any other chunk takes it from S's prefix count.
    """
    ranks = threading.local()

    def is_member(n: int) -> bool:
        return s.member(n) and s.prefix_count(n) % 2 == 0

    def hint(n: int) -> int:
        c = s.prefix_count(n)
        return (c + 1) // 2

    def chunk(ci: int) -> int:
        at, below = getattr(ranks, "at", (0, 0))
        if at != ci:
            below = s.prefix_count(ci * CHUNK_BITS)
        base = s.chunk_mask(ci)
        positions = np.flatnonzero(mask_to_bits(base, CHUNK_BITS))
        out = np.zeros(CHUNK_BITS, dtype=np.uint8)
        out[positions[(below & 1)::2]] = 1
        ranks.at = (ci + 1, below + base.bit_count())
        return bits_to_mask(out)

    return OmegaSet(
        is_member,
        descriptor={"kind": "thin", "of": s.descriptor},
        count_hint=hint,
        chunk_fn=chunk,
    )


def intersect(*sets: SetBase) -> SetExpr:
    return SetExpr("intersect", tuple(sets))


def union(*sets: SetBase) -> SetExpr:
    return SetExpr("union", tuple(sets))


def sym_diff(x: SetBase, y: SetBase) -> SetExpr:
    return SetExpr("sym_diff", (x, y))


# -- module-level counting helpers -----------------------------------


def prefix_density(s: SetBase, n: int, workers: int = 1) -> Fraction:
    """Exact |S ∩ [0,n)| / n as a Fraction."""
    if n <= 0:
        raise ValueError("density needs a positive prefix length")
    return Fraction(s.prefix_count(n, workers), n)
