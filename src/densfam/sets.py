"""Lazy subsets of the nonnegative integers with exact prefix counting.

Every set is one type, ``SetBase``: a descriptor, a chunk kernel or a
membership oracle, and an optional exact count hint, all fixed when the
set is built.  A chunk is membership over an aligned 65536-index range,
as a Python integer bitmask, combined with other sets' chunks by cheap
bitwise operations.  Only the two pointwise kinds, ``from_membership``
and coded classical sets, are given by an oracle, and their chunks are
filled one oracle call per index; ``member`` reads one bit of a chunk
on every other kind.  Rotation, block-parity and boolean-combination
sets subclass ``SetBase`` to supply their own kernel.  All counts are
exact integers; densities derived from them are exact ``Fraction``
values.

``window_counts`` counts many sets in one chunk-major sweep, so a leaf
shared by many expressions is computed once per chunk, and each set
keeps only the last chunk it computed: memory is flat in the window
size.  It is the one way into parallel counting: its ``workers``
argument splits the chunk range into contiguous parts counted in forked
worker processes and summed, so results are identical for any worker
count.  The one-set helpers sweep in the calling process.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

CHUNK_BITS = 1 << 16
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
    """A subset of ω: a descriptor plus a chunk function or a membership
    oracle, and an optional exact count hint, all fixed when it is built.

    ``chunk_fn(ci)`` supplies the whole 65536-index membership bitmask of
    chunk ci.  A set defined point by point gives ``membership`` instead:
    then ``member`` calls it, and each chunk is filled one oracle call
    per index.  ``count_hint``, when supplied, must return the exact
    value of |S ∩ [0, n)| for every n; it is trusted by ``prefix_count``
    and is spot-checked against exhaustive counting in the test suite.
    A kind with its own kernel subclasses this and overrides
    ``_compute_chunk`` (and ``count_hint`` when it counts in closed form).
    """

    # read only by perfbench/tracer.py, which counts chunk-cache hits on
    # sets where it is true; no set keeps more than its one-chunk slot
    caches_chunks = False

    def __init__(
        self,
        descriptor: dict,
        *,
        chunk_fn: Optional[Callable[[int], int]] = None,
        membership: Optional[Callable[[int], bool]] = None,
        count_hint: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.descriptor = descriptor
        self._chunk_fn = chunk_fn
        self._membership = membership
        self._count_hint = count_hint
        # (ci, mask) of the last chunk computed.  Like thin's (next ci, count
        # below), it is a pure function of its chunk index and is replaced in
        # one step, so a set that a caller shares across threads stays exact.
        self._chunk: tuple[int, int] = (-1, 0)

    # -- membership ---------------------------------------------------

    def member(self, n: int) -> bool:
        """Whether n is in the set: the oracle's answer, or else bit
        n % CHUNK_BITS of chunk n // CHUNK_BITS.

        No count calls this, and no command queries a kernel-backed set
        point by point.  A query computes its whole chunk unless it is
        the last one the set computed, so an isolated query costs
        a chunk (about 0.3 ms for a rotation set), and every query
        shifts an 8 KiB integer.
        """
        if n < 0:
            return False
        if self._membership is not None:
            return bool(self._membership(n))
        return bool(self.chunk_mask(n // CHUNK_BITS) >> (n % CHUNK_BITS) & 1)

    def __contains__(self, n: int) -> bool:
        return self.member(n)

    @property
    def count_hint(self) -> Optional[Callable[[int], int]]:
        return self._count_hint

    # -- chunked evaluation -------------------------------------------

    def _compute_chunk(self, ci: int) -> int:
        if self._membership is None:
            return self._chunk_fn(ci)
        base = ci * CHUNK_BITS
        members = map(self._membership, range(base, base + CHUNK_BITS))
        return bits_to_mask(np.fromiter(members, bool, CHUNK_BITS))

    def chunk_mask(self, ci: int) -> int:
        """Membership bitmask for indices [ci*CHUNK_BITS, (ci+1)*CHUNK_BITS)."""
        got = self._chunk
        if got[0] != ci:
            got = self._chunk = (ci, self._compute_chunk(ci))
        return got[1]

    def bits_range(self, start: int, stop: int) -> np.ndarray:
        """Membership as a uint8 0/1 array over [start, stop), start >= 0."""
        if start < 0:
            raise ValueError("bits_range start must be nonnegative")
        if stop <= start:
            return np.zeros(0, dtype=np.uint8)
        first = start // CHUNK_BITS
        chunks = range(first, (stop - 1) // CHUNK_BITS + 1)
        bits = np.concatenate([mask_to_bits(self.chunk_mask(ci), CHUNK_BITS) for ci in chunks])
        return bits[start - first * CHUNK_BITS : stop - first * CHUNK_BITS]

    # -- exact counting -----------------------------------------------

    def sweep_prefix(self, n: int, workers: int = 1) -> int:
        """Exact |S ∩ [0, n)| obtained from chunk masks alone (no hints),
        swept by window_counts with the given worker count."""
        unhinted = SetBase(self.descriptor, chunk_fn=self.chunk_mask)
        return window_counts([unhinted], (n,), workers)[0][0]

    def prefix_count(self, n: int) -> int:
        """Exact number of members below n: the count hint when present,
        else a sweep in the calling process."""
        return window_counts([self], (n,))[0][0]

    def count_range(self, start: int, stop: int) -> int:
        """Exact number of members in [start, stop), counted as prefix_count."""
        if stop <= start:
            return 0
        below_start, below_stop = window_counts([self], (start, stop))[0]
        return below_stop - below_start


def window_counts(
    sets: Sequence[SetBase], windows: Sequence[int], workers: int = 1
) -> list[tuple[int, ...]]:
    """Exact |S ∩ [0, n)| for each set S and each window n.

    A set with a count hint is counted by it.  The others share one pass
    over the chunks in index order that evaluates every set at a chunk
    before the next; with workers > 1 each of up to that many forked
    processes sweeps one contiguous range of chunks on its own copy of
    the sets, and the ranges' counts are summed.  Without fork the sweep
    runs in the calling process.
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
    if k > 1:
        import multiprocessing  # here, so that importing densfam skips it

        if "fork" not in multiprocessing.get_all_start_methods():
            k = 1
    if k <= 1:
        # in the calling process, so its one-chunk slots outlive the call
        parts = [sweep(range(chunks))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        ranges = [range(chunks * i // k, chunks * (i + 1) // k) for i in range(k)]
        # fork hands each worker the sweep closure unpickled.  Leaving the
        # block joins every worker, and a worker that dies raises
        # BrokenProcessPool here instead of hanging the call.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(k, fork, _adopt_sweep, (sweep,)) as pool:
            parts = list(pool.map(_run_sweep, ranges))
    totals = iter([tuple(map(sum, zip(*(p[i] for p in parts)))) for i in range(len(swept))])
    return [next(totals) if h is None else tuple(map(h, windows)) for h in hints]


# set in each pool worker by its initializer: the sweep of the
# window_counts call that forked it
_worker_sweep = None


def _adopt_sweep(sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _run_sweep(chunks: range) -> list[list[int]]:
    return _worker_sweep(chunks)


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
        super().__init__({"kind": op, "args": [a.descriptor for a in args]})
        self.op = op
        self.args = tuple(args)

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


def omega() -> SetBase:
    """The full set of nonnegative integers."""
    return SetBase({"kind": "omega"}, chunk_fn=lambda ci: _FULL_CHUNK, count_hint=lambda n: n)


def empty_set() -> SetBase:
    return SetBase({"kind": "empty"}, chunk_fn=lambda ci: 0, count_hint=lambda n: 0)


def from_elements(elements: Iterable[int]) -> SetBase:
    """Finite explicit set; useful as a leaf in tests and expressions."""
    elems = sorted(set(int(e) for e in elements))
    if elems and elems[0] < 0:
        raise ValueError("elements must be nonnegative")
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

    return SetBase(
        {"kind": "explicit", "size": len(elems)},
        count_hint=hint,
        chunk_fn=chunk,
    )


def from_membership(fn: Callable[[int], bool], descriptor: Optional[dict] = None) -> SetBase:
    return SetBase(descriptor or {"kind": "oracle"}, membership=fn)


# -- operations -------------------------------------------------------


def complement(s: SetBase) -> SetBase:
    """Complement within ω."""
    hint = None
    inner = s.count_hint
    if inner is not None:
        hint = lambda n: n - inner(n)  # noqa: E731

    return SetBase(
        {"kind": "complement", "of": s.descriptor},
        count_hint=hint,
        chunk_fn=lambda ci: s.chunk_mask(ci) ^ _FULL_CHUNK,
    )


def scale(s: SetBase, factor: int) -> SetBase:
    """The set {factor * a : a in S}.

    Exact count identity: |scale(S,m) ∩ [0,n)| = |S ∩ [0, ceil(n/m))|.
    A chunk at a is S's bits over [ceil(a/m), ceil((a + CHUNK_BITS)/m))
    stored with stride m from offset ceil(a/m)*m - a.
    """
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    m = int(factor)

    def hint(n: int) -> int:
        return s.prefix_count(-(-n // m))

    def chunk(ci: int) -> int:
        a = ci * CHUNK_BITS
        j0, j1 = -(-a // m), -(-(a + CHUNK_BITS) // m)
        out = np.zeros(CHUNK_BITS, dtype=np.uint8)
        out[j0 * m - a :: m] = s.bits_range(j0, j1)
        return bits_to_mask(out)

    return SetBase(
        {"kind": "scale", "factor": m, "of": s.descriptor},
        count_hint=hint,
        chunk_fn=chunk,
    )


def thin(s: SetBase) -> SetBase:
    """Every other element of S: keep members of even rank.

    If x_0 < x_1 < ... enumerates S, the result is {x_0, x_2, x_4, ...}.
    Exact count identity: |thin(S) ∩ [0,n)| = ceil(|S ∩ [0,n)| / 2).
    With P the chunk's inclusive prefix parity of S (bit i set when S has
    an odd number of members in [0, i] of the chunk, by a doubling
    shift-XOR scan), a chunk is S & P after an even count of S and S & ~P
    after an odd one.  The set keeps the next chunk index and S's count
    below it, so a forward sweep gets each chunk's starting rank for
    free; any other chunk, such as the one a lone membership query
    reads, takes it from S's prefix count.
    """
    rank = (0, 0)  # (next chunk index, S's count below it); see SetBase._chunk

    def hint(n: int) -> int:
        c = s.prefix_count(n)
        return (c + 1) // 2

    def chunk(ci: int) -> int:
        nonlocal rank
        at, below = rank
        if at != ci:
            below = s.prefix_count(ci * CHUNK_BITS)
        base = s.chunk_mask(ci)
        rank = (ci + 1, below + base.bit_count())
        parity = base
        for k in range(CHUNK_BITS.bit_length() - 1):
            parity ^= parity << (1 << k)
        return base & ~parity if below & 1 else base & parity

    return SetBase(
        {"kind": "thin", "of": s.descriptor},
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


def prefix_density(s: SetBase, n: int) -> Fraction:
    """Exact |S ∩ [0,n)| / n as a Fraction."""
    if n <= 0:
        raise ValueError("density needs a positive prefix length")
    return Fraction(s.prefix_count(n), n)
