"""Lazy subsets of the nonnegative integers with exact prefix counting.

Every set is one type, ``SetBase``: a descriptor, a chunk function and
an optional exact count hint, all fixed when the set is built.  A chunk
is membership over an aligned 65536-index range, as a Python integer
bitmask, combined with other sets' chunks by cheap bitwise operations.
Rotation, block-parity and boolean-combination sets subclass ``SetBase``
to supply their own kernel.  All counts are exact integers.

``window_counts`` is the one way to count: it gives |S ∩ [0, n)| for
many sets and windows in one chunk-major sweep, so a leaf shared by many
expressions is computed once per chunk, and each set keeps only its last
chunk and the state carried into two chunks per reader: memory is flat
in the window size.  Its ``workers`` argument splits the chunk range
into contiguous parts counted in forked worker processes and summed, so
results are identical for any worker count; ``prefix_count`` and
``sweep_prefix`` are its one-set, one-window forms.  A thinning is one
set however many parts it thins, so a worker finds every part's parity
below its range in one shared sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

# numpy is imported in the functions that use it, so that importing
# densfam, building a set and counting it by its hint skip it; here it is
# only named in annotations
if TYPE_CHECKING:
    import numpy as np

CHUNK_BITS = 1 << 16
_FULL_CHUNK = (1 << CHUNK_BITS) - 1


def bits_to_mask(bits: np.ndarray) -> int:
    """Pack a 0/1 or boolean array into an integer bitmask, bit i = bits[i]."""
    import numpy as np

    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def mask_to_bits(mask: int, width: int) -> np.ndarray:
    """Unpack an integer bitmask into a uint8 0/1 array of the given width."""
    import numpy as np

    nbytes = (width + 7) // 8
    raw = mask.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:width]


class SetBase:
    """A subset of ω: a descriptor plus a chunk function and an optional
    exact count hint, all fixed when it is built.

    ``chunk_fn(ci)`` supplies the whole 65536-index membership bitmask of
    chunk ci.  ``count_hint``, when supplied, must return the exact
    value of |S ∩ [0, n)| for every n; it is trusted by ``prefix_count``
    and is spot-checked against exhaustive counting in the test suite.
    A kind with its own kernel subclasses this and overrides
    ``_compute_chunk`` (and ``count_hint`` when it counts in closed form).
    A kind whose chunks carry state to the next sets ``_carried = {}``; see chunk_mask.
    """

    # read only by perfbench/tracer.py, which counts chunk-cache hits on
    # sets where it is true; no set serves chunks from more than its one-chunk slot
    caches_chunks = False
    _carried: Optional[dict] = None  # chunk index -> state carried into it

    def __init__(
        self,
        descriptor: dict,
        *,
        chunk_fn: Optional[Callable[[int], int]] = None,
        count_hint: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.descriptor = descriptor
        self._chunk_fn = chunk_fn
        self._count_hint = count_hint
        self._chunk: tuple[int, int] = (-1, 0)  # (ci, mask) of the last chunk computed

    @property
    def count_hint(self) -> Optional[Callable[[int], int]]:
        return self._count_hint

    # -- chunked evaluation -------------------------------------------

    def _compute_chunk(self, ci: int, *into):
        return self._chunk_fn(ci, *into)

    def chunk_mask(self, ci: int) -> int:
        """Membership bitmask for indices [ci*CHUNK_BITS, (ci+1)*CHUNK_BITS).

        The one place that keeps carried state: a kind that carries it
        computes chunk ci from the state carried into ci (None if none)
        and returns the mask, that state and the state carried into ci + 1.
        Both are kept and the state carried into ci - 1 is dropped, so each
        reader, at its own position, keeps its own two entries.  Readers
        move forward, chunk after chunk: a reader that jumps leaves its two
        entries behind.  An entry depends on its index only, so a race of
        threads at most drops one.
        """
        got = self._chunk
        if got[0] != ci:
            carried = self._carried
            if carried is None:
                mask = self._compute_chunk(ci)
            else:
                mask, carried[ci], carried[ci + 1] = self._compute_chunk(ci, carried.get(ci))
                carried.pop(ci - 1, None)
            got = self._chunk = (ci, mask)
        return got[1]

    def bits_range(self, start: int, stop: int) -> np.ndarray:
        """Membership as a uint8 0/1 array over [start, stop), start >= 0."""
        import numpy as np

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

        # loaded once here for every worker to inherit, not once per worker
        __import__("numpy.random")
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


def from_elements(elements: Iterable[int]) -> SetBase:
    """Finite explicit set; useful as a leaf in tests and expressions."""
    given = list(elements)
    if any(int(e) != e for e in given):
        raise ValueError("elements must be integers")
    elems = sorted(set(int(e) for e in given))
    if elems and elems[0] < 0:
        raise ValueError("elements must be nonnegative")

    def chunk(ci: int) -> int:
        import numpy as np

        lo = ci * CHUNK_BITS
        i, j = bisect_left(elems, lo), bisect_left(elems, lo + CHUNK_BITS)
        if i == j:
            return 0
        bits = np.zeros(CHUNK_BITS, dtype=np.uint8)
        bits[[e - lo for e in elems[i:j]]] = 1
        return bits_to_mask(bits)

    return SetBase(
        {"kind": "explicit", "size": len(elems)},
        count_hint=lambda n: bisect_left(elems, n),
        chunk_fn=chunk,
    )


def from_membership(fn: Callable[[int], bool], descriptor: Optional[dict] = None) -> SetBase:
    """The set {n : fn(n)}, its chunks filled one call of fn per index:
    a reference for tests and scripts."""

    def chunk(ci: int) -> int:
        import numpy as np

        base = ci * CHUNK_BITS
        members = map(fn, range(base, base + CHUNK_BITS))
        return bits_to_mask(np.fromiter(members, bool, CHUNK_BITS))

    return SetBase(descriptor or {"kind": "oracle"}, chunk_fn=chunk)


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
    m = int(factor)
    if m != factor or m < 1:
        raise ValueError("scale factor must be a positive integer")

    def hint(n: int) -> int:
        return s.prefix_count(-(-n // m))

    def chunk(ci: int) -> int:
        import numpy as np

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


def thin(*parts: SetBase) -> SetBase:
    """Every other element of each part, the union over the parts.

    If x_0 < x_1 < ... enumerates a part S, it keeps {x_0, x_2, x_4, ...}.
    One part has the count hint |thin(S) ∩ [0,n)| = ceil(|S ∩ [0,n)| / 2).
    With P the chunk's inclusive prefix parity of S (bit i set when S has
    an odd number of members in [0, i] of the chunk), S keeps S & P after
    an even count of S and S & ~P after an odd one, for all parts in one
    numpy pass.  A chunk needs only each part's count parity below it, and
    carries the parities below the next chunk into it (see chunk_mask); a
    chunk nothing carried into, such as a reader's first, takes them from
    one window_counts sweep of all parts.
    """
    s, *more = parts
    hint = None if more else lambda n: (s.prefix_count(n) + 1) // 2

    def chunk(ci: int, odd: Optional[np.ndarray]) -> tuple[int, np.ndarray, np.ndarray]:
        import numpy as np

        if odd is None:
            below = window_counts(parts, (ci * CHUNK_BITS,))
            odd = np.array([c & 1 for (c,) in below], dtype=np.uint64)[:, None]
        # rows of 64-bit words: each word's inclusive prefix parity by six
        # shift-XORs, carried across words by the exclusive XOR-accumulate
        # of their top bits and by the part's parity below
        words = np.frombuffer(b"".join(p.chunk_mask(ci).to_bytes(CHUNK_BITS // 8, "little")
                                       for p in parts), dtype="<u8").reshape(len(parts), -1)
        parity = words ^ (words << np.uint64(1))
        for k in (2, 4, 8, 16, 32):
            parity ^= parity << np.uint64(k)
        top = parity >> np.uint64(63)
        parity ^= np.uint64(0) - (np.bitwise_xor.accumulate(top, axis=1) ^ top ^ odd)
        kept = np.bitwise_or.reduce(words & parity, axis=0)
        return int.from_bytes(kept.tobytes(), "little"), odd, parity[:, -1:] >> np.uint64(63)

    of = [p.descriptor for p in parts] if more else s.descriptor
    t = SetBase({"kind": "thin", "of": of}, count_hint=hint, chunk_fn=chunk)
    t._carried = {}
    return t


def intersect(*sets: SetBase) -> SetExpr:
    return SetExpr("intersect", tuple(sets))


def union(*sets: SetBase) -> SetExpr:
    return SetExpr("union", tuple(sets))


def sym_diff(x: SetBase, y: SetBase) -> SetExpr:
    return SetExpr("sym_diff", (x, y))
