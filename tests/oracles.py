"""Independent oracle implementations used to fix expected test values.

Everything here recomputes results by a route different from the
package code: high-precision floating point instead of fixed point,
explicit enumeration instead of bitmask periods, inclusion-exclusion
instead of the atom-sum dynamic program, exhaustive search instead of
greedy selection.  Frozen literals in the test files carry a note
naming the oracle that produced them; rerunning the oracle functions
reproduces the literals.
"""

import bisect
import math
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import mpmath
from numpy.random import Philox


# -- rotation threshold sets (high-precision route) ----------------------


def mp_kw_count(radicand: int, threshold: Fraction, n: int, dps: int = 40) -> int:
    """Count k < n with frac(k*sqrt(radicand)) < threshold.

    Works in mpmath arbitrary precision, accumulating k*sqrt(r) by
    repeated addition so no index relies on float rounding.  40 digits
    leaves ~25 digits of slack beyond the ~15 needed for n up to 1e6.
    """
    with mpmath.workdps(dps):
        step = mpmath.sqrt(radicand)
        thr = mpmath.mpf(threshold.numerator) / threshold.denominator
        x = mpmath.mpf(0)
        count = 0
        for _ in range(n):
            if x - mpmath.floor(x) < thr:
                count += 1
            x += step
        return count


# -- oscillating comparison set ------------------------------------------
# S = {k : floor(log2(k+1)) is even}.  Dyadic blocks alternate between
# fully in and fully out, so window densities swing between ~1/3 and
# ~2/3 forever; used to exercise non-convergence reporting.


def log_block_member(k: int) -> bool:
    return ((k + 1).bit_length() - 1) % 2 == 0


def log_block_count(n: int) -> int:
    """|S ∩ [0, n)| in closed form (sum of even dyadic block overlaps)."""
    total = 0
    m = 0
    while (1 << m) - 1 < n:
        if m % 2 == 0:
            lo = (1 << m) - 1
            hi = (1 << (m + 1)) - 1
            total += min(hi, n) - lo
        m += 1
    return total


# -- field densities by inclusion-exclusion ------------------------------


def atom_density_ie(densities, bits) -> Fraction:
    """d(A_0^{b_0} ∩ ... ∩ A_{k-1}^{b_{k-1}}) using only the product
    rule for intersections of un-complemented members:

        d = sum over S ⊆ zeros(bits) of (-1)^|S| * prod_{i in ones ∪ S} p_i
    """
    densities = [Fraction(p) for p in densities]
    ones = [i for i, b in enumerate(bits) if b]
    zeros = [i for i, b in enumerate(bits) if not b]
    base = Fraction(1)
    for i in ones:
        base *= densities[i]
    total = Fraction(0)
    for size in range(len(zeros) + 1):
        for s in combinations(zeros, size):
            term = base
            for i in s:
                term *= densities[i]
            total += (-1) ** size * term
    return total


def element_density_ie(densities, atom_mask: int) -> Fraction:
    """Expected density of the field element that is the union of the
    atoms selected by atom_mask (bit i of the mask = atom whose sign
    pattern reads off the bits of i)."""
    k = len(densities)
    total = Fraction(0)
    for i in range(1 << k):
        if (atom_mask >> i) & 1:
            bits = tuple((i >> j) & 1 for j in range(k))
            total += atom_density_ie(densities, bits)
    return total


# -- field image by Fraction arithmetic -----------------------------------
# The reference for the package's integer numerators over one common
# denominator: the same enumerations carried out on Fraction values.


def atom_values(densities) -> list[Fraction]:
    """Atom densities by the product rule; entry i is the atom whose
    pattern bits read off the binary digits of i, least member first."""
    out = []
    for i in range(1 << len(densities)):
        v = Fraction(1)
        for j, p in enumerate(densities):
            v *= p if (i >> j) & 1 else 1 - p
        out.append(v)
    return out


def field_value_counts(densities) -> dict:
    """Expected density of every field element, built up one atom at a
    time over atom bitmasks; maps each value to the number of elements
    taking it."""
    atoms = atom_values(densities)
    values = [Fraction(0)] * (1 << len(atoms))
    counts = {Fraction(0): 1}
    for mask in range(1, len(values)):
        low = (mask & -mask).bit_length() - 1
        v = values[mask] = values[mask & (mask - 1)] + atoms[low]
        counts[v] = counts.get(v, 0) + 1
    return counts


def scan_cells(densities, delta: Fraction, max_values: int):
    """Grid coverage of the field image: (lo, hi, witness or None) per
    width-delta cell of [0,1], the witness being the least subset sum of
    the atoms in [lo, hi) ([lo, 1] for the last cell), and whether full
    coverage is expected (largest atom below delta).  Equal atoms are
    grouped; ValueError once more than max_values sums would be held."""
    grouped: dict = {}
    for v in atom_values(densities):
        grouped[v] = grouped.get(v, 0) + 1
    sums = {Fraction(0)}
    for value, count in sorted(grouped.items()):
        if len(sums) * (count + 1) > max_values:
            raise ValueError("field image too rich to enumerate")
        sums = {s + j * value for s in sums for j in range(count + 1)}
    ordered = sorted(sums)
    cells = []
    for j in range(int(-(-Fraction(1) // delta))):
        lo = j * delta
        hi = min((j + 1) * delta, Fraction(1))
        i = bisect.bisect_left(ordered, lo)
        witness = None
        if i < len(ordered) and (ordered[i] < hi or (hi == 1 and ordered[i] == 1)):
            witness = ordered[i]
        cells.append((lo, hi, witness))
    return cells, max(grouped) < delta


# -- exhaustive pattern packing ------------------------------------------


def brute_pack_best(densities, side: int, target) -> tuple[int, Fraction]:
    """Maximum number of full-level sign patterns with first bit equal
    to side whose atom densities sum strictly below target; exhaustive
    over all subsets.  Returns (cardinality, best_total) where
    best_total is the largest achievable sum at that cardinality.
    """
    densities = [Fraction(p) for p in densities]
    target = Fraction(target)
    k = len(densities)
    atoms = []
    for i in range(1 << k):
        bits = tuple((i >> j) & 1 for j in range(k))
        if bits[0] == side:
            atoms.append(atom_density_ie(densities, bits))
    best = (0, Fraction(0))
    for size in range(len(atoms), -1, -1):
        found = None
        for combo in combinations(atoms, size):
            t = sum(combo, Fraction(0))
            if t < target and (found is None or t > found):
                found = t
        if found is not None:
            best = (size, found)
            break
    return best


# -- coded classical sets by explicit subset enumeration ------------------


def coded_block_starts(depth: int) -> list[int]:
    starts = [0]
    for n in range(depth + 1):
        starts.append(starts[-1] + (1 << (1 << n)))
    return starts


def coded_member_enum(sigma: str, depth_limit: int, k: int) -> bool:
    """Membership computed from the definition: block n lists every
    subset of the length-n binary strings (strings in lexicographic
    order, subsets by characteristic vector), and the set keeps the
    indices whose subset contains sigma's length-n prefix."""
    starts = coded_block_starts(depth_limit)
    if k < 0 or k >= starts[depth_limit + 1]:
        return False
    n = 0
    while starts[n + 1] <= k:
        n += 1
    offset = k - starts[n]
    strings = ["".join(bits) for bits in product("01", repeat=n)]
    strings.sort()
    subset = {s for idx, s in enumerate(strings) if (offset >> idx) & 1}
    prefix = (sigma + "0" * depth_limit)[:n]
    return prefix in subset


def coded_bits_hex(sigma: str, depth_limit: int, n: int) -> str:
    """First n membership bits packed LSB-first into a hex literal."""
    v = 0
    for k in range(n):
        if coded_member_enum(sigma, depth_limit, k):
            v |= 1 << k
    return hex(v)


# -- factorial-block parity sets by per-index evaluation -------------------


def factorial_block_starts(blocks: int) -> list[int]:
    starts = [0]
    for m in range(blocks):
        starts.append(starts[-1] + (1 << m) * factorial(m + 1))
    return starts


def block_parity_member_enum(classical_members: set, n: int, starts: list) -> bool:
    """Membership from the definition: locate the block, reduce the
    offset mod 2**m, and test odd overlap between the residue's binary
    digits and the classical set's first m indices."""
    m = 0
    while starts[m + 1] <= n:
        m += 1
    v = (n - starts[m]) % (1 << m)
    overlap = sum(1 for j in range(m) if j in classical_members and (v >> j) & 1)
    return overlap % 2 == 1


def block_parity_count_enum(classical_members: set, n: int, blocks: int = 12) -> int:
    starts = factorial_block_starts(blocks)
    return sum(
        1 for k in range(n) if block_parity_member_enum(classical_members, k, starts)
    )


# -- rotation orbits by exact modular walking -------------------------------
# The reference the package's numpy high-limb kernel and floor-sum counts are
# checked against bit for bit: one Python integer per index, advanced by
# exact modular addition of the 96-bit step.

ORBIT_MOD = 1 << 96


def orbit_walk_mask(step: int, thr_eff: int, start: int, length: int) -> int:
    """Bitmask of {n in [start, start+length) : (n*step) mod 2**96 < thr_eff}."""
    x = (start * step) % ORBIT_MOD
    bits = bytearray((length + 7) // 8)
    for i in range(length):
        if x < thr_eff:
            bits[i >> 3] |= 1 << (i & 7)
        x += step
        if x >= ORBIT_MOD:
            x -= ORBIT_MOD
    return int.from_bytes(bytes(bits), "little")


def orbit_walk_band(step: int, lo: int, hi: int, start: int, length: int) -> int:
    """#{n in [start, start+length) : lo <= (n*step) mod 2**96 < hi}."""
    x = (start * step) % ORBIT_MOD
    hits = 0
    for _ in range(length):
        if lo <= x < hi:
            hits += 1
        x += step
        if x >= ORBIT_MOD:
            x -= ORBIT_MOD
    return hits


# -- biased coin by one Philox block per index ------------------------------
# The reference for the package's bulk coin kernel: each index draws its
# own counter block and is compared against a threshold computed from
# the Fraction, with no packing and no threshold arrays.


def coin_member(seed: int, t_in: Fraction, t_out: Fraction, in_distinguished: bool,
                n: int) -> bool:
    """Index n joins the biased-coin set iff the Philox-4x64 draw for n
    (lane n % 4 of counter block n // 4 under key seed) lies below
    floor(t * 2**64), with t = t_in inside the distinguished member and
    t_out outside it."""
    u = int(Philox(key=seed, counter=n // 4).random_raw(4)[n % 4])
    t = t_in if in_distinguished else t_out
    return u < math.floor(t * (1 << 64))


# -- set expressions by pointwise evaluation --------------------------------
# The reference for chunked counting: an expression is a nested tuple
# evaluated index by index into a list of booleans, with no bitmasks,
# no chunks and no count shortcuts.


def expr_members(expr, n: int) -> list:
    """Membership of each index in [0, n) in the set expression expr.

    Leaves: ("periodic", residues, modulus), ("elements", members),
    ("omega",) and ("empty",).  Nodes: ("complement", x),
    ("intersect", x, ...), ("union", x, ...), ("sym_diff", x, y),
    ("thin", x, ...), which keeps each x's members of even rank, and
    ("scale", x, m) = {m * a : a in x}."""
    kind, args = expr[0], expr[1:]
    if kind == "periodic":
        residues, modulus = args
        return [i % modulus in residues for i in range(n)]
    if kind == "elements":
        return [i in args[0] for i in range(n)]
    if kind in ("omega", "empty"):
        return [kind == "omega"] * n
    if kind == "scale":
        x, m = args
        base = expr_members(x, -(-n // m))
        return [i % m == 0 and base[i // m] for i in range(n)]
    parts = [expr_members(x, n) for x in args]
    if kind == "complement":
        return [not v for v in parts[0]]
    if kind == "intersect":
        return [all(vs) for vs in zip(*parts)]
    if kind == "union":
        return [any(vs) for vs in zip(*parts)]
    if kind == "sym_diff":
        return [a != b for a, b in zip(*parts)]
    if kind == "thin":
        out = [False] * n
        for part in parts:
            rank = 0
            for i, v in enumerate(part):
                out[i] = out[i] or (v and rank % 2 == 0)
                rank += v
        return out
    raise ValueError(f"unknown expression kind {kind!r}")
