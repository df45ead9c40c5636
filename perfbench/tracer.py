"""Spans around densfam's layers, installed from outside the package.

``Tracer.install`` replaces module attributes and class methods of the
imported ``densfam`` modules with wrappers that record a span per call:
name, start, end, parent span and op id.  A function imported by name
into other modules (``from .rng import u64_range``) is replaced in every
module that holds it.  Spans stay in memory; ``write`` dumps them when
the run ends and ``layer_metrics`` derives per-layer statistics:

* ``<name>.calls`` and ``<name>.self_s``, where self time is the span's
  duration minus the part of it covered by its child spans;
* unit counts recorded at the call: ``rng.u64_range.draws``,
  ``verify.field_elements.elements``, ``reports.render_report.bytes``, ...;
* chunk-cache accounting on ``SetBase.chunk_mask``: a hit is a call on a
  set with ``caches_chunks`` true for a chunk that set already served in
  the same op, and the cache size is the number of distinct (set, chunk)
  pairs on caching sets times 8 KiB.

Spans opened on a worker thread with no open span of their own take the
op thread's innermost open span as parent, so pool work counts as the
caller's children; overlapping children are merged before subtracting.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

CHUNK_BYTES = 8192  # one cached 65,536-bit mask

CHUNK_KINDS = ("kw", "block", "random-ext", "complement", "intersect", "union",
               "thin", "thin-ext")


def _draws(args, kwargs, result):
    return "draws", len(result)


def _elements(args, kwargs, result):
    return "elements", len(result)


def _scan_elements(args, kwargs, result):
    # the scan covers the whole generated field: 2**(2**k) elements
    return "elements", 1 << (1 << len(result.names))


def _bytes(args, kwargs, result):
    return "bytes", len(result)


# (module, attribute, unit counter or None); the span is named <module>.<attribute>
FUNCTIONS = [
    ("fixedpoint", "orbit_chunk_mask", None),
    ("fixedpoint", "orbit_band_count", None),
    ("rng", "u64_range", _draws),
    ("sets", "bits_to_mask", None),
    ("sets", "mask_to_bits", None),
    ("specfile", "load_spec", None),
    ("constructors", "gap_family", None),
    ("density", "estimate_density", None),
    ("verify", "verify_independence", None),
    ("verify", "field_elements", _elements),
    ("verify", "image_density_scan", _scan_elements),
    ("reaping", "thin_extension", None),
    ("reaping", "nonindependence_witness", None),
    ("cli", "cmd_construct", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_image", None),
    ("cli", "cmd_extend", None),
    ("reports", "render_report", _bytes),
    ("reports", "canonical_json", None),
    ("reports", "schedule_json", None),
    ("reports", "estimate_json", None),
    ("reports", "band_json", None),
    ("reports", "verification_json", None),
    ("reports", "witness_json", None),
    ("reports", "scan_json", None),
]

# (module, class, method, span name)
METHODS = [
    ("sets", "SetBase", "bits_range", "sets.bits_range"),
    ("sets", "SetBase", "prefix_count", "sets.prefix_count"),
    ("constructors", "KWSet", "band_count", "constructors.KWSet.band_count"),
]

# per-layer metrics reported by a traced run, in output order
LAYER_STATS = (
    [f"fixedpoint.{f}.{s}" for f in ("orbit_chunk_mask", "orbit_band_count")
     for s in ("calls", "self_s")]
    + ["constructors.KWSet.band_count.self_s"]
    + [f"rng.u64_range.{s}" for s in ("calls", "self_s", "draws")]
    + [f"sets.chunk_mask.{k}.{s}" for k in CHUNK_KINDS for s in ("calls", "self_s")]
    + [f"sets.{f}.{s}" for f in ("bits_range", "bits_to_mask", "mask_to_bits", "prefix_count")
       for s in ("calls", "self_s")]
    + [f"verify.{f}.{s}" for f in ("field_elements", "image_density_scan")
       for s in ("self_s", "elements")]
    + [f"cli.{f}.self_s" for f in ("cmd_construct", "cmd_verify", "cmd_image", "cmd_extend")]
    + ["reports.render_report.self_s", "reports.render_report.bytes"]
    + [f"reports.{f}.self_s" for f in ("canonical_json", "schedule_json", "estimate_json",
                                       "band_json", "verification_json", "witness_json",
                                       "scan_json")]
    + ["verify.verify_independence.self_s", "density.estimate_density.self_s",
       "reaping.thin_extension.self_s", "reaping.nonindependence_witness.self_s",
       "specfile.load_spec.self_s", "constructors.gap_family.self_s"]
)

CACHE_STATS = ["sets.chunk_cache.hit_ratio", "sets.chunk_cache.mb"]


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id, {unit: count}]
        self.spans: list[list] = []
        self.op_id = -1
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._cache_lock = threading.Lock()
        self._seen: set = set()
        # op id -> [caching chunk_mask calls, hits, distinct (set, chunk) pairs]
        self.cache: dict[int, list[int]] = {}

    # -- span recording ------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _enter(self, name: str) -> tuple[list, list[int]]:
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            op_stack = self._op_stack
            parent = op_stack[-1] if op_stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id, None]
        self.spans.append(span)  # list.append is atomic under the GIL
        st.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        return span, st

    def span(self, name: str, fn, units=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, st = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                st.pop()
            if units is not None:
                unit, n = units(args, kwargs, result)
                span[5] = {unit: n}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_stack = self._stack()
        with self._cache_lock:
            self._seen = set()
            self.cache[op_id] = [0, 0, 0]

    def end_op(self) -> None:
        with self._cache_lock:
            self._seen = set()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import densfam

        mods = {n: sys.modules[f"densfam.{n}"] for n in
                ("fixedpoint", "rng", "sets", "specfile", "constructors", "density",
                 "verify", "reaping", "cli", "reports")}
        holders = [densfam] + list(mods.values())
        for mod, attr, units in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            wrapped = self.span(f"{mod}.{attr}", orig, units)
            for h in holders:
                for k, v in list(vars(h).items()):
                    if v is orig:
                        setattr(h, k, wrapped)
        for mod, cls, meth, name in METHODS:
            klass = getattr(mods[mod], cls)
            setattr(klass, meth, self.span(name, getattr(klass, meth)))
        self._install_chunk_mask(mods["sets"])

    def _install_chunk_mask(self, sets_mod) -> None:
        SetBase, SetExpr = sets_mod.SetBase, sets_mod.SetExpr
        orig = SetBase.chunk_mask
        tracer = self

        def chunk_mask(s, ci):
            kind = s.op if isinstance(s, SetExpr) else s.descriptor.get("kind")
            if s.caches_chunks:
                key = (s, ci)
                with tracer._cache_lock:
                    acc = tracer.cache[tracer.op_id]
                    acc[0] += 1
                    if key in tracer._seen:
                        acc[1] += 1
                    else:
                        tracer._seen.add(key)
                        acc[2] += 1
            span, st = tracer._enter(f"sets.chunk_mask.{kind}")
            try:
                return orig(s, ci)
            finally:
                span[2] = time.perf_counter()
                st.pop()

        chunk_mask.__wrapped__ = orig
        SetBase.chunk_mask = chunk_mask

    # -- derived statistics --------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            if s[3] >= 0:
                children[s[3]].append((s[1], s[2]))
        out = []
        for i, s in enumerate(spans):
            t0, t1 = s[1], s[2]
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(i, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append(t1 - t0 - covered)
        return out

    def layer_metrics(self, cycles: list[list[int]], scale: dict[int, float]) -> list[dict]:
        """Per-layer statistics of each cycle (a list of op ids), summed
        over its spans; self times are multiplied by their op's factor in
        `scale`."""
        cycle_of = {op: i for i, ops in enumerate(cycles) for op in ops}
        stats = [defaultdict(float) for _ in cycles]
        for s, self_s in zip(self.spans, self.self_times()):
            i = cycle_of.get(s[4])
            if i is None:
                continue
            stats[i][f"{s[0]}.calls"] += 1
            stats[i][f"{s[0]}.self_s"] += self_s * scale[s[4]]
            for unit, n in (s[5] or {}).items():
                stats[i][f"{s[0]}.{unit}"] += n
        out = []
        for ops, st in zip(cycles, stats):
            m = {name: st.get(name, 0) for name in LAYER_STATS}
            calls = sum(self.cache[i][0] for i in ops)
            hits = sum(self.cache[i][1] for i in ops)
            m[CACHE_STATS[0]] = hits / calls if calls else 0.0
            m[CACHE_STATS[1]] = max(self.cache[i][2] for i in ops) * CHUNK_BYTES / 1e6
            out.append(m)
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "units"],
                "names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
            }, fh, separators=(",", ":"))
