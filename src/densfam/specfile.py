"""Family specification files.

A spec file is a JSON document naming the sets to build.  The schema,
not the syntax, is normative; every entry is a descriptor with a unique
name, a construction kind, and kind-specific parameters:

    {
      "family": [
        {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3"},
        {"name": "C0", "kind": "coded", "sigma": "00", "depth_limit": 4},
        {"name": "B0", "kind": "block", "classical": "C0"},
        {"name": "R",  "kind": "random-ext", "family": ["A0"],
         "distinguished": "A0", "target": "0.5", "seed": 123},
        {"name": "G",  "kind": "gap", "target": "0.9", "size": 4},
        {"name": "T",  "kind": "thin-ext", "family": ["A0"]},
        {"name": "E",  "kind": "expr", "density": "0.15",
         "expr": {"op": "intersect",
                  "args": [{"ref": "A0"},
                           {"op": "complement", "args": [{"ref": "A1"}]}]}}
      ],
      "schedule": {"start": 10000, "ratio": "2", "count": 10},
      "tol": "0.005"
    }

Entries may reference earlier entries by name.  A "gap" entry expands
into `size` members named `<name>0 .. <name><size-1>`.  Entries that
carry a density (kw, block, random-ext, gap, thin-ext, and expr with an
explicit "density") form the verification family, in definition order;
"coded" entries and density-less exprs are auxiliary building blocks.
Rationals are strings like "0.3" or "3/10" so nothing is lost to float
parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .constructors import (
    BlockParitySet,
    Family,
    coded_independent_set,
    gap_family,
    kw_set,
    random_extension,
)
from .density import DEFAULT_SCHEDULE, WindowSchedule, as_fraction
from .reaping import thin_extension
from .sets import SetBase, SetExpr, complement, omega, scale


class SpecError(ValueError):
    """Malformed or inconsistent spec document."""


@dataclass
class LoadedSpec:
    doc: dict
    sets: dict[str, SetBase]
    family: Optional[Family]
    schedule: WindowSchedule
    tol: Optional[Fraction]
    seeds: dict[str, int] = field(default_factory=dict)

    def require_family(self) -> Family:
        if self.family is None:
            raise SpecError("family must be nonempty: no entry declares a density")
        return self.family


def parse_spec_text(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"spec is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    return doc


def read_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError(f"cannot read spec {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise SpecError(f"spec {path} is not UTF-8: byte {e.start} {e.reason}") from None
    return parse_spec_text(text)


def _need(entry: dict, key: str, name: str):
    if key not in entry:
        raise SpecError(f"entry {name!r} is missing required field {key!r}")
    return entry[key]


def parse_rational(value, what: str) -> Fraction:
    try:
        return as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SpecError(f"{what} is not a rational: {value!r}") from None


def parse_tolerance(value, what: str) -> Fraction:
    """A tolerance: a rational at least 0 (0 fails any nonzero deviation)."""
    tol = parse_rational(value, what)
    if tol < 0:
        raise SpecError(f"{what} must be nonnegative")
    return tol


def parse_integer(value, what: str) -> int:
    """An int, or a string spelling one; floats and bools are refused."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise SpecError(f"{what} is not an integer: {value!r}")


def _lookup(sets: dict[str, SetBase], ref, name: str) -> SetBase:
    """The earlier set that entry `name` refers to by the string `ref`."""
    if not isinstance(ref, str) or ref not in sets:
        raise SpecError(f"entry {name!r} references unknown set {ref!r}")
    return sets[ref]


def _build_expr(node, sets: dict[str, SetBase], name: str) -> SetBase:
    if not isinstance(node, dict):
        raise SpecError(f"entry {name!r}: expression nodes must be objects")
    if "ref" in node:
        return _lookup(sets, node["ref"], name)
    op = node.get("op")
    if op == "omega":
        return omega()
    args = node.get("args", [])
    if not isinstance(args, list):
        raise SpecError(f"entry {name!r}: expression 'args' must be a list")
    built = [_build_expr(a, sets, name) for a in args]
    if op == "complement":
        if len(built) != 1:
            raise SpecError(f"entry {name!r}: complement takes one argument")
        return complement(built[0])
    if op == "scale":
        if len(built) != 1 or "factor" not in node:
            raise SpecError(f"entry {name!r}: scale takes one argument and a factor")
        return scale(built[0], parse_integer(node["factor"], f"{name} scale factor"))
    if op in ("intersect", "union", "sym_diff"):
        return SetExpr(op, tuple(built))
    raise SpecError(f"entry {name!r}: unknown expression op {op!r}")


def _subfamily(
    names: list, sets: dict[str, SetBase],
    densities: dict[str, Fraction], context: str,
) -> Family:
    if not isinstance(names, list) or not names:
        raise SpecError(f"entry {context!r}: 'family' must be a nonempty name list")
    members = tuple(_lookup(sets, n, context) for n in names)
    for n in names:
        if n not in densities:
            raise SpecError(f"entry {context!r}: set {n!r} has no declared density")
    return Family(tuple(names), members, tuple(densities[n] for n in names))


def load_spec(doc: dict, default_seed: Optional[int] = None) -> LoadedSpec:
    """Build every named set in the document, in order."""
    entries = doc.get("family")
    if not isinstance(entries, list):
        raise SpecError("spec needs a 'family' list of set descriptors")

    sets: dict[str, SetBase] = {}
    densities: dict[str, Fraction] = {}
    family_names: list[str] = []
    seeds: dict[str, int] = {}

    def define(name: str, s: SetBase, density: Optional[Fraction]) -> None:
        if name in sets:
            raise SpecError(f"duplicate set name {name!r}")
        sets[name] = s
        if density is not None:
            if not 0 < density < 1:
                raise SpecError(
                    f"entry {name!r} declares density {density} outside (0,1)"
                )
            densities[name] = density
            family_names.append(name)

    def build_entry(entry: dict, name: str, kind: str) -> None:
        if kind == "kw":
            radicand = parse_integer(_need(entry, "radicand", name), f"{name} radicand")
            threshold = parse_rational(_need(entry, "threshold", name), f"{name} threshold")
            define(name, kw_set(radicand, threshold), threshold)

        elif kind == "coded":
            sigma = str(_need(entry, "sigma", name))
            if any(c not in "01" for c in sigma):
                raise SpecError(f"entry {name!r}: sigma must be a string of 0/1")
            depth = parse_integer(entry.get("depth_limit", 4), f"{name} depth_limit")
            define(name, coded_independent_set(tuple(int(c) for c in sigma), depth), None)

        elif kind == "block":
            classical = _lookup(sets, _need(entry, "classical", name), name)
            define(name, BlockParitySet(classical), Fraction(1, 2))

        elif kind == "random-ext":
            sub = _subfamily(_need(entry, "family", name), sets, densities, name)
            distinguished = _need(entry, "distinguished", name)
            target = parse_rational(_need(entry, "target", name), f"{name} target")
            seed = entry.get("seed", default_seed)
            if seed is None:
                raise SpecError(f"entry {name!r} needs a seed (in the entry or via --seed)")
            seed = parse_integer(seed, f"{name} seed")
            s, _ = random_extension(sub, distinguished, target, seed)
            seeds[name] = seed
            define(name, s, target)

        elif kind == "gap":
            target = parse_rational(_need(entry, "target", name), f"{name} target")
            size = parse_integer(_need(entry, "size", name), f"{name} size")
            gap = gap_family(target, size)
            for i, (s, d) in enumerate(zip(gap.sets, gap.densities)):
                define(f"{name}{i}", s, d)

        elif kind == "thin-ext":
            sub = _subfamily(_need(entry, "family", name), sets, densities, name)
            define(name, thin_extension(sub), Fraction(1, 2))

        elif kind == "expr":
            s = _build_expr(_need(entry, "expr", name), sets, name)
            density = None
            if "density" in entry:
                density = parse_rational(entry["density"], f"{name} density")
            define(name, s, density)

        else:
            raise SpecError(f"entry {name!r} has unknown kind {kind!r}")

    for entry in entries:
        if not isinstance(entry, dict):
            raise SpecError("each family entry must be an object")
        name = _need(entry, "name", "<unnamed>")
        if not isinstance(name, str) or not name:
            # a gap entry names its members by suffixing its own name
            raise SpecError(f"entry name must be a nonempty string: {name!r}")
        kind = _need(entry, "kind", name)
        try:
            build_entry(entry, name, kind)
        except SpecError:
            raise
        except (ValueError, KeyError) as e:
            # a constructor's own check, named by the entry it failed on;
            # str() of a KeyError would quote its message
            raise SpecError(f"entry {name!r}: {e.args[0] if e.args else e}") from None

    family = None
    if family_names:
        family = Family(
            tuple(family_names),
            tuple(sets[n] for n in family_names),
            tuple(densities[n] for n in family_names),
        )

    schedule = schedule_from_doc(doc.get("schedule"))
    tol = None
    if "tol" in doc:
        tol = parse_tolerance(doc["tol"], "tol")

    return LoadedSpec(
        doc=doc,
        sets=sets,
        family=family,
        schedule=schedule,
        tol=tol,
        seeds=seeds,
    )


def schedule_from_doc(node) -> WindowSchedule:
    if node is None:
        return DEFAULT_SCHEDULE
    if not isinstance(node, dict):
        raise SpecError("'schedule' must be an object")
    start = parse_integer(node.get("start", DEFAULT_SCHEDULE.start), "schedule start")
    count = parse_integer(node.get("count", DEFAULT_SCHEDULE.count), "schedule count")
    end = node.get("end")
    end = None if end is None else parse_integer(end, "schedule end")
    try:
        ratio = parse_rational(node.get("ratio", DEFAULT_SCHEDULE.ratio), "ratio")
        return WindowSchedule(start=start, ratio=ratio, count=count, end=end)
    except ValueError as e:
        raise SpecError(f"bad schedule: {e}") from None
