"""Every name a package module, script or test file imports is used in
that file, every private module-level name is read somewhere in the
package, and numpy is loaded only by the first chunk computed.

No linter is a test dependency, so this reads the sources with the
standard ``ast`` module.  ``__init__.py`` is skipped for imports: its
imports are the package's exports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "densfam"
SCRIPTS = ROOT / "scripts"
TESTS = ROOT / "tests"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in the source and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
                         + sorted(SCRIPTS.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from math import inf, pi\nimport numpy as np\nimport os.path\nprint(pi, os)\n"
    assert unused_imports(source) == ["line 1: inf", "line 2: np"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Underscore-prefixed (not dunder) functions, classes and constants
    that a module defines at top level and no module reads: neither as a
    name, an attribute nor an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in defined
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_every_private_module_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n_C, D = 3, 4\n__all__ = []\n"
                "def _f():\n    return _A\nclass _K:\n    pass\n",
        "b.py": "from a import _B\nimport a\nprint(a._f, _B)\n",
    }
    assert unread_private_names(sources) == ["a.py: _C", "a.py: _K"]


def eager_numpy_imports(source: str) -> list[str]:
    """numpy imports that run when the module is imported: those outside
    every function body and every ``if TYPE_CHECKING:`` block."""
    found = []

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found.extend(f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "numpy")
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_imports_numpy_only_where_it_is_used(path):
    assert eager_numpy_imports(path.read_text()) == []


def test_an_eager_numpy_import_is_found():
    source = ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n"
              "else:\n    import numpy.random\ntry:\n    from numpy import uint64\n"
              "except ImportError:\n    pass\nimport numpyro\n"
              "def f():\n    import numpy as np\nclass K:\n    from numpy.random import Philox\n")
    assert eager_numpy_imports(source) == ["line 5: numpy.random", "line 7: numpy",
                                           "line 14: numpy.random"]


def run_fresh(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter that imports the package
    from this checkout; it must exit 0."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


EVERY_KIND = {"family": [
    {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3"},
    {"name": "C0", "kind": "coded", "sigma": "01", "depth_limit": 4},
    {"name": "B0", "kind": "block", "classical": "C0"},
    {"name": "R", "kind": "random-ext", "family": ["A0"], "distinguished": "A0",
     "target": "0.5", "seed": 7},
    {"name": "G", "kind": "gap", "target": "0.9", "size": 3},
    {"name": "T", "kind": "thin-ext", "family": ["A0", "B0"]},
    {"name": "E", "kind": "expr", "density": "0.15",
     "expr": {"op": "intersect", "args": [{"ref": "A0"}, {"op": "complement",
                                                          "args": [{"ref": "G1"}]}]}},
]}

ROTATION_235 = {"family": [
    {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3"},
    {"name": "A1", "kind": "kw", "radicand": 3, "threshold": "0.5"},
    {"name": "A2", "kind": "kw", "radicand": 5, "threshold": "0.7"},
]}

# prints the numpy modules loaded after each step
COMMANDS_WITHOUT_CHUNKS = """
import sys
import densfam, densfam.cli
from densfam.specfile import load_spec, read_spec_file
every_kind, rotation, out = sys.argv[1:]

def loaded(step):
    print(step, sorted(m for m in sys.modules if m.split(".")[0] == "numpy")[:1])

loaded("import")
load_spec(read_spec_file(every_kind))
loaded("load_spec")
for argv in (["image", rotation], ["pack", rotation, "--side", "1", "--target", "0.3"],
             ["construct", rotation, "--prefix", "1000000000"],
             ["verify", rotation, "--prefix", "1000000"]):
    assert densfam.cli.main([*argv, "--out", out]) == 0
    loaded(argv[0])
"""


def test_commands_that_compute_no_chunk_never_load_numpy(tmp_path):
    # image, pack and construct over count-hinted members never compute a
    # chunk, so they run without numpy; verify's atoms are swept, so it
    # loads numpy, which shows the check can see it
    specs = []
    for name, doc in (("every_kind.json", EVERY_KIND), ("rotation.json", ROTATION_235)):
        (tmp_path / name).write_text(json.dumps(doc))
        specs.append(str(tmp_path / name))
    printed = run_fresh(COMMANDS_WITHOUT_CHUNKS, *specs, str(tmp_path / "report.json"))
    assert printed.splitlines() == ["import []", "load_spec []", "image []", "pack []",
                                    "construct []", "verify ['numpy']"]


POOL_SWEEP = """
import sys
from fractions import Fraction
from densfam import Family, kw_set, random_extension
from densfam.sets import CHUNK_BITS, window_counts

family = Family(("A0",), (kw_set(2, Fraction(3, 10)),), (Fraction(3, 10),))
windows = (CHUNK_BITS + 5, 3 * CHUNK_BITS + 17)
before = "numpy" in sys.modules
pooled = window_counts([random_extension(family, "A0", Fraction(1, 2), 7)[0]], windows, 2)
loaded = [m in sys.modules for m in ("numpy", "numpy.random")]
alone = window_counts([random_extension(family, "A0", Fraction(1, 2), 7)[0]], windows, 1)
print(before, loaded, pooled == alone)
"""


def test_pool_workers_inherit_numpy_from_the_parent():
    # the parent computes no chunk, so only the pool branch loads numpy
    # there, once, instead of in each forked worker
    assert run_fresh(POOL_SWEEP).split() == ["False", "[True,", "True]", "True"]
