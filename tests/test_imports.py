"""Every name a package module, script or test file imports is used in
that file, and every private module-level name is read somewhere in the
package.

No linter is a test dependency, so this reads the sources with the
standard ``ast`` module.  ``__init__.py`` is skipped for imports: its
imports are the package's exports.
"""

import ast
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
