"""Every name a talex module imports is read somewhere in that module, and
every module-level private name is read somewhere in the package.

No linter ships with the test dependencies, so this is the guard against
dead imports and dead helpers.  The package's own __init__.py is skipped
by the import check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import talex

PACKAGE = Path(talex.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p != PACKAGE / "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in read]


def test_modules_found():
    assert {"multipoly.py", "charcurves.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = ("from __future__ import annotations\n"
           "from math import comb, gcd\nimport numpy as np\nimport os.path\n"
           "def f(x: Fraction) -> int:\n    return gcd(x, os.sep)\n"
           "from fractions import Fraction\n")
    assert unused_imports(src) == ["comb (line 2)", "np (line 3)"]


def private_definitions(source: str) -> dict[str, int]:
    """Module-level _private functions, classes and constants: name -> line."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def names_read(source: str) -> set[str]:
    """Names a module loads, reads as attributes or imports from elsewhere."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_helpers(sources: dict[str, str]) -> list[str]:
    read = set().union(*(names_read(s) for s in sources.values()))
    return ["%s:%s (line %d)" % (module, name, line)
            for module, source in sorted(sources.items())
            for name, line in sorted(private_definitions(source).items())
            if name not in read]


def test_no_dead_private_helpers():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8")
               for p in SOURCES}
    assert dead_helpers(sources) == []


def test_detects_dead_helper():
    a = ("_LIMIT = 3\n_A, _B = 1, 2\n"
         "def _helper(x):\n    return x\n"
         "def _used():\n    return _A\n"
         "class _Box:\n    pass\n"
         "def public(p):\n    return _used() + p._attr\n")
    b = "from .a import _B\n_attr: int = _B\n"
    assert dead_helpers({"a.py": a, "b.py": b}) == [
        "a.py:_Box (line 7)", "a.py:_LIMIT (line 1)", "a.py:_helper (line 3)"]
