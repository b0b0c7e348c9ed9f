"""Every name a talex module imports is read somewhere in that module.

No linter ships with the test dependencies, so this is the guard against
dead imports.  The package's own __init__.py is skipped: its imports are
the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import talex

PACKAGE = Path(talex.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py")
                 if p != PACKAGE / "__init__.py")


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
