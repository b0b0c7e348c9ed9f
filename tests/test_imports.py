"""Every name a talex module imports is read somewhere in that module,
every module-level private name is read somewhere in the package, every
defaulted parameter of a module-level function or public method is set by
some caller, every public function or method is referred to by some
caller, and every packaged fixture file is named by some source or test.

No linter ships with the test dependencies, so this is the guard against
dead imports, dead helpers, knobs that no caller turns and public code
that nothing calls.  The package's own __init__.py is skipped by the
import check and as a caller: its imports are the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import talex

PACKAGE = Path(talex.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
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


def defaulted_parameters(source: str) -> dict[str, tuple[str, str, list]]:
    """Map "function(param)" or "Class.method(param)" to (the name a call
    uses, param, the parameters that positional arguments fill) for each
    parameter with a default of a module-level function, public or
    private, or of a public or __init__ method of a public class.  A call
    names __init__ by its class.  Dataclass fields are not covered."""
    out = {}

    def visit(fn, owner):
        a = fn.args
        pos = a.posonlyargs + a.args
        named = [x.arg for x in pos[len(pos) - len(a.defaults):]]
        named += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
        if owner and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
            pos = pos[1:]           # self or cls
        qual = owner + "." + fn.name if owner else fn.name
        callee = owner if fn.name == "__init__" else fn.name
        for name in named:
            out["%s(%s)" % (qual, name)] = (callee, name,
                                            [x.arg for x in pos])

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            visit(node, None)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    visit(item, node.name)
    return out


def unset_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """The defaulted parameters that no call in callers supplies, by
    keyword or by position.  Calls are matched by the called name alone,
    and a call that splats *args or **kwargs supplies everything."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def supplies(call, param, positional):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if any(isinstance(x, ast.Starred) for x in call.args):
            return True
        return param in positional and positional.index(param) < len(call.args)

    return ["%s:%s" % (module, knob)
            for module, source in sorted(sources.items())
            for knob, (callee, param, positional)
            in sorted(defaulted_parameters(source).items())
            if not any(supplies(c, param, positional)
                       for c in calls.get(callee, []))]


# Defaulted parameters that no caller in the package or the benchmark sets,
# each with the reason it stays a parameter.
ALLOWED = {
    "cli.py:main(argv)":
        "None reads sys.argv, as the console entry point needs; tests pass "
        "argv",
    "laurent.py:LaurentPoly.t(k)": "data: the exponent of t^k",
    "laurent.py:LaurentPoly.from_coefficients(min_exp)":
        "data: the exponent of the first coefficient",
    "representations.py:solve_representation(restarts)":
        "tests pin solver trajectories with small restart budgets",
    "representations.py:solve_representation(require_irreducible)":
        "tests reach reducible representations, as at Burde-de Rham points",
    "twisted.py:alexander(removed)":
        "the column-independence criterion removes each column in turn",
    "twisted.py:wada_invariant(removed)":
        "the column-independence criterion removes each column in turn",
}


def test_every_default_is_set_by_a_caller():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8")
               for p in SOURCES}
    callers = list(sources.values()) + [
        p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    unset = unset_defaults(sources, callers)
    assert [k for k in unset if k not in ALLOWED] == []
    assert [k for k in ALLOWED if k not in unset] == []    # no stale entry
    assert all(reason.strip() for reason in ALLOWED.values())


def test_detects_unset_default():
    a = ("def f(x, tol=1e-6, *, steps=3):\n    return x\n"
         "def g(p, q=0):\n    return p\n"
         "def _private(r=1):\n    return r\n"
         "class Box:\n"
         "    def __init__(self, v, w=2):\n        self.v = v\n"
         "    def scaled(self, k=1, m=0):\n        return self.v * k\n"
         "    @staticmethod\n    def make(u, n=5):\n        return u\n"
         "class _Hidden:\n    def go(self, z=0):\n        return z\n")
    b = ("from a import Box, f, g\n"
         "f(1, steps=4)\ng(1, *[2])\nBox(1, 2).scaled(3)\nBox.make(1)\n")
    assert unset_defaults({"a.py": a}, [a, b]) == [
        "a.py:Box.make(n)", "a.py:Box.scaled(m)", "a.py:_private(r)",
        "a.py:f(tol)"]


def public_functions(source: str) -> dict[str, ast.FunctionDef]:
    """Map "function" or "Class.method" to its def, for the public
    module-level functions and the public methods of public classes."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    out[node.name + "." + item.name] = item
    return out


def references(source: str, strings: bool) -> list[tuple[str, int, bool]]:
    """(name, line, as an attribute) of every loaded name and attribute,
    and with strings of every part of a string constant, as the tracer
    names what it wraps; the parts of a dotted string count as
    attributes."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            dotted = "." in node.value
            out += [(part, node.lineno, dotted)
                    for part in node.value.split(".")]
    return out


def uncalled(sources: dict[str, str], others: list[str]) -> list[str]:
    """The public functions and methods of sources that no code refers to
    by name outside their own def, in sources or in others (where strings
    count too).  Names are matched alone, as unset_defaults does, but a
    method only through an attribute or a dotted string: a bare name that
    equals a method's is some local variable."""
    refs = {module: references(source, False)
            for module, source in sources.items()}
    outside = {(name, attr) for source in others
               for name, _, attr in references(source, True)}

    def called(module, qual, fn):
        kinds = (True,) if "." in qual else (True, False)
        return any((fn.name, attr) in outside for attr in kinds) or any(
            name == fn.name and attr in kinds and not (
                where == module and fn.lineno <= line <= fn.end_lineno)
            for where, found in refs.items() for name, line, attr in found)

    return ["%s:%s" % (module, qual)
            for module, source in sorted(sources.items())
            for qual, fn in sorted(public_functions(source).items())
            if not called(module, qual, fn)]


# Public functions and methods that nothing in the package or the benchmark
# calls, each with the reason it stays.
UNCALLED_ALLOWED = {
    "words.py:fundamental_identity_holds":
        "independent check of the Fox calculus, run by the acceptance and "
        "prefix-scan property tests",
    "multipoly.py:MultiPoly.constant_value":
        "reads the value of a constant polynomial, which the exact "
        "resultant and elimination tests compare",
    "representations.py:Representation.conjugate":
        "a character is conjugation-invariant; tests move representations "
        "by random conjugations",
    "representations.py:closed_form_representation":
        "the closed form alone, without the solver fallback of "
        "representation_from_traces, for tests that pin a gauge",
    "laurent.py:has_simple_root":
        "the Burde-de Rham curve check needs m^2 to be a simple root of "
        "delta, and is its caller-to-be",
    "representations.py:burde_derham_check":
        "the Burde-de Rham curve check needs delta(m^2) = 0, and is its "
        "caller-to-be",
}


def test_every_public_function_has_a_caller():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8")
               for p in MODULES}
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    found = uncalled(sources, bench)
    assert [k for k in found if k not in UNCALLED_ALLOWED] == []
    assert [k for k in UNCALLED_ALLOWED if k not in found] == []   # no stale
    assert all(reason.strip() for reason in UNCALLED_ALLOWED.values())


def test_detects_uncalled_function():
    a = ("def f(n):\n    return f(n - 1) if n else g()\n"
         "def g():\n    return Box().used()\n"
         "def traced():\n    return 0\n"
         "def _private():\n    return 0\n"
         "class Box:\n"
         "    def used(self):\n        return self.idle\n"
         "    def idle(self):\n        return 0\n"
         "    def lonely(self):\n        return self.lonely()\n"
         "    def shadowed(self):\n        return 0\n"
         "    def spanned(self):\n        return 0\n"
         "class _Hidden:\n    def go(self):\n        return 0\n")
    b = ("import a\na.f(3)\nSPANS = ('a.traced', 'g', 'Box.spanned')\n"
         "shadowed = 1\nprint(shadowed, 'lonely')\n")
    assert uncalled({"a.py": a}, [b]) == ["a.py:Box.lonely", "a.py:Box.shadowed"]
    assert uncalled({"a.py": a}, []) == [
        "a.py:Box.lonely", "a.py:Box.shadowed", "a.py:Box.spanned", "a.py:f",
        "a.py:traced"]


def test_every_fixture_file_is_named_by_a_source_or_test():
    """The fixtures docstring promises that every corpus file is certified
    by a cross-check; a file that no code names cannot be."""
    code = "".join(p.read_text(encoding="utf-8")
                   for p in SOURCES + sorted(TESTS.rglob("*.py")))
    data = sorted(p.name for p in (PACKAGE / "fixtures").iterdir()
                  if p.is_file() and p.suffix != ".py")
    assert data
    assert [name for name in data if name not in code] == []


# Modules that importing the CLI must not load: each costs start-up time and
# memory in every process, and talex needs none of them to start.
HEAVY = ("numpy.random", "scipy", "sympy", "hypothesis")


def test_cli_import_leaves_heavy_modules_unloaded():
    code = ("import sys, talex.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))" % (HEAVY,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.stdout.split() == []
