"""Spans and counters recorded around talex calls, for the traced run.

Nothing inside talex is changed.  The tracer wraps public functions from
the outside: talex modules bind each other's functions with
``from .x import f``, so a function is replaced at every talex module
attribute that refers to it, not only where it is defined (``det`` is
looked up in ``twisted``, ``charcurves``, ``signature`` and ``matrix``).
Methods are replaced on their class.  ``Tracer.installed()`` puts every
original binding back when it exits.

A span is ``[name, start, end, parent, ok, op]``: ``parent`` indexes the
enclosing span (-1 at top level), ``ok`` is False when the call raised
and ``op`` numbers the benchmark operation that caused it.  Spans stay in
memory until the run writes them out.  The hot methods (about 275k calls
per pretzel pipeline) are counted instead of spanned.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

import talex  # noqa: F401  (loads every talex module the specs name)
from talex.laurent import LaurentPoly
from talex.matrix import SquareMatrix
from talex.multipoly import MultiPoly

# (module, attribute, span name); the span name is the metric stem.
SPANNED = (
    ("talex.representations", "solve_representation", "representations.solve"),
    ("talex.matrix", "det", "matrix.det"),
    ("talex.twisted", "wada_invariant", "twisted.wada_invariant"),
    ("talex.twisted", "fox_matrix_laurent", "twisted.fox_matrix_laurent"),
    ("talex.twisted", "alexander", "twisted.alexander"),
    ("talex.words", "fox_derivative", "words.fox_derivative"),
    ("talex.signature", "SeifertMatrix.alexander", "signature.alexander"),
    ("talex.signature", "lt_signature", "signature.lt_signature"),
    ("talex.signature", "signature_jumps", "signature.signature_jumps"),
    ("talex.charcurves", "certify_psi2", "charcurves.certify_psi2"),
    ("talex.charcurves", "monic_witness_report",
     "charcurves.monic_witness_report"),
    ("talex.charcurves", "census", "charcurves.census"),
    ("talex.charcurves", "curve_components", "charcurves.curve_components"),
    ("talex.charcurves", "leading_determinant_sample",
     "charcurves.leading_determinant_sample"),
    ("talex.multipoly", "resultant", "multipoly.resultant"),
    ("talex.multipoly", "exact_divide", "multipoly.exact_divide"),
    ("talex.roots", "complex_roots", "roots.complex_roots"),
    ("talex.presentations", "pd_to_wirtinger", "presentations.pd_to_wirtinger"),
    ("talex.presentations", "parse_presentation",
     "presentations.parse_presentation"),
    ("talex._threads", "ordered_map", "threads.ordered_map"),
    ("talex.cli", "run", "cli.run"),
)

COUNTED = (
    ("talex.laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("talex.laurent", "LaurentPoly.__truediv__", "laurent.div"),
    ("talex.representations", "Representation.image", "representations.image"),
)

# Spans whose call count is a per-layer metric.
CALL_COUNTS = ("representations.solve", "matrix.det", "words.fox_derivative",
               "charcurves.curve_components", "multipoly.exact_divide",
               "roots.complex_roots")

DET_DOMAINS = ("exact", "float", "multi")


def det_domain(rows) -> str:
    """The entry domain that selects det()'s algorithm."""
    if isinstance(rows, SquareMatrix):
        rows = rows.rows
    for row in rows:
        for e in row:
            if isinstance(e, MultiPoly):
                return "multi"
            if isinstance(e, LaurentPoly):
                if not e.is_exact():
                    return "float"
            elif isinstance(e, (float, complex)):
                return "float"
    return "exact"


def _talex_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "talex" or name.startswith("talex."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        for module, attr, name in SPANNED:
            classify = det_domain if name == "matrix.det" else None
            self._plan(module, attr, lambda fn, name=name, classify=classify:
                       self._span(name, fn, classify))
        for module, attr, name in COUNTED:
            self._plan(module, attr, lambda fn, name=name:
                       self._count(name, fn))

    def _plan(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            self._bindings.append((cls, meth, orig, make(orig)))
            return
        orig = getattr(owner, attr)
        wrapper = make(orig)
        for mod in _talex_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._bindings.append((mod, key, orig, wrapper))

    def _span(self, name, fn, classify):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if classify is None else name + "." + classify(args[0])
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, False, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                rec[4] = True
                return out
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrap every planned binding for one operation, then restore."""
        self.op = op
        try:
            for target, key, _, wrapper in self._bindings:
                setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, orig, _ in self._bindings:
                setattr(target, key, orig)
            self._stack.clear()

    def restored(self) -> bool:
        return all(vars(target)[key] is orig
                   for target, key, orig, _ in self._bindings)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation self times, call counts and ratios by layer."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        solve_ok = 0
        for (name, start, end, _, ok, _), c in zip(self.spans, child):
            own = (end - start) - c
            calls[name] += 1
            self_s[name] += own
            if name.startswith("matrix.det."):
                calls["matrix.det"] += 1
            if name == "representations.solve":
                self_s["representations.solve_ok" if ok
                       else "representations.solve_fail"] += own
                solve_ok += ok
        out = {}
        for _, _, name in SPANNED:
            if name != "matrix.det":
                out[name + "_s"] = self_s[name] / n_ops
        for name in CALL_COUNTS:
            out[name + "_calls"] = calls[name] / n_ops
        for _, _, name in COUNTED:
            out[name + "_calls"] = self.counts[name] / n_ops
        for dom in DET_DOMAINS:
            out["matrix.det_%s_s" % dom] = self_s["matrix.det." + dom] / n_ops
        for key in ("representations.solve_ok", "representations.solve_fail"):
            out[key + "_s"] = self_s[key] / n_ops
        solves = calls["representations.solve"]
        out["representations.solve_ok_frac"] = solve_ok / solves if solves else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ok", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
