"""The three benchmark workloads.

Each workload is a closed loop with one caller.  Its constructor makes
the inputs from the benchmark seed and runs the self-checks that must
hold before anything is timed; ``rounds()`` yields lists of operation
arguments, the same list each round, so that every input runs several
times; ``op(arg)`` calls talex and returns its raw outputs, and only
``op`` is timed; ``check(arg, out)`` compares the outputs with closed
forms and returns the failures as strings; ``trace_metrics(outputs)``
gives the per-layer readings that only the outputs carry.

talex functions are looked up as module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction

from talex import (charcurves, cli, presentations, representations, signature,
                   twisted)
from talex.laurent import LaurentPoly

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_cli(cfg: cli.RunConfig) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(cfg)
    if status != 0:
        raise RuntimeError("talex %s exited with %d" % (cfg.command, status))
    return buf.getvalue()


def _mismatch(what: str, got, want) -> str:
    return "%s: got %r, want %r" % (what, got, want)


# -- pretzel935 ---------------------------------------------------------------

# The README's pipeline output, which every seed must reproduce.
CURVE_C = "y^2 - z - 1"
CURVE_CPRIME = ("y^4*z - 2*y^4 - 2*y^2*z^2 + 5*y^2*z - 2*y^2 + z^3 - 3*z^2 "
                "+ 3*z - 1")
PSI2 = "x^3 + 6*x^2 + 6*x + 5"

# The pipeline's cost depends strongly on its seed (seconds per run at
# talex seeds 0-3 differ by up to 2.6x), so every run covers this fixed
# list in whole rounds; the benchmark seed only picks where a round starts.
PRETZEL_SEEDS = (0, 1, 2, 3)


class Pretzel935:
    name = "pretzel935"

    def __init__(self, seed: int):
        self.start = seed % len(PRETZEL_SEEDS)
        charcurves.curve_components()      # fills the hlm_r trace cache

    def rounds(self):
        k = len(PRETZEL_SEEDS)
        while True:
            yield [PRETZEL_SEEDS[(self.start + i) % k] for i in range(k)]

    def op(self, talex_seed: int) -> str:
        return _run_cli(cli.RunConfig(command="pretzel935", seed=talex_seed,
                                      json_out=True))

    def check(self, talex_seed: int, out: str) -> list[str]:
        payload = json.loads(out)
        cert = payload["certification"]
        census = payload["censuses"]
        loop = payload["monic_loop"]
        want = [("C", payload["curves"]["C"], CURVE_C),
                ("C'", payload["curves"]["Cprime"], CURVE_CPRIME),
                ("psi2", payload["psi2"], PSI2),
                ("census on C", census["C"], "identically 18"),
                ("monic census", census["monic"]["count"], 6),
                ("non-genus census", census["non_genus"]["count"], 2),
                ("certificate ok", cert["ok"], True),
                ("certificate samples", cert["samples"], 20),
                ("closed loop", [r["monic"] for r in loop], [True] * 6)]
        return [_mismatch(w, g, v) for w, g, v in want if g != v]

    def trace_metrics(self, outputs: list[str]) -> dict[str, float]:
        """Worst certificate error over its tolerance, across the ops."""
        certs = [json.loads(out)["certification"] for out in outputs]
        return {"charcurves.cert_margin": max(
            (max(c["max_det_error"], c["max_trace_error"]) / c["tol"]
             for c in certs), default=0.0)}


# -- monic_scan ---------------------------------------------------------------

SWEEP_FILE = os.path.join(HERE, "trefoil_sweep.txt")
SWEEP_STEPS = 5
RESIDUAL_TOL = 1e-8


class MonicScan:
    """Trefoil sweep of tr(ab) across 0.8 .. 1.2 in five steps.

    Only the middle step, tr(ab) = 1, lies on the nonabelian character
    line, so four of five solves exhaust their restart budget.
    """

    name = "monic_scan"

    def __init__(self, seed: int):
        self.talex_seed = random.Random(seed).randrange(1 << 20)

    def rounds(self):
        while True:
            yield [self.talex_seed]

    def op(self, talex_seed: int) -> str:
        return _run_cli(cli.RunConfig(command="monic-scan",
                                      pres="fixtures/3_1.pres",
                                      constraints=SWEEP_FILE,
                                      seed=talex_seed, json_out=True))

    def check(self, talex_seed: int, out: str) -> list[str]:
        payload = json.loads(out)
        bad = []
        if payload["steps"] != SWEEP_STEPS:
            bad.append(_mismatch("steps", payload["steps"], SWEEP_STEPS))
        if payload["monic_steps"] != [2]:
            bad.append(_mismatch("monic steps", payload["monic_steps"], [2]))
        for row in payload["rows"]:
            if row["solved"] and not row["residual"] <= RESIDUAL_TOL:
                bad.append("step %d residual %r exceeds %g"
                           % (row["step"], row["residual"], RESIDUAL_TOL))
        return bad

    def trace_metrics(self, outputs: list[str]) -> dict[str, float]:
        return {}


# -- torus_exact --------------------------------------------------------------

TORUS_NS = (5, 9, 13, 17, 21)
EXACT_LAMBDA = Fraction(3, 2)
COMPLEX_TOL = 1e-8


def torus_pd(n: int) -> list[tuple[int, int, int, int]]:
    """PD code of the (2, n) torus knot: X[2k+1, 2k+1+n, 2k+2, 2k+2+n]."""
    def edge(e: int) -> int:
        return (e - 1) % (2 * n) + 1
    return [(edge(2 * k + 1), edge(2 * k + 1 + n), edge(2 * k + 2),
             edge(2 * k + 2 + n)) for k in range(n)]


def torus_alexander(n: int) -> LaurentPoly:
    """(t^n + 1) / (t + 1) = sum_k (-t)^k, normalized as talex returns it."""
    return LaurentPoly({k: Fraction((-1) ** k) for k in range(n)})


def torus_seifert(n: int) -> list[list[int]]:
    """Seifert matrix of T(2, n): -I plus ones on the superdiagonal."""
    return [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(n - 1)]
            for i in range(n - 1)]


def _normalized(p: LaurentPoly) -> LaurentPoly:
    p = p.shift(-p.min_exp())
    return -p if p.leading() < 0 else p


def _cross(a, b) -> tuple[LaurentPoly, LaurentPoly]:
    """a.num * b.den and b.num * a.den: equal iff a = b as fractions."""
    return a.num * b.den, b.num * a.den


class TorusExact:
    """One pass over T(2, n), n in TORUS_NS, on both determinant paths."""

    name = "torus_exact"

    def __init__(self, seed: int):
        self.knots = [(n, torus_pd(n), torus_seifert(n)) for n in TORUS_NS]
        for n, pd, _ in self.knots:
            got = twisted.alexander(presentations.pd_to_wirtinger(pd))
            if got != torus_alexander(n):
                raise AssertionError("generated T(2,%d) has Alexander "
                                     "polynomial %s" % (n, got.to_text()))
        # The exact twist's cost grows with the height of lambda (at
        # T(2,21) from 5.1 s at 1/2 to 8.1 s at 5/4), so the seed draws
        # only its sign; the complex path costs the same at any lambda.
        rng = random.Random(seed)
        self.lams = (EXACT_LAMBDA * rng.choice((1, -1)),
                     cmath.rect(rng.uniform(0.8, 1.25), rng.uniform(0.3, 2.8)))

    def rounds(self):
        while True:
            yield [self.lams]

    def op(self, lams: tuple[Fraction, complex]) -> list[dict]:
        lam_q, lam_c = lams
        clock = time.perf_counter
        out = []
        for n, pd, rows in self.knots:
            p = presentations.pd_to_wirtinger(pd)
            t0 = clock()
            delta = twisted.alexander(p)
            t1 = clock()
            exact = twisted.wada_invariant(
                p, representations.abelian_rep(p, lam_q))
            t2 = clock()
            cplx = twisted.wada_invariant(
                p, representations.abelian_rep(p, lam_c))
            t3 = clock()
            v = signature.SeifertMatrix(rows)
            out.append({"n": n, "delta": delta, "exact": exact, "complex": cplx,
                        "seifert": v.alexander(),
                        "sigma": signature.lt_signature(v, -1),
                        "jumps": signature.signature_jumps(v),
                        "times": {"alexander": t1 - t0, "wada_exact": t2 - t1,
                                  "wada_complex": t3 - t2}})
        return out

    def check(self, lams: tuple[Fraction, complex], out: list[dict]
              ) -> list[str]:
        lam_q, lam_c = lams
        bad = []
        for r in out:
            n, delta = r["n"], r["delta"]
            tag = "T(2,%d)" % n
            if delta != torus_alexander(n):
                bad.append(_mismatch(tag + " alexander", delta.to_text(),
                                     torus_alexander(n).to_text()))
            if _normalized(r["seifert"]) != delta:
                bad.append(_mismatch(tag + " Seifert route",
                                     r["seifert"].to_text(), delta.to_text()))
            if r["sigma"] != -(n - 1):
                bad.append(_mismatch(tag + " sigma(-1)", r["sigma"], -(n - 1)))
            if len(r["jumps"]) != n - 1:
                bad.append(_mismatch(tag + " jumps", len(r["jumps"]), n - 1))
            lhs, rhs = _cross(r["exact"].value,
                              representations.reducible_formula(delta, lam_q))
            shift = lhs.min_exp() - rhs.min_exp()
            if shift % 2 or lhs.shift(-shift) != rhs:
                bad.append("%s exact twist at %s differs from the reducible "
                           "formula" % (tag, lam_q))
            lhs, rhs = _cross(r["complex"].value,
                              representations.reducible_formula(delta, lam_c))
            if not twisted.normalized_close(lhs, rhs, tol=COMPLEX_TOL):
                bad.append("%s complex twist at %r differs from the reducible "
                           "formula by more than %g" % (tag, lam_c, COMPLEX_TOL))
        return bad

    def trace_metrics(self, outputs: list[list[dict]]) -> dict[str, float]:
        """Inclusive time of each step at each T(2, n), per pass."""
        out: dict[str, float] = {}
        for passes in outputs:
            for row in passes:
                for step, dt in row["times"].items():
                    key = "twisted.%s_s.n%d" % (step, row["n"])
                    out[key] = out.get(key, 0.0) + dt / len(outputs)
        return out


WORKLOADS = {w.name: w for w in (Pretzel935, MonicScan, TorusExact)}
