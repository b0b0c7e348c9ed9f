"""Acceptance gate: the eleven product criteria, one test each.

Each criterion prints one PASS/FAIL line (visible with `pytest -v` through
the per-test verdicts, and directly when run as a script):

    python3 tests/test_acceptance.py
"""

import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import talex
from talex import charcurves as cc
from talex.fixtures import fixture_path
from talex.laurent import LaurentPoly
from talex.signature import (
    SeifertMatrix,
    averaged_signature,
    is_identically_zero,
    lt_signature,
)

import hlm_recursion as hlm
from conftest import P, TREFOIL_V, equal_up_to_even_shift, random_word


def _read(name):
    with open(fixture_path(name)) as fh:
        return fh.read()


@lru_cache(maxsize=None)
def _pres(name):
    if name.endswith(".pd"):
        return talex.pd_to_wirtinger(talex.parse_pd(_read(name)))
    return talex.parse_presentation(_read(name))


def _fixture_presentations():
    return [("3_1", _pres("3_1.pres")), ("9_35", _pres("9_35.pres")),
            ("8_20", _pres("8_20.pd"))]


@lru_cache(maxsize=None)
def _trefoil_sample_reps():
    """Twenty seeded irreducible trefoil representations on tr(ab) = 1."""
    p = _pres("3_1.pres")
    reps = []
    for k in range(20):
        y = 2.0 + 0.05 * k + 0.02j * (k % 3)
        cons = {p.word("a"): y, p.word("b"): y, p.word("ab"): 1.0 + 0j}
        reps.append(talex.solve_representation(p, cons, seed=k))
    return reps


@lru_cache(maxsize=None)
def _pretzel_sample_reps():
    """Solved 9_35 representations on both curve components."""
    pts = [(2.5 + 0j, 5.25 + 0j), (2.2 + 0.3j, (2.2 + 0.3j) ** 2 - 1.0),
           (1.0 + 0j, 1.0 + 0j)]
    _, cprime = cc.curve_components()
    pts.append(cc.census(cprime, 1).witnesses[0])
    return [cc.solve_on_curve(y0, z0) for y0, z0 in pts]


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


_RESULTS = []


def _record(num, label, elapsed):
    line = "PASS criterion %2d (%5.2fs): %s" % (num, elapsed, label)
    _RESULTS.append(line)
    print(line)


def criterion_01():
    """Alexander polynomials of the three fixtures, exact, < 1 s each."""
    want = {"3_1": P(1, -1, 1), "9_35": P(7, -13, 7),
            "8_20": P(1, -2, 3, -2, 1)}
    for name, p in _fixture_presentations():
        got, dt = _timed(lambda p=p: talex.alexander(p))
        assert got == want[name], name
        assert dt < 1.0, "alexander(%s) took %.2fs" % (name, dt)


def criterion_02():
    """Sixth trace polynomial equals the two-factor product exactly, < 1 s."""
    def check():
        quad, cubic = hlm.r6_factors()
        assert hlm.hlm_r(6) == quad * cubic
    _, dt = _timed(check)
    assert dt < 1.0, "factorization took %.2fs" % dt


def criterion_03():
    """Eliminant equals (y^2-z-1)^2 x cubic-quartic up to a rational scalar,
    by two-sided exact division, < 10 s."""
    from talex.multipoly import MultiPoly, exact_divide

    def check():
        res = hlm.resultant_curve()
        C, Cp = cc.curve_components()
        product = C.poly * C.poly * Cp.poly
        q1 = exact_divide(res, product)
        q2 = exact_divide(product, res)
        assert q1 is not None and q1.is_constant()
        assert q2 is not None and q2.is_constant()
        assert q1.constant_value() * q2.constant_value() == 1
    _, dt = _timed(check)
    assert dt < 10.0, "elimination took %.2fs" % dt


def criterion_04():
    """psi_2 certified on >= 20 solved representations; det A within 1e-6
    of x^3+6x^2+6x+5, and of 18 on the parabola component, < 30 s."""
    def check():
        cert = cc.certify_psi2(cc.curve_components(), seed=0)
        assert cert.samples >= 20
        assert cert.ok
        assert cert.max_det_error <= 1e-6
        for y0 in (2.5, 2.3 + 0.2j):
            rho = cc.solve_on_curve(y0, y0 * y0 - 1.0)
            assert abs(cc.leading_determinant_sample(rho) - 18) <= 1e-6
    _, dt = _timed(check)
    assert dt < 30.0, "certification took %.2fs" % dt


def criterion_05():
    """Census counts 6 (monic) and 2 (non-genus); identically 18 on C, < 1 s."""
    def check():
        C, Cp = cc.curve_components()
        assert cc.census(Cp, 1).count == 6
        assert cc.census(Cp, 0).count == 2
        assert cc.census(C, 18).identically_satisfied
    _, dt = _timed(check)
    assert dt < 1.0, "censuses took %.2fs" % dt


def criterion_06():
    """All six monic witnesses solve (residual <= 1e-8) with leading
    coefficient within 1e-5 of 1."""
    _, cprime = cc.curve_components()
    rows = cc.monic_witness_report(cc.census(cprime, 1))
    assert len(rows) == 6
    for row in rows:
        assert row["residual"] <= 1e-8
        lead = complex(row["leading"][0], row["leading"][1])
        assert abs(lead - 1) <= 1e-5
        assert row["monic"]


def criterion_07():
    """Twenty seeded irreducible trefoil representations, all monic of
    degree two."""
    p = _pres("3_1.pres")
    for rho in _trefoil_sample_reps():
        assert not rho.is_reducible()
        ta = talex.wada_invariant(p, rho)
        assert ta.polynomial is not None
        assert ta.degree == 2
        assert ta.monic


def criterion_08():
    """Wada at the diagonal abelian representation equals the reducible
    closed form exactly (up to the t^{2i} unit) for 10 random rational
    lambda on each fixture."""
    rng = np.random.default_rng(8)
    for name, p in _fixture_presentations():
        delta = talex.alexander(p)
        for _ in range(10):
            lam = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            if rng.random() < 0.5:
                lam = -lam
            ta = talex.wada_invariant(p, talex.abelian_rep(p, lam))
            rf = talex.reducible_formula(delta, lam)
            assert equal_up_to_even_shift(ta.value, rf), (name, lam)


def criterion_09():
    """Fox fundamental identity on all fixture relators and 100 random
    words; Wada column-independence across all removed columns."""
    for _, p in _fixture_presentations():
        for r in p.relators:
            assert talex.fundamental_identity_holds(r, p.num_generators)
    rng = np.random.default_rng(9)
    for _ in range(100):
        w = random_word(rng, 4, 20)
        assert talex.fundamental_identity_holds(w, 4)

    # exact column independence at an abelian representation
    for name, p in _fixture_presentations():
        rho = talex.abelian_rep(p, Fraction(3, 2))
        vals = [talex.wada_invariant(p, rho, removed=k).value
                for k in range(p.num_generators)]
        for v in vals[1:]:
            assert equal_up_to_even_shift(vals[0], v), name

    # numeric column independence at irreducible representations
    tre = _trefoil_sample_reps()[0]
    polys = [talex.wada_invariant(tre.presentation, tre, removed=k).polynomial
             for k in range(2)]
    assert talex.normalized_close(polys[0], polys[1], tol=1e-8)
    nine = _pretzel_sample_reps()[0]
    polys = [talex.wada_invariant(nine.presentation, nine, removed=k).polynomial
             for k in range(3)]
    for q in polys[1:]:
        assert talex.normalized_close(polys[0], q, tol=1e-8)


def criterion_10():
    """Signature values: sigma(-1) = -2 on the trefoil, sigma(1) = 0,
    evenness off the Alexander zero set, and the identically-zero split."""
    v31 = SeifertMatrix(TREFOIL_V)
    assert lt_signature(v31, -1.0) == -2
    assert lt_signature(v31, 1.0) == 0
    assert averaged_signature(v31, 1.0) == 0

    rng = np.random.default_rng(10)
    matrices = [v31,
                SeifertMatrix.from_text(_read("9_35.seifert")),
                SeifertMatrix.from_text(_read("8_20.seifert"))]
    for v in matrices:
        delta = v.alexander()
        done = 0
        while done < 100:
            w = np.exp(1j * float(rng.uniform(0.0, 2.0 * np.pi)))
            if abs(complex(delta.evaluate(w))) < 1e-9:
                continue
            assert lt_signature(v, w) % 2 == 0
            done += 1

    assert is_identically_zero(SeifertMatrix.from_text(_read("8_20.seifert")))
    assert not is_identically_zero(v31)


def criterion_11():
    """Coefficient symmetry psi_0 = psi_{4g-2} within 1e-6 and degree
    <= 4g-2 on sampled representations of both genus-one fixtures."""
    p31 = _pres("3_1.pres")
    samples = [(p31, rho) for rho in _trefoil_sample_reps()[:8]]
    samples += [(rho.presentation, rho) for rho in _pretzel_sample_reps()]
    for p, rho in samples:
        ta = talex.wada_invariant(p, rho)
        assert ta.polynomial is not None
        assert ta.degree <= 2  # 4g - 2 with g = 1
        psi = talex.coefficient_profile(ta, 1)
        assert abs(complex(psi[0]) - complex(psi[2])) <= 1e-6


_CRITERIA = [
    (1, criterion_01), (2, criterion_02), (3, criterion_03),
    (4, criterion_04), (5, criterion_05), (6, criterion_06),
    (7, criterion_07), (8, criterion_08), (9, criterion_09),
    (10, criterion_10), (11, criterion_11),
]


def _label(fn):
    return " ".join(fn.__doc__.split())


def _make_test(num, fn):
    def test():
        out, dt = _timed(fn)
        _record(num, _label(fn), dt)
    test.__doc__ = fn.__doc__
    return test


for _num, _fn in _CRITERIA:
    globals()["test_criterion_%02d" % _num] = _make_test(_num, _fn)


def main():
    failures = 0
    for num, fn in _CRITERIA:
        t0 = time.perf_counter()
        try:
            fn()
        except BaseException as exc:  # report and continue
            failures += 1
            print("FAIL criterion %2d (%5.2fs): %s [%s]"
                  % (num, time.perf_counter() - t0, _label(fn), exc))
        else:
            _record(num, _label(fn), time.perf_counter() - t0)
    print("%d/%d criteria passed" % (len(_CRITERIA) - failures, len(_CRITERIA)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
