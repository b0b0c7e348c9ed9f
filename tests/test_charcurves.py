"""The pretzel-knot character-variety computation end to end."""

import cmath
import hashlib
import json
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex import charcurves as cc
from talex import multipoly
from talex._sl2 import (_Equations, _mat_adjugate, _mat_det, _mat_mul,
                        _residual)
from talex.cli import main
from talex.errors import AlgebraError, CertificationError, SolveError
from talex.laurent import LaurentPoly
from talex.matrix import det
from talex.multipoly import MultiPoly, exact_divide, resultant
from talex.representations import (Representation, _det_one_on_trace_rows,
                                   abelian_rep, solve_representation)
from talex.twisted import fox_matrix_laurent, wada_invariant

import hlm_recursion as hlm
from conftest import same_coefficients

YZ = ("y", "z")
YZW = ("y", "z", "w")


def mk(vars, terms):
    return MultiPoly(vars, {k: Fraction(v) for k, v in terms.items()})


def quad_slice_factor():
    # w^2 - wy + y^2 - 2, exponents ordered (y, z, w)
    return mk(YZW, {(0, 0, 2): 1, (1, 0, 1): -1, (2, 0, 0): 1, (0, 0, 0): -2})


def cubic_slice_factor():
    # w^3 - w^2 y + w y^2 - y
    return mk(YZW, {(0, 0, 3): 1, (1, 0, 2): -1, (2, 0, 1): 1, (1, 0, 0): -1})


def curve_c_poly():
    return mk(YZ, {(2, 0): 1, (0, 1): -1, (0, 0): -1})  # y^2 - z - 1


def curve_cprime_poly():
    return mk(YZ, {
        (4, 1): 1, (4, 0): -2, (2, 2): -2, (2, 1): 5, (2, 0): -2,
        (0, 3): 1, (0, 2): -3, (0, 1): 3, (0, 0): -1,
    })


class TestTraceRecursion:
    def test_base_cases(self):
        r2 = hlm.hlm_r(2)
        assert hlm.hlm_r(0).is_zero()
        assert hlm.hlm_r(1) == MultiPoly.constant(r2.vars, 1)

    def test_third_term(self):
        r3 = hlm.hlm_r(3)
        v = MultiPoly.var(r3.vars, "v")
        y1 = MultiPoly.var(r3.vars, "y1")
        y2 = MultiPoly.var(r3.vars, "y2")
        assert r3 == v * v + y2 * y2 - y1 * y2 * v - 1

    def test_out_of_range(self):
        with pytest.raises(AlgebraError):
            hlm.hlm_r(-1)
        with pytest.raises(AlgebraError):
            hlm.hlm_r(7)

    def test_r6_is_the_two_factor_product(self):
        quad, cubic = hlm.r6_factors()
        assert hlm.hlm_r(6) == quad * cubic

    def test_r6_factors_divide_the_cleared_form(self):
        cleared = hlm.hlm_r6_cleared()
        quad, cubic = hlm.r6_factors()
        assert not cleared.has_negative_exponents()
        rest = exact_divide(cleared, quad)
        assert rest is not None
        assert exact_divide(rest, cubic) is not None


class TestSliceAndElimination:
    def test_slice_is_the_factored_product(self):
        assert hlm.slice_b_minus_one() == quad_slice_factor() * cubic_slice_factor()

    @staticmethod
    def _slice(p, y1, v_sign):
        y = MultiPoly.var(YZW, "y")
        w = MultiPoly.var(YZW, "w")
        return p.compose({"y1": y1, "y2": y, "v": w * v_sign},
                         MultiPoly.zero(YZW))

    def test_slice_does_not_depend_on_the_sign_of_y1(self):
        # b = y1^2 - 2 = -1 has the two branches y1 = 1 (w = v) and
        # y1 = -1 (w = -v); both give the same slice.
        cleared = hlm.hlm_r6_cleared()
        assert self._slice(cleared, -1, -1) == hlm.slice_b_minus_one()
        # an odd residual power of y1 would break that symmetry
        odd = cleared + MultiPoly.var(cleared.vars, "y1")
        assert self._slice(odd, -1, -1) != self._slice(odd, 1, 1)

    def test_eliminate_w_requires_the_yzw_variables(self):
        q = hlm.second_equation()
        with pytest.raises(AlgebraError):
            hlm.eliminate_w(hlm.hlm_r6_cleared(), q)
        with pytest.raises(AlgebraError):
            hlm.eliminate_w(q, MultiPoly.var(("y", "w"), "w"))

    def test_second_equation_variables(self):
        q = hlm.second_equation()
        assert set(q.vars) == {"y", "z", "w"}

    def test_eliminate_w_matches_component_product(self):
        res = hlm.resultant_curve()
        c2cp = (curve_c_poly() ** 2) * curve_cprime_poly()
        q1 = exact_divide(res, c2cp)
        q2 = exact_divide(c2cp, res)
        assert q1 is not None and q1.is_constant()
        assert q2 is not None and q2.is_constant()

    def test_component_split(self):
        C, Cp = cc.curve_components()
        assert C.poly == curve_c_poly()
        assert Cp.poly == curve_cprime_poly()

    def test_parabola_points_satisfy_the_resultant(self):
        res = hlm.resultant_curve()
        for y0 in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            val = res.evaluate({"y": y0, "z": y0 * y0 - 1})
            assert val == 0

    def test_curves_are_data(self, monkeypatch):
        cached = cc.curve_components()

        def eliminate(*args):
            raise AssertionError("curve_components ran an elimination")

        monkeypatch.setattr(cc, "exact_divide", eliminate)
        monkeypatch.setattr(cc, "resultant", eliminate, raising=False)
        monkeypatch.setattr(multipoly, "resultant", eliminate)
        fresh = cc.curve_components.__wrapped__()
        assert fresh == cached
        for curve in fresh:
            assert list(curve.poly.terms) == sorted(curve.poly.terms,
                                                    reverse=True)


# The knot group of 9_35 over Z[m^{+-1}, u^{+-1}, s]: a and b in the gauge
# (m, 1; 0, 1/m) and (m, 0; u, 1/m), so that y = tr a = m + 1/m and
# z = tr ab = m^2 + u + m^-2, and c = (s, c21/u; c21, y - s) with
# c21 = z - m s - (y - s)/m, so that tr c = y and tr bc = tr ca = z.
MUS = ("m", "u", "s")


def _cleared(p):
    """p times the Laurent monomial that makes its least exponent in each
    variable 0: negative powers cleared, monomial factors divided out."""
    return p * MultiPoly(MUS, {tuple(-p.min_exponent_in(v) for v in MUS): 1})


def _gauge_traces():
    """y = m + 1/m and z = m^2 + u + m^-2 over (m, u, s)."""
    m, u = MultiPoly.var(MUS, "m"), MultiPoly.var(MUS, "u")
    return m + m ** -1, m * m + u + m ** -2


def _on_the_gauge(curve):
    """A polynomial over (y, z) as a polynomial in (m, u), cleared."""
    y, z = _gauge_traces()
    return _cleared(curve.compose({"y": y, "z": z}, MultiPoly.zero(MUS)))


def _known_factors():
    """C^2, (z - 2)^2 and C' on the gauge: (1 - u)^2, D^2 with
    D = m^2 (z - 2), and m^2 C'(m + 1/m, z)."""
    C, Cp = cc.curve_components()
    reducible = _on_the_gauge(MultiPoly.var(YZ, "z") - 2)
    return (_on_the_gauge(C.poly) ** 2, reducible ** 2,
            _on_the_gauge(Cp.poly))


@lru_cache(maxsize=None)
def _gauge_generators():
    m, u, s = (MultiPoly.var(MUS, v) for v in MUS)
    one, zero = MultiPoly.constant(MUS, 1), MultiPoly.zero(MUS)
    y, z = _gauge_traces()
    c21 = z - m * s - (y - s) * m ** -1
    return ((m, one, zero, m ** -1), (m, zero, u, m ** -1),
            (s, c21 * u ** -1, c21, y - s))


@lru_cache(maxsize=None)
def _relator_resultants():
    """Res_s(e, det c - 1) over the 8 entries e of r - I, for both relators
    r of 9_35.pres, each cleared of negative powers.  An inverse letter is
    the adjugate, which is the inverse where det c = 1."""
    gens = _gauge_generators()
    det_c = _cleared(_mat_det(gens[2]) - 1)
    out = []
    for relator in cc.pretzel935_presentation().relators:
        image = (1, 0, 0, 1)
        for letter in relator.tietze:
            g = gens[abs(letter) - 1]
            image = _mat_mul(image, g if letter > 0 else _mat_adjugate(g))
        for entry, identity in zip(image, (1, 0, 0, 1)):
            out.append(resultant(_cleared(entry - identity), det_c, "s"))
    return tuple(out)


class TestCurvesFromThePresentation:
    """C and C' derived from the knot group: every relator entry's
    resultant is divisible by C^2, by the reducible locus z = 2 squared and
    by C', and no third curve remains."""

    def test_the_gauge_meets_the_traces(self):
        a, b, c = _gauge_generators()
        m, u = MultiPoly.var(MUS, "m"), MultiPoly.var(MUS, "u")
        y, z = _gauge_traces()
        assert _mat_det(a) == 1 and _mat_det(b) == 1
        assert [g[0] + g[3] for g in (a, b, c)] == [y, y, y]
        assert [_mat_mul(g, h)[0] + _mat_mul(g, h)[3]
                for g, h in ((a, b), (b, c), (c, a))] == [z, z, z]
        c_sq, reducible_sq, _ = _known_factors()
        assert c_sq == (-u + 1) ** 2
        assert reducible_sq == (m ** 4 + m * m * u - 2 * m * m + 1) ** 2

    def test_each_curve_lies_on_the_variety(self):
        c_sq, reducible_sq, cprime = _known_factors()
        for res in _relator_resultants():
            assert not res.is_zero()
            for factor in (c_sq, reducible_sq, cprime):
                assert exact_divide(res, factor) is not None
            assert exact_divide(res, cprime * cprime) is None

    def test_no_third_curve(self):
        # the cofactors of two entries share no zero with m != 0: their
        # resultant in u is a nonzero monomial in m alone
        c_sq, reducible_sq, cprime = _known_factors()
        known = c_sq * reducible_sq * cprime
        cofactors = [exact_divide(res, known)
                     for res in _relator_resultants()[:2]]
        assert None not in cofactors
        rest = resultant(*map(_cleared, cofactors), "u")
        assert len(rest.terms) == 1
        (ex, _), = rest.terms.items()
        assert ex[1:] == (0, 0)


class TestPlaneCurves:
    def test_evaluate_and_slice(self):
        C, Cp = cc.curve_components()
        assert C.evaluate(Fraction(3), Fraction(8)) == 0
        assert abs(Cp.evaluate(1.0, 1.0)) < 1e-12
        assert abs(Cp.evaluate(-1.0, 1.0)) < 1e-12
        zs = C.z_values(2.0)
        assert len(zs) == 1 and abs(zs[0] - 3.0) < 1e-10

    @pytest.mark.parametrize("which", [0, 1])
    def test_slice_is_the_composed_slice_bit_for_bit(self, which,
                                                     monkeypatch):
        curve = cc.curve_components()[which]
        slices = []

        def spy(p, *args, **kwargs):
            slices.append(p)
            return complex_roots(p, *args, **kwargs)

        complex_roots = cc.complex_roots
        monkeypatch.setattr(cc, "complex_roots", spy)
        rng = np.random.default_rng(11)
        for _ in range(40):
            y0 = complex(3 * rng.standard_normal(), 2 * rng.standard_normal())
            del slices[:]
            curve.z_values(y0)
            composed = curve.poly.compose({"y": y0, "z": LaurentPoly.t()},
                                          LaurentPoly.zero()).cleanup()
            assert len(slices) == 1
            assert same_coefficients(slices[0], composed.coeffs)

    def test_requires_the_curve_variables(self):
        with pytest.raises(AlgebraError):
            cc.PlaneCurve(MultiPoly.var(("a", "b"), "a"), name="bogus")

    def test_sample_points_slice_lazily_in_the_eager_rng_order(self,
                                                              monkeypatch):
        _, Cp = cc.curve_components()
        rng = np.random.default_rng(5)
        ys = [complex(2.2 + 0.8 * rng.standard_normal(),
                      0.8 * rng.standard_normal()) for _ in range(16)]
        eager = [(y0, z0) for y0 in ys for z0 in Cp.z_values(y0)]
        after_draws = rng.standard_normal()

        sliced = []
        z_values = cc.PlaneCurve.z_values
        monkeypatch.setattr(cc.PlaneCurve, "z_values",
                            lambda self, y0: sliced.append(y0)
                            or z_values(self, y0))
        rng = np.random.default_rng(5)
        points = cc._curve_sample_points(Cp, rng, budget=16)
        first = next(points)
        assert sliced == ys[:1]
        # every y0 was drawn before the first point came out
        assert rng.standard_normal() == after_draws
        assert [first] + list(points) == eager
        assert sliced == ys


def _sl2(a, b, c):
    return [a, b, c, (1 + b * c) / a]


_small_complex = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
_sl2_matrix = st.builds(_sl2, _small_complex.filter(lambda a: abs(a) >= 0.1),
                        _small_complex, _small_complex)


def _check_leading_against_determinant(rho):
    """leading_determinant_sample against the t^4 coefficient of det of the
    Laurent Fox matrix, to 1e-9 of the Hadamard bound of A."""
    mat = fox_matrix_laurent(rho.presentation, rho, 2)
    a = np.array([[complex(e[1]) for e in row] for row in mat])
    scale = max(1.0, float(np.prod(np.linalg.norm(a, axis=1))))
    ref = complex(det(mat)[4])
    assert abs(cc.leading_determinant_sample(rho) - ref) <= 1e-9 * scale


class TestPsi2:
    def test_closed_form(self):
        x = MultiPoly.var(("x",), "x")
        assert cc.psi2_polynomial() == x ** 3 + 6 * x ** 2 + 6 * x + 5

    def test_built_once_and_never_changed(self, capsys):
        psi = cc.psi2_polynomial()
        text = psi.to_text()
        assert main(["pretzel935", "--json"]) == 0
        capsys.readouterr()
        assert cc.psi2_polynomial() is psi
        assert psi.to_text() == text == "x^3 + 6*x^2 + 6*x + 5"

    def test_value_on_the_parabola_component(self):
        # on C, x = y^2 - z = 1, and psi2(1) = 18
        p = cc.psi2_polynomial()
        assert p.evaluate({"x": Fraction(1)}) == 18

    def test_certification_on_sampled_representations(self):
        cert = cc.certify_psi2(cc.curve_components(), seed=1)
        assert cert.ok
        assert cert.samples >= 6
        assert cert.max_det_error <= 1e-6
        assert cert.max_trace_error <= 1e-6
        assert cert.to_json_dict()["samples"] == cert.samples

    def test_a_nan_determinant_fails_the_certificate(self, monkeypatch):
        monkeypatch.setattr(cc, "leading_determinant_sample",
                            lambda rho: complex(float("nan"), 0.0))
        with pytest.raises(CertificationError, match="det error inf"):
            cc.certify_psi2(cc.curve_components(), seed=0)

    def test_a_nan_trace_fails_the_trace_table(self, p935_curve_rep):
        mats = [list(m) for m in p935_curve_rep.matrices]
        mats[0][0] = complex(float("nan"), 0.0)
        rho = Representation(p935_curve_rep.presentation, mats)
        assert cc.trace_table_residual(rho, 1.0) == float("inf")

    def test_certificate_json_shape(self):
        # built by hand: the solve is covered above and by criterion 4
        d = cc.Psi2Certificate(samples=3, max_det_error=2e-6,
                               max_trace_error=0.0, tol=1e-6).to_json_dict()
        assert d == {"samples": 3, "max_det_error": 2e-6,
                     "max_trace_error": 0.0, "tol": 1e-6, "ok": False}

    def test_detA_equals_psi2_at_a_generic_point(self, p935_curve_rep):
        lead = cc.leading_determinant_sample(p935_curve_rep)
        assert abs(lead - 18) < 1e-6

    def test_detA_at_x_zero_point(self):
        # (y, z) = (1, 1) lies on the second component with x = 0
        rho = cc.solve_on_curve(1.0, 1.0)
        lead = cc.leading_determinant_sample(rho)
        assert abs(lead - 5) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_sl2_matrix, min_size=3, max_size=3))
    def test_detA_is_the_t4_coefficient_of_the_twisted_determinant(
            self, mats):
        # any SL(2,C) triple, not only representations: every Fox entry of
        # the presentation is linear in t whatever rho is
        rho = Representation(cc.pretzel935_presentation(), mats, 1.0)
        _check_leading_against_determinant(rho)

    def test_detA_of_an_exact_representation(self):
        rho = abelian_rep(cc.pretzel935_presentation(), Fraction(3, 2))
        _check_leading_against_determinant(rho)

    @pytest.mark.parametrize("lam", [Fraction(2), 0.9 + 0.45j])
    def test_entry_beyond_t1_raises(self, trefoil, lam):
        # abaBAB: the Fox derivative in a holds the prefix ab, so t^2 occurs
        rho = abelian_rep(trefoil, lam)
        with pytest.raises(AlgebraError, match="not linear in t"):
            cc.leading_determinant_sample(rho)


# sha256 of json.dumps(census(curve, c).to_json_dict(), sort_keys=True):
# on C' at c = 4, where the slice x0 = -1 is y^2 and its double root y0 = 0
# is one witness (count 5), at c = 5 (the root x0 = 0), 49 and a complex c,
# and on C at a complex c, where every slice is a nonzero constant (count 0,
# three degenerate roots).  The pretzel935 command reaches none of them.
CENSUS_JSON_SHA256 = {
    ("Cprime", 4):
        "c51a71ad82ad69cf05b796315437d26404d2ef43ad761a7de32935434f31a00f",
    ("Cprime", 5):
        "0d27afdd647357161dd6c8e6ca0a2bc15f5ddb966a2fea8ae114bde5156c2834",
    ("Cprime", 49):
        "b2029f107400b7c6517b5639a9535a64b932823836014001a3fccb1bbc1f5267",
    ("Cprime", 0.3 + 0.7j):
        "600c42e6b797735d18805ad49908bba1fea93e3eb3a42cbd3cfe48e1b9ed655e",
    ("C", 2 + 1j):
        "b12f6b1a5fa647c6e456d311dd4f5f2140698e9e114ac900a50914e6fec267e4",
}

_census_values = st.one_of(
    st.sampled_from([0, 1, 4, 5, 18, 49, 0.3 + 0.7j]),
    st.builds(complex, st.floats(-60, 60), st.floats(-60, 60)))


class TestCensus:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1]), _census_values)
    def test_slices_are_the_mixed_slices_bit_for_bit(self, which, c):
        # census's all-complex slice at each x0 with psi_2(x0) = c against
        # the exact curve under the exact t and the mixed t^2 - x0
        curve = cc.curve_components()[which]
        t = LaurentPoly.t()
        psi = cc.psi2_polynomial().compose({"x": t}, LaurentPoly.zero())
        for x0, _ in cc._roots_with_zero(psi - c):
            mixed = curve.poly.compose({"y": t, "z": t * t - x0},
                                       LaurentPoly.zero())
            assert same_coefficients(
                cc._x_slice(curve, x0),
                {k: complex(v) for k, v in mixed.coeffs.items()})

    def test_monic_census(self):
        _, Cp = cc.curve_components()
        res = cc.census(Cp, 1)
        assert res.count == 6
        assert not res.identically_satisfied
        assert len(res.witnesses) == 6
        assert res.degenerate_roots == []

    def test_vanishing_census_has_degenerate_roots(self):
        _, Cp = cc.curve_components()
        res = cc.census(Cp, 0)
        assert res.count == 2
        assert len(res.witnesses) == 2
        assert len(res.degenerate_roots) == 2
        for r in res.degenerate_roots:
            assert abs(r * r + r + 1) < 1e-8
        for y0, z0 in res.witnesses:
            assert abs(abs(y0.imag) - 1.7457431218879391) < 1e-8
            assert abs(z0 - 1.952380952380952) < 1e-8

    def test_root_x0_zero_counts(self):
        # psi_2(x) - 5 = x(x^2 + 6x + 6), and on x0 = 0 the slice of C' is
        # y^2 - 1, so (y, z) = (+-1, 1) are characters.
        _, Cp = cc.curve_components()
        res = cc.census(Cp, 5)
        assert res.count == 6
        assert res.degenerate_roots == []
        for y0 in (1, -1):
            assert any(abs(y - y0) + abs(z - 1) < 1e-9
                       for y, z in res.witnesses)

    def test_slice_root_y0_zero_counts(self):
        # psi_2(-1) = 4, and on x0 = -1 the slice of C' is y^2: a double
        # root at y0 = 0, the character (0, 1), not a degenerate slice.
        _, Cp = cc.curve_components()
        res = cc.census(Cp, 4)
        assert res.count == 5
        assert res.degenerate_roots == []
        assert any(abs(y) + abs(z - 1) < 1e-9 for y, z in res.witnesses)

    def test_identically_satisfied_on_parabola(self):
        C, _ = cc.curve_components()
        res = cc.census(C, 18)
        assert res.identically_satisfied
        assert res.count is None
        assert res.witnesses == []

    def test_empty_census(self):
        C, _ = cc.curve_components()
        res = cc.census(C, 1)
        assert res.count == 0
        assert res.witnesses == []

    def test_witness_residuals(self):
        _, Cp = cc.curve_components()
        res = cc.census(Cp, 1)
        psi2 = cc.psi2_polynomial()
        for y0, z0 in res.witnesses:
            assert abs(Cp.evaluate(y0, z0)) <= 1e-8
            x0 = y0 * y0 - z0
            assert abs(psi2.evaluate({"x": x0}) - 1) <= 1e-8

    def test_float_c_coerced(self):
        _, Cp = cc.curve_components()
        assert cc.census(Cp, 1.0 + 0j).count == 6

    @pytest.mark.parametrize("name, c", list(CENSUS_JSON_SHA256),
                             ids=["%s-%s" % key for key in CENSUS_JSON_SHA256])
    def test_json_bytes_are_pinned(self, name, c):
        curve, = (k for k in cc.curve_components() if k.name == name)
        blob = json.dumps(cc.census(curve, c).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            CENSUS_JSON_SHA256[name, c]

    def test_json_shape(self):
        _, Cp = cc.curve_components()
        d = cc.census(Cp, 0).to_json_dict()
        assert d["count"] == 2
        assert not d["identically_satisfied"]
        assert len(d["witnesses"]) == 2
        assert len(d["degenerate_roots"]) == 2


class TestSolveOnCurve:
    def test_trace_targets_met(self, p935_curve_rep):
        resid = cc.trace_table_residual(p935_curve_rep, 1.0)
        assert resid <= 1e-6

    def test_witness_invariant_bundle(self):
        rho = cc.solve_on_curve(2.5, 2.5 ** 2 - 1.0)
        ta = wada_invariant(rho.presentation, rho)
        assert rho.relator_residual() <= 1e-8
        assert ta.polynomial is not None

    def test_monic_witness_loop(self):
        _, Cp = cc.curve_components()
        rows = cc.monic_witness_report(cc.census(Cp, 1))
        assert len(rows) == 6
        for row in rows:
            assert row["residual"] <= 1e-8
            lead = complex(row["leading"][0], row["leading"][1])
            assert abs(lead - 1) <= 1e-5
            assert row["monic"]

    def test_presentation_is_parsed_once(self):
        assert cc.pretzel935_presentation() is cc.pretzel935_presentation()

    def test_witnesses_share_one_tietze_reduction(self, monkeypatch):
        import talex.presentations as presentations
        calls = []
        real_tietze = presentations._tietze

        def counting_tietze(p, keep):
            calls.append(keep)
            return real_tietze(p, keep)

        monkeypatch.setattr(presentations, "_tietze", counting_tietze)
        cc.pretzel935_presentation.cache_clear()
        _, Cp = cc.curve_components()
        rows = cc.monic_witness_report(cc.census(Cp, 1))
        assert len(rows) == 6
        assert calls == [2]

    def test_witness_residual_is_checked_before_the_determinant(
            self, monkeypatch):
        # a witness over the residual bound fails without a twisted
        # determinant being formed for it
        solve = cc.solve_on_curve

        def off_by_a_millionth(y0, z0):
            rho = solve(y0, z0)
            rho.residual = 1e-6
            return rho

        def no_determinant(*args, **kwargs):
            raise AssertionError("wada_invariant was called")

        monkeypatch.setattr(cc, "solve_on_curve", off_by_a_millionth)
        monkeypatch.setattr(cc, "wada_invariant", no_determinant)
        _, Cp = cc.curve_components()
        with pytest.raises(CertificationError,
                           match="residual 1e-06 exceeds 1e-08"):
            cc.monic_witness_report(cc.census(Cp, 1))

    def test_monic_witness_loop_reports_the_given_census(self):
        _, Cp = cc.curve_components()
        monic = cc.census(Cp, 1)
        rows = cc.monic_witness_report(monic)
        reported = [(complex(*r["y"]), complex(*r["z"])) for r in rows]
        assert reported == list(monic.witnesses)


def _newton_on_curve(y0, z0, seed):
    """The Newton solve that solve_on_curve's closed form replaces."""
    return solve_representation(cc.pretzel935_presentation(),
                                cc.curve_constraints(y0, z0), seed=seed,
                                restarts=60)


def _equation_residual(rho, y0, z0):
    """max|f| over the solver's relator, det and trace rows at rho."""
    pres = rho.presentation
    eq = _Equations(pres, {pres.word(w): v for w, v
                           in cc.curve_constraints(y0, z0).items()})
    a, q, _, _ = rho.matrices[0]
    b, _, d, _ = rho.matrices[1]
    c = rho.matrices[2]
    return float(np.max(np.abs(_residual(eq, np.array([a, q, b, d, *c])))))


def _construction_points():
    """The sampled acceptance points (two on C, two on C') and the six
    monic witnesses on C'."""
    _, cprime = cc.curve_components()
    witnesses = cc.census(cprime, 1).witnesses
    return [(2.5 + 0j, 5.25 + 0j), (2.2 + 0.3j, (2.2 + 0.3j) ** 2 - 1.0),
            (1.0 + 0j, 1.0 + 0j), witnesses[0]] + list(witnesses)


# The region certify_psi2 samples y0 from: two standard deviations around
# the centre 2.2 of _curve_sample_points' draws.
_sampled_y0 = st.builds(complex, st.floats(0.6, 3.8), st.floats(-1.6, 1.6))


class TestClosedFormConstruction:
    @pytest.mark.parametrize("k", range(10))
    def test_matches_the_newton_representation(self, k):
        y0, z0 = _construction_points()[k]
        rho = cc.solve_on_curve(y0, z0)
        # the seeds the Newton path used: i for the i-th acceptance point,
        # i for the i-th witness
        newton = _newton_on_curve(y0, z0, seed=k if k < 4 else k - 4)
        assert abs(cc.leading_determinant_sample(rho)
                   - cc.leading_determinant_sample(newton)) <= 1e-9
        for word, _ in cc.TRACE_TABLE:
            w = rho.presentation.word(word)
            assert abs(complex(rho.trace(w))
                       - complex(newton.trace(newton.presentation.word(word)))
                       ) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(_sampled_y0, st.sampled_from([0, 1]))
    def test_solves_on_both_curves(self, y0, which):
        curve = cc.curve_components()[which]
        for z0 in curve.z_values(y0):
            rho = cc.solve_on_curve(y0, z0)
            assert _equation_residual(rho, y0, z0) <= 1e-10
            assert not rho.is_reducible()

    @pytest.mark.parametrize("which, solving", [(0, 2), (1, 1)])
    def test_roots_that_solve(self, which, solving):
        # Both det-1 roots, the two values of tr(abc), are representations
        # on C; on C' the relators pick one of them.
        y0 = 1.3 + 0.4j
        for z0 in cc.curve_components()[which].z_values(y0):
            a = (y0 + cmath.sqrt(y0 * y0 - 4)) / 2
            d = z0 - a * a - 1 / (a * a)
            cands = _det_one_on_trace_rows(
                [(1, 0, 0, 1), (a, 0, d, 1 / a), (a, 1, 0, 1 / a)],
                [y0, z0, z0])
            pres = cc.pretzel935_presentation()
            eq = _Equations(pres, {pres.word(w): v for w, v
                                   in cc.curve_constraints(y0, z0).items()})
            worst = [np.max(np.abs(_residual(eq, np.array([a, 1, a, d, *c]))))
                     for c in cands]
            assert sum(w <= 1e-10 for w in worst) == solving

    @pytest.mark.parametrize("y0, z0, reason", [
        (2.5, 1.0, "no irreducible representation"),
        (2.5, 2.5 ** 2 - 2.0, "do not cut"),
        (2.0, 2.0, "do not cut"),
        (1.3 + 0.4j, (1.3 + 0.4j) ** 2 - 2.0, "do not cut")])
    def test_off_curve_and_reducible_points_raise(self, y0, z0, reason):
        # (2.5, 1) is on neither curve.  tr(ab) = y0^2 - 2 makes d = 0: B
        # is diagonal and det C = 1 holds on the whole line of C.
        with pytest.raises(SolveError, match=reason) as info:
            cc.solve_on_curve(y0, z0)
        assert info.value.restarts == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_burde_de_rham_points_are_reported_reducible(self, sign):
        # m^2 a root of Delta = 7t^2 - 13t + 7, y = m + 1/m = +-sqrt(27/7)
        # and z = y^2 - 2: C' meets the reducible characters there (C' at
        # x = 2 is 7y^2 - 27), and d = 0 makes a, b reducible.
        m = sign * cmath.sqrt((13 + 1j * 27 ** 0.5) / 14)
        y0 = m + 1 / m
        z0 = y0 * y0 - 2
        _, Cp = cc.curve_components()
        assert abs(Cp.evaluate(y0, z0)) <= 1e-12
        with pytest.raises(SolveError,
                           match="the pair a, b is reducible") as info:
            cc.solve_on_curve(y0, z0)
        assert info.value.restarts == 0

    def test_pairwise_reducible_point_on_c_is_irreducible(self):
        # C meets the pairwise reducible characters (tr[a, b] = 2) where
        # z = 2, but there the three images share no eigenvector.
        y0, z0 = 3 ** 0.5, 2.0
        rho = cc.solve_on_curve(y0, z0)
        assert _equation_residual(rho, y0, z0) <= 1e-10
        assert not rho.is_reducible()
        a, b, _ = (np.array(m).reshape(2, 2) for m in rho.matrices)
        comm = a @ b @ np.linalg.inv(b @ a)
        assert abs(np.trace(comm) - 2) <= 1e-12

    def test_non_finite_point_raises(self):
        with pytest.raises(SolveError):
            cc.solve_on_curve(float("nan"), 1.0)

    def test_pipeline_runs_without_the_solver(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssertionError("solve_representation was called")

        for name, mod in list(sys.modules.items()):
            if name == "talex" or name.startswith("talex."):
                if getattr(mod, "solve_representation", None) \
                        is solve_representation:
                    monkeypatch.setattr(mod, "solve_representation", boom)
        assert main(["pretzel935", "--json"]) == 0
        assert capsys.readouterr().err == ""
