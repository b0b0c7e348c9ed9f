"""Exact and floating Laurent polynomials and rational functions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex.errors import AlgebraError, NonPolynomialError
from talex.laurent import (
    LaurentPoly,
    LaurentRational,
    has_simple_root,
    poly_gcd,
    squarefree_decomposition,
)

from conftest import CP, P


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = LaurentPoly({0: Fraction(0), 1: Fraction(2)})
        assert 0 not in p.coeffs
        assert p == LaurentPoly({1: Fraction(2)})

    def test_exactness_detection(self):
        assert P(1, 2).is_exact()
        assert not CP(1, 2).is_exact()

    def test_missing_coefficient_is_typed_zero(self):
        assert P(1)[5] == Fraction(0)
        assert isinstance(P(1)[5], Fraction)
        assert CP(1)[5] == 0j

    def test_constructors(self):
        assert LaurentPoly.t() == P(0, 1)
        assert LaurentPoly.t(-2) == LaurentPoly({-2: Fraction(1)})
        assert LaurentPoly.one() == P(1)
        assert LaurentPoly.zero().is_zero()
        assert LaurentPoly.constant(Fraction(3, 2)) == P(Fraction(3, 2))
        assert LaurentPoly.from_coefficients([1, 2], min_exp=-1) == P(1, 2, min_exp=-1)


class TestDegreeSpan:
    def test_degree_is_exponent_span(self):
        assert P(5).degree() == 0
        assert LaurentPoly({2: Fraction(1), -1: Fraction(1)}).degree() == 3

    def test_zero_has_no_exponent_range(self):
        with pytest.raises(AlgebraError):
            LaurentPoly.zero().degree()
        with pytest.raises(AlgebraError):
            LaurentPoly.zero().min_exp()

    def test_extremes_and_leading(self):
        p = LaurentPoly({-1: Fraction(2), 3: Fraction(-7)})
        assert p.min_exp() == -1
        assert p.max_exp() == 3
        assert p.leading() == Fraction(-7)
        assert p.trailing() == Fraction(2)


class TestArithmetic:
    def test_basic_identities(self):
        t = LaurentPoly.t()
        assert (t + 1) * (t - 1) == t * t - 1
        assert (t + 1) ** 2 == t * t + 2 * t + 1
        assert (2 * t).scale(Fraction(1, 2)) == t
        assert P(1, 1).shift(3) == LaurentPoly({3: Fraction(1), 4: Fraction(1)})

    def test_negative_power_rejected(self):
        # inverses exist only for monomials; spell those with t(-k)
        with pytest.raises(AlgebraError):
            LaurentPoly.t() ** -1

    def test_degree_additivity_for_products(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = _random_exact(rng)
            q = _random_exact(rng)
            assert (p * q).degree() == p.degree() + q.degree()

    def test_mixed_exactness_promotes_to_float(self):
        assert not (P(1, 1) + CP(1)).is_exact()
        assert not (P(1, 1) * CP(0, 1)).is_exact()

    def test_evaluate(self):
        p = P(7, -13, 7)
        assert p.evaluate(Fraction(1)) == Fraction(1)
        assert p.evaluate(Fraction(2)) == Fraction(9)
        assert abs(p.evaluate(1j) - (-13j)) < 1e-12
        q = LaurentPoly({-1: Fraction(1)})
        assert q.evaluate(Fraction(2)) == Fraction(1, 2)

    def test_derivative(self):
        p = LaurentPoly({2: Fraction(3), -1: Fraction(1)})
        assert p.derivative() == LaurentPoly({1: Fraction(6), -2: Fraction(-1)})

    def test_substitute_power_and_compose_scale(self):
        p = P(1, 0, 1)  # 1 + t^2
        assert p.substitute_power(2) == P(1, 0, 0, 0, 1)
        q = p.compose_scale(Fraction(2))  # 1 + 4 t^2
        assert q == P(1, 0, 4)

    def test_reversed_variable(self):
        p = P(1, -2, 3)
        r = p.reversed_variable()
        assert r == LaurentPoly({0: Fraction(1), -1: Fraction(-2), -2: Fraction(3)})
        palindrome = P(7, -13, 7)
        assert palindrome.reversed_variable().shift(2) == palindrome


class TestDivision:
    def test_exact_quotient(self):
        t = LaurentPoly.t()
        assert (t * t - 1) / (t - 1) == t + 1
        q, r = (t * t - 1).divmod_poly(t + 2)
        assert q * (t + 2) + r == t * t - 1
        assert r == P(3)

    def test_inexact_quotient_raises(self):
        t = LaurentPoly.t()
        with pytest.raises(NonPolynomialError):
            (t * t + 1) / (t - 1)

    def test_division_by_zero_raises(self):
        with pytest.raises((AlgebraError, ZeroDivisionError)):
            P(1) / LaurentPoly.zero()

    def test_division_respects_laurent_units(self):
        p = LaurentPoly({-1: Fraction(1), 1: Fraction(1)})  # t^-1 + t
        assert p / LaurentPoly.t(-1) == P(1, 0, 1)


class TestCleanup:
    def test_relative_threshold(self):
        p = LaurentPoly({0: 1e6 + 0j, 1: 1e-8 + 0j, 2: 1.0 + 0j})
        cleaned = p.cleanup(1e-10)
        assert 1 not in cleaned.coeffs  # 1e-8 is below 1e-10 * 1e6
        assert 2 in cleaned.coeffs

    def test_exact_input_unchanged(self):
        p = P(1, Fraction(1, 10 ** 30))
        assert p.cleanup(1e-10) == p


nonzero_exact = st.dictionaries(
    st.integers(-8, 8),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
    min_size=1, max_size=6).map(LaurentPoly)


class TestUnitNormal:
    @settings(deadline=None)
    @given(nonzero_exact, st.integers(-10, 10), st.sampled_from([1, -1]))
    def test_invariant_under_units(self, p, k, sign):
        n = p.unit_normal()
        assert (p.shift(k) * sign).unit_normal() == n
        assert n.min_exp() == 0
        assert n.leading() > 0
        assert n.shift(p.min_exp()) in (p, -p)

    def test_examples(self):
        assert P(-7, 13, -7, min_exp=-3).unit_normal() == P(7, -13, 7)
        assert LaurentPoly.one().unit_normal() == LaurentPoly.one()

    def test_rejects_float_and_zero(self):
        with pytest.raises(AlgebraError):
            CP(1, 2).unit_normal()
        with pytest.raises(AlgebraError):
            LaurentPoly.zero().unit_normal()


class TestSerialization:
    def test_exact_round_trip(self):
        p = LaurentPoly({-2: Fraction(-3, 7), 4: Fraction(5)})
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p

    def test_complex_round_trip(self):
        p = LaurentPoly({0: 1.5 - 2.5j, 3: 0.25j})
        q = LaurentPoly.from_json_dict(p.to_json_dict())
        assert all(abs(q[k] - p[k]) < 1e-15 for k in p.coeffs)

    def test_text_rendering(self):
        assert P(7, -13, 7).to_text() == "7*t^2 - 13*t + 7"
        assert P(1, -1, 1).to_text() == "t^2 - t + 1"
        assert P(5).to_text() == "5"
        assert LaurentPoly.zero().to_text() == "0"
        assert LaurentPoly({-1: Fraction(1)}).to_text() == "t^-1"


class TestGcdAndSquarefree:
    def test_gcd_of_shared_factor(self):
        f = P(1, -1, 1)
        g = poly_gcd(f * f * P(-1, 2), f * P(3, 1))
        assert g == f  # monic normalization

    def test_gcd_of_coprime_is_one(self):
        assert poly_gcd(P(1, 1), P(1, 0, 1)) == P(1)

    def test_gcd_requires_exact_input(self):
        with pytest.raises(AlgebraError):
            poly_gcd(CP(1, 1), P(1, 1))

    def test_squarefree_decomposition(self):
        f = P(1, -1, 1)
        g = P(-1, 2)  # 2t - 1
        p = f ** 3 * g
        parts = squarefree_decomposition(p)
        assert (P(Fraction(-1, 2), 1), 1) in parts
        assert (f, 3) in parts
        # product of factor^mult reconstructs p up to the leading unit
        prod = P(1)
        for factor, mult in parts:
            prod = prod * factor ** mult
        assert prod.scale(p.leading() / prod.leading()) == p


class TestHasSimpleRoot:
    def test_examples(self):
        assert has_simple_root(P(7, -13, 7))
        f = P(1, -1, 1)
        assert not has_simple_root(f * f)
        assert has_simple_root(f ** 3 * P(-1, 2))

    def test_constants_have_no_roots(self):
        assert not has_simple_root(P(5))

    def test_zero_rejected(self):
        with pytest.raises(AlgebraError):
            has_simple_root(LaurentPoly.zero())

    def test_floating_input_uses_clustered_roots(self):
        # (t-2)^2 (t-5) has a simple root at 5; the cluster radius must sit
        # above the numerical splitting of the double root (~1e-8)
        p = CP(-20, 24, -9, 1)
        assert has_simple_root(p, cluster_radius=1e-6)
        # (t-2)^2 alone does not
        assert not has_simple_root(CP(4, -4, 1), cluster_radius=1e-6)


class TestLaurentRational:
    def test_reduction_on_construction(self):
        f = P(1, -1, 1)
        r = LaurentRational(f * P(1, 1), f * P(2, 1))
        assert r.num == P(1, 1)
        assert r.den == P(2, 1)

    def test_denominator_normalized_monic_at_zero(self):
        r = LaurentRational(P(2), P(0, 4))
        assert r.den == P(1)  # the t^1 unit and the scalar move to num
        assert r.num == LaurentPoly({-1: Fraction(1, 2)})

    def test_polynomial_detection(self):
        f = P(1, 0, 1)
        g = P(1, 1)
        assert LaurentRational(f * g, g).attempt_polynomial() == f
        assert LaurentRational(f, g).attempt_polynomial() is None
        assert not LaurentRational(f, g).is_polynomial()

    def test_cross_multiplied_equality(self):
        a = LaurentRational(P(1, 1), P(1, 0, 1))
        b = LaurentRational(P(2, 2), P(2, 0, 2))
        assert a == b

    def test_zero_denominator_rejected(self):
        with pytest.raises(AlgebraError):
            LaurentRational(P(1), LaurentPoly.zero())

    def test_evaluate(self):
        r = LaurentRational(P(1, 0, 1), P(0, 1))
        assert r.evaluate(Fraction(2)) == Fraction(5, 2)


def _random_exact(rng):
    while True:
        lo = int(rng.integers(-3, 3))
        coeffs = {lo + k: Fraction(int(rng.integers(-5, 6)))
                  for k in range(int(rng.integers(1, 5)))}
        p = LaurentPoly(coeffs)
        if not p.is_zero():
            return p
