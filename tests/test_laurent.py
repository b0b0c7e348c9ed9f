"""Exact and floating Laurent polynomials and rational functions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talex import _zt
from talex.errors import AlgebraError, NonPolynomialError
from talex.laurent import (
    LaurentPoly,
    LaurentRational,
    has_simple_root,
    squarefree_decomposition,
)
from talex.roots import _sturm_chain

from conftest import (CP, P, ref_add, ref_evaluate, ref_mul, ref_neg,
                      ref_pow, same_coefficients, same_number,
                      square_and_multiply)


_image_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-3, 3).filter(lambda v: abs(v) >= 0.01))
_complex_points = st.builds(complex, _image_parts, _image_parts).filter(
    lambda x: x != 0)


class TestComplexImage:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-3, 5), st.fractions(
        min_value=-50, max_value=50, max_denominator=7), max_size=6),
        _complex_points)
    def test_evaluate_is_bit_identical(self, coeffs, x):
        p = LaurentPoly(coeffs)
        image = p.to_complex()
        assert list(image.coeffs) == list(p.coeffs)
        assert all(type(c) is complex for c in image.coeffs.values())
        assert image.is_exact() == p.is_zero()
        assert same_number(image.evaluate(x), p.evaluate(x))


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

    def test_monomial_powers(self):
        m = LaurentPoly({-2: Fraction(3, 2)})
        assert m ** 3 == LaurentPoly({-6: Fraction(27, 8)}) == m * m * m
        assert m ** 0 == LaurentPoly.one()
        z = LaurentPoly({1: 0.3 + 1.1j})
        assert abs((z ** 5 - z * z * z * z * z)[5]) < 1e-12

    def test_equality_with_non_numbers(self):
        one = LaurentPoly.one()
        assert (one == None) is False  # noqa: E711
        assert one != "1" and one != [1]
        assert one == 1 and one == Fraction(1) and one == 1.0

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

    def test_negative_power_at_zero_is_an_algebra_error(self):
        p = LaurentPoly({-1: Fraction(1), 0: Fraction(2)})
        for zero in (Fraction(0), 0, 0j):
            with pytest.raises(AlgebraError, match="negative power"):
                p.evaluate(zero)
        assert P(2, 3).evaluate(0) == Fraction(2)

    def test_derivative(self):
        p = LaurentPoly({2: Fraction(3), -1: Fraction(1)})
        assert p.derivative() == LaurentPoly({1: Fraction(6), -2: Fraction(-1)})

    def test_substitute_power_and_compose_scale(self):
        p = P(1, 0, 1)  # 1 + t^2
        assert p.substitute_power(2) == P(1, 0, 0, 0, 1)
        q = p.compose_scale(Fraction(2))  # 1 + 4 t^2
        assert q == P(1, 0, 4)


class TestExactEvaluate:
    """evaluate at an exact point, one integer Horner sum over _zt.split's
    list, against the Fraction sum taken term by term."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(-6, 6), st.fractions(
               min_value=-9, max_value=9, max_denominator=12), max_size=6),
           st.one_of(st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
                     st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9,
                                  max_denominator=12)))
    def test_equals_the_term_by_term_sum(self, coeffs, x):
        p = LaurentPoly(coeffs)
        if x == 0 and any(k < 0 for k in p.coeffs):
            with pytest.raises(AlgebraError, match="negative power"):
                p.evaluate(x)
            return
        total = Fraction(0)
        for k, c in p.coeffs.items():
            total += c * Fraction(x) ** k
        got = p.evaluate(x)
        assert type(got) is Fraction and got == total


exact_laurent = st.dictionaries(
    st.integers(-4, 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    max_size=4).map(LaurentPoly)


class TestRingAxiomProperties:
    @settings(deadline=None)
    @given(exact_laurent, exact_laurent, exact_laurent)
    def test_associative_and_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p

    @settings(deadline=None)
    @given(exact_laurent, exact_laurent, exact_laurent)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(deadline=None)
    @given(exact_laurent)
    def test_additive_inverse(self, p):
        assert p + (-p) == LaurentPoly.zero()
        assert (p + (-p)).is_zero()


_mixed_coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.floats(min_value=0.1, max_value=6),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=6))
mixed_laurent = st.dictionaries(st.integers(-4, 4), _mixed_coefficients,
                                max_size=4).map(LaurentPoly)


class TestDomainFlag:
    """is_exact() is decided at construction; it must still say whether
    every stored coefficient is a Fraction."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_laurent, mixed_laurent, st.integers(0, 3),
           st.integers(-5, 5), _mixed_coefficients)
    def test_flag_matches_the_coefficients(self, p, q, n, k, c):
        results = [p, q, p + q, p - q, p * q, p + c, c - p, -p, p ** n,
                   p.shift(k), p.scale(c), p.cleanup(), p.derivative(),
                   LaurentPoly.from_json_dict(p.to_json_dict())]
        if not q.is_zero():
            quot = LaurentRational(p, q).attempt_polynomial()
            if quot is not None:
                results.append(quot)
        for r in results:
            assert r.is_exact() == all(isinstance(x, Fraction)
                                       for x in r.coeffs.values())

    def test_cancelled_complex_terms_leave_an_exact_polynomial(self):
        p = LaurentPoly({0: Fraction(1), 1: 2j}) + LaurentPoly({1: -2j})
        assert p.coeffs == {0: Fraction(1)} and p.is_exact()


# Coefficients of the three domain shapes, complex parts including +-0.0.
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-6, 6, allow_subnormal=False))
_complexes = st.builds(complex, _parts, _parts)
_exponents = st.integers(-3, 3)
domain_laurent = st.one_of(
    st.dictionaries(_exponents, _fractions, max_size=4),
    st.dictionaries(_exponents, _complexes, max_size=4),
    st.dictionaries(_exponents, st.one_of(_fractions, _complexes),
                    max_size=4)).map(LaurentPoly)
# points away from 0, where negative powers overflow
_point_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 6),
                         st.floats(-6, -0.01))
_points = st.one_of(_fractions.filter(bool),
                    st.builds(complex, _point_parts, _point_parts).filter(bool))


class TestAgainstReferenceLoops:
    """+, -, *, ** and evaluate against a copy of the pairwise loops in
    which every Fraction meets a complex through Fraction's own operators:
    the same keys in the same order, the same coefficient types, the same
    bits, on exact, all-complex and mixed operands."""

    @settings(max_examples=300, deadline=None)
    @given(domain_laurent, domain_laurent)
    def test_ring_operations(self, p, q):
        a, b = p.coeffs, q.coeffs
        assert same_coefficients(p + q, ref_add(a, b))
        assert same_coefficients(p - q, ref_add(a, ref_neg(b)))
        assert same_coefficients(p * q, ref_mul(a, b))
        assert same_coefficients(q * p, ref_mul(b, a))
        for r in (p + q, p - q, p * q):
            assert r.is_exact() == all(type(c) is Fraction
                                       for c in r.coeffs.values())

    @settings(max_examples=150, deadline=None)
    @given(domain_laurent, st.integers(0, 4))
    def test_powers(self, p, n):
        assert same_coefficients(p ** n, ref_pow(p.coeffs, n))

    @settings(max_examples=200, deadline=None)
    @given(domain_laurent.filter(lambda p: len(p.coeffs) != 1),
           st.integers(0, 6))
    def test_powers_are_the_square_and_multiply_products(self, p, n):
        # a monomial's power is c ** n on its one coefficient instead
        power = p ** n
        assert same_coefficients(
            power, square_and_multiply(LaurentPoly.one(), p, n).coeffs)
        if p.is_exact():
            product = LaurentPoly.one()
            for _ in range(n):
                product = product * p
            assert power == product

    @settings(max_examples=300, deadline=None)
    @given(domain_laurent, _points)
    def test_evaluate(self, p, x):
        assert same_number(p.evaluate(x), ref_evaluate(p.coeffs, x))


class TestDivision:
    def test_exact_quotient(self):
        t = LaurentPoly.t()
        assert (t * t - 1) / (t - 1) == t + 1

    def test_inexact_quotient_raises(self):
        t = LaurentPoly.t()
        with pytest.raises(NonPolynomialError):
            (t * t + 1) / (t - 1)

    def test_inexact_complex_quotient_raises(self):
        with pytest.raises(NonPolynomialError):
            CP(1, 0, 1) / CP(-1, 1)
        with pytest.raises(NonPolynomialError):
            P(1, 0, 1) / CP(-1, 1)
        q = CP(-1, 0, 1) / CP(-1, 1)
        assert abs(q[0] - 1) < 1e-12 and abs(q[1] - 1) < 1e-12

    def test_division_by_zero_raises(self):
        with pytest.raises((AlgebraError, ZeroDivisionError)):
            P(1) / LaurentPoly.zero()

    def test_division_respects_laurent_units(self):
        p = LaurentPoly({-1: Fraction(1), 1: Fraction(1)})  # t^-1 + t
        assert p / LaurentPoly.t(-1) == P(1, 0, 1)


# Floating quotients q with a nonzero lowest coefficient, and denominators
# whose roots sit where division at the samples could fail: on the
# unrotated grid (t^2 - 1 at even N), on the unit circle (t^2 + 1, and
# t^2 - T t + 1 for real T in (-2, 2)), far off it (|T| up to 1e7), or
# nowhere (a constant).
_q_parts = st.floats(-4, 4, allow_subnormal=False)
_q_lowest = st.builds(complex, st.floats(0.5, 4), _q_parts)
_float_quotients = st.builds(
    lambda lowest, rest, low: CP(lowest, *rest, min_exp=low),
    _q_lowest, st.lists(st.builds(complex, _q_parts, _q_parts), max_size=8),
    st.integers(-3, 3))
_float_dens = st.builds(
    lambda den, low: den.shift(low),
    st.one_of(st.just(CP(-1, 0, 1)), st.just(CP(1, 0, 1)),
              st.builds(lambda tr: CP(1, -tr, 1),
                        st.one_of(st.floats(-2, 2), st.floats(-1e7, 1e7))),
              st.builds(lambda c: CP(c), _q_lowest)),
    st.integers(-3, 3))


class TestSampledQuotient:
    @settings(max_examples=200, deadline=None)
    @given(_float_quotients, _float_dens)
    # N = 6 puts +-1, the roots of t^2 - 1, on the unrotated samples
    @example(CP(1, 2, 3, 4), CP(-1, 0, 1))
    def test_recovers_the_quotient(self, q, den):
        got = LaurentRational(q * den, den).attempt_polynomial(1e-8)
        assert got is not None
        scale = q.max_abs()
        for k in set(q.coeffs) | set(got.coeffs):
            assert abs(got[k] - q[k]) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(_float_quotients, _float_dens)
    def test_perturbed_numerator_is_refused(self, q, den):
        # den has a root z with |z| >= 1, and num(z) = delta z^top, so
        # every residual has a coefficient of at least delta / N
        num = q * den
        if den.degree() == 0:
            return
        delta = 1e-3 * max(num.max_abs(), 1.0)
        num = num + LaurentPoly({num.max_exp(): delta + 0j})
        assert LaurentRational(num, den).attempt_polynomial(1e-8) is None


class TestCleanup:
    def test_relative_threshold(self):
        p = LaurentPoly({0: 1e6 + 0j, 1: 1e-8 + 0j, 2: 1.0 + 0j})
        cleaned = p.cleanup()
        assert 1 not in cleaned.coeffs  # 1e-8 is below 1e-10 * 1e6
        assert 2 in cleaned.coeffs

    def test_exact_input_unchanged(self):
        p = P(1, Fraction(1, 10 ** 30))
        assert p.cleanup() == p


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
        f = [1, -1, 1]
        g = _zt.gcd(_zt.mul(_zt.mul(f, f), [-1, 2]), _zt.mul(f, [3, 1]))
        assert g in (f, [-c for c in f])    # primitive, up to sign

    def test_gcd_of_coprime_is_one(self):
        assert _zt.gcd([1, 1], [1, 0, 1]) in ([1], [-1])

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

    def test_floating_input_rejected(self):
        # (t-2)^2 (t-5): a float multiplicity would only be a guess
        with pytest.raises(AlgebraError):
            has_simple_root(CP(-20, 24, -9, 1))


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


# -- the Z[t] kernel against the Fraction long division it replaced ----------
# The oracle is the Fraction-coefficient Euclid the library ran before exact
# division and gcd moved to Z[t]: dense long division over Q and a monic
# remainder sequence.


def _oracle_dense_divmod(num: list, den: list) -> tuple[list, list]:
    while den and den[-1] == 0:
        den = den[:-1]
    lead = den[-1]
    rem = list(num)
    qlen = max(len(num) - len(den) + 1, 0)
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + len(den) - 1] / lead
        quot[i] = c
        if c != 0:
            for j, d in enumerate(den):
                rem[i + j] = rem[i + j] - c * d
    return quot, rem[:len(den) - 1]


def _oracle_divmod(p: LaurentPoly, q: LaurentPoly):
    if p.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    sh_n, sh_d = p.min_exp(), q.min_exp()

    def dense(x, sh):
        out = [Fraction(0)] * (x.max_exp() - sh + 1)
        for k, c in x.coeffs.items():
            out[k - sh] = c
        return out

    quot, rem = _oracle_dense_divmod(dense(p, sh_n), dense(q, sh_d))
    return (LaurentPoly.from_coefficients(quot, sh_n - sh_d),
            LaurentPoly.from_coefficients(rem, sh_n))


def _oracle_normal(x: LaurentPoly) -> LaurentPoly:
    if x.is_zero():
        return x
    x = x.shift(-x.min_exp())
    return x.scale(Fraction(1) / x.leading())


def _oracle_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    a, b = _oracle_normal(p), _oracle_normal(q)
    while not b.is_zero():
        a, b = b, _oracle_normal(_oracle_divmod(a, b)[1])
    return a


def _oracle_quotient(p: LaurentPoly, q: LaurentPoly):
    quot, rem = _oracle_divmod(p, q)
    return quot if rem.is_zero() else None


def _oracle_squarefree(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """Yun's algorithm over Q, as the library ran it before it moved to Z[t]."""
    p = p.shift(-p.min_exp()).scale(Fraction(1) / Fraction(p.leading()))
    if p.degree() == 0:
        return []
    dp = p.derivative()
    g = _oracle_gcd(p, dp)
    w = _oracle_quotient(p, g)
    y = _oracle_quotient(dp, g)
    out = []
    i = 1
    while w.degree() > 0:
        z = y - w.derivative()
        f = _oracle_gcd(w, z)
        if f.degree() > 0:
            out.append((f, i))
        w = _oracle_quotient(w, f)
        y = _oracle_quotient(z, f)
        i += 1
    return out


def _oracle_reduced(num: LaurentPoly, den: LaurentPoly):
    g = _oracle_gcd(num, den)
    if g.degree() > 0:
        num, den = _oracle_quotient(num, g), _oracle_quotient(den, g)
    sh, lc = den.min_exp(), den.leading()
    return (num.shift(-sh).scale(1 / lc), den.shift(-sh).scale(1 / lc))


# Factors with non-unit content, negative leading coefficients, negative
# exponents and, through a positive lowest exponent, a zero constant term.
_factor = st.tuples(
    st.integers(-3, 2),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.integers(1, 6), st.sampled_from((1, -1))).map(
        lambda a: LaurentPoly({a[0] + k: Fraction(a[3] * c, a[2])
                               for k, c in enumerate(a[1])})).filter(
        lambda p: not p.is_zero())


def _same(a: LaurentPoly, b: LaurentPoly) -> bool:
    """Equal exponents and equal Fraction coefficients, and both exact."""
    return a.coeffs == b.coeffs and a.is_exact() and b.is_exact() and \
        all(type(c) is Fraction for c in a.coeffs.values())


def _monic(g: list[int]) -> LaurentPoly:
    """The kernel polynomial g made monic, at exponent 0; 0 for []."""
    return LaurentPoly.from_coefficients(g).scale(Fraction(1, g[-1])) \
        if g else LaurentPoly.zero()


def _kernel_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The monic gcd over Q of the ordinary-polynomial parts, by _zt.gcd."""
    return _monic(_zt.gcd(_zt.split(p.coeffs)[0], _zt.split(q.coeffs)[0]))


# Products of powers of small integer factors, times a content and a sign:
# the factors may repeat, share roots or be divisible by t.
_powers = st.tuples(
    st.lists(st.tuples(
        st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
            lambda c: c[-1] != 0),
        st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(-6, 6).filter(bool))


def _product(factors, content: int) -> list[int]:
    f = [content]
    for g, m in factors:
        for _ in range(m):
            f = _zt.mul(f, g)
    return f


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(_factor, _factor, _factor)
    def test_matches_the_fraction_oracle(self, f, g, h):
        p, q = f * g * h, g * h.shift(1)
        assert _same(_kernel_gcd(p, q), _oracle_gcd(p, q))
        assert _same(_kernel_gcd(f, g), _oracle_gcd(f, g))
        assert _same(p / g, _oracle_quotient(p, g))
        assert _same(p / (g * h), f)
        for a, b in ((p, q), (f, g), (q, p)):
            quot = _oracle_quotient(a, b)
            if quot is None:
                with pytest.raises(NonPolynomialError):
                    a / b
            else:
                assert _same(a / b, quot)
            r = LaurentRational(a, b)
            num, den = _oracle_reduced(a, b)
            assert _same(r.num, num) and _same(r.den, den)
            poly = r.attempt_polynomial()
            want = _oracle_quotient(r.num, r.den)
            assert (poly is None) if want is None else _same(poly, want)

    @settings(max_examples=100, deadline=None)
    @given(_factor)
    def test_gcd_with_zero_is_monic_at_exponent_zero(self, p):
        f = _zt.split(p.coeffs)[0]
        g = _zt.gcd(f, [])
        prim = _zt.primitive(f)[1]
        assert g in (prim, [-c for c in prim])
        assert _same(_monic(g), _oracle_normal(p))
        assert _zt.gcd([], f) == g
        assert _zt.gcd([], []) == []

    @settings(max_examples=200, deadline=None)
    @given(_powers)
    def test_squarefree_matches_the_fraction_yun(self, powers):
        f = _product(*powers)
        parts = _zt.squarefree(f)
        # prod g^m is f up to content and sign
        prim = _zt.primitive(f)[1]
        assert _product(parts, 1) in (prim, [-c for c in prim])
        assert [m for _, m in parts] == sorted({m for _, m in parts})
        for i, (g, _) in enumerate(parts):
            assert len(g) > 1 and g[-1] > 0 and _zt.primitive(g)[0] == 1
            assert len(_zt.gcd(g, _zt.derivative(g))) == 1
            assert all(len(_zt.gcd(g, h)) == 1 for h, _ in parts[i + 1:])
        p = LaurentPoly.from_coefficients(f)
        want = _oracle_squarefree(p)
        got = squarefree_decomposition(p)
        assert [m for _, m in got] == [m for _, m in want]
        assert all(_same(a, b) for (a, _), (b, _) in zip(got, want))


# -- the remainder-only pseudo-division against the pseudo_divmod it
# replaced, which formed the quotient and scaled the whole remainder by
# |lead b| at every step; gcd, squarefree and the Sturm chain of roots are
# kept as they were on it, as the references.


def _ref_pseudo_divmod(a: list[int], b: list[int]) -> tuple[list, list]:
    r = list(a)
    lead = b[-1]
    mult = abs(lead)
    n = len(b) - 1
    tops = []
    for i in range(len(a) - len(b), -1, -1):
        top = r[n + i] if lead > 0 else -r[n + i]
        tops.append(top)
        if mult != 1:
            r = [mult * x for x in r]
        for j, y in enumerate(b):
            r[i + j] -= top * y
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return [top * mult ** i for i, top in enumerate(reversed(tops))], r


def _ref_gcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _zt.primitive(a)[1], _zt.primitive(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _zt.primitive(_ref_pseudo_divmod(a, b)[1])[1]
    return a


def _ref_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    df = _zt.derivative(f)
    a = _ref_gcd(f, df)
    w, y = _zt.exact_div(f, a), _zt.exact_div(df, a)
    out = []
    m = 1
    while len(w) > 1:
        z = _zt.sub(y, _zt.derivative(w))
        g = _ref_gcd(w, z)
        if len(g) > 1:
            out.append((g if g[-1] > 0 else [-c for c in g], m))
        w, y = _zt.exact_div(w, g), _zt.exact_div(z, g)
        m += 1
    return out


def _ref_sturm_chain(f: list[int]) -> list[list[int]]:
    chain = [f, _zt.derivative(f)]
    while len(chain[-1]) > 1:
        r = _zt.primitive(_ref_pseudo_divmod(chain[-2], chain[-1])[1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _trimmed(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


_dividends = st.lists(st.integers(-60, 60), max_size=14).map(_trimmed)
# divisors with |lead| up to 12, so that most steps scale the remainder
_divisors = st.tuples(st.lists(st.integers(-30, 30), max_size=6),
                      st.integers(-12, 12).filter(bool)).map(
    lambda lb: lb[0] + [lb[1]])


class TestPseudoRemainder:
    @settings(max_examples=400, deadline=None)
    @given(_dividends, _divisors)
    @example([1, 2, 3, 4, 5, 6, 7, 8, 9], [6, -13, 6])
    @example([0, 0, 0, 5], [-7, 0, -3])
    @example([4, 1], [0, 0, 0, 2])
    @example([5, 7, 11], [-4])
    def test_positive_multiple_of_the_fraction_remainder(self, a, b):
        r = _zt.pseudo_remainder(a, b)
        assert r == _ref_pseudo_divmod(a, b)[1]
        rem = _trimmed(_oracle_dense_divmod([Fraction(c) for c in a],
                                            [Fraction(c) for c in b])[1])
        assert len(r) == len(rem) < len(b)
        if rem:
            scale = r[-1] / rem[-1]
            assert scale > 0 and all(x == scale * y for x, y in zip(r, rem))
            den = math.lcm(*(y.denominator for y in rem))
            assert (_zt.primitive(r)[1]
                    == _zt.primitive([int(y * den) for y in rem])[1])

    @settings(max_examples=300, deadline=None)
    @given(_dividends, _divisors)
    def test_gcd_and_sturm_chain_match_the_references(self, a, b):
        assert _zt.gcd(a, b) == _ref_gcd(a, b)
        assert _zt.gcd(b, a) == _ref_gcd(b, a)
        for f in (a, b, _zt.mul(a, b)):
            if len(f) > 1:
                assert _sturm_chain(f) == _ref_sturm_chain(f)

    @settings(max_examples=200, deadline=None)
    @given(_powers)
    def test_squarefree_and_sturm_chain_match_the_references(self, powers):
        f = _product(*powers)
        assert _zt.squarefree(f) == _ref_squarefree(f)
        assert _sturm_chain(f) == _ref_sturm_chain(f)
