"""Multivariate polynomials with exact rational coefficients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex.errors import AlgebraError
from talex.laurent import LaurentPoly
from talex.multipoly import MultiPoly, exact_divide, resultant, sylvester_matrix

from conftest import (ref_add, ref_mul, ref_pow, same_coefficients,
                      same_number, square_and_multiply)

YZ = ("y", "z")
YW = ("y", "w")


def mk(vars, terms):
    return MultiPoly(vars, {k: Fraction(v) for k, v in terms.items()})


def at(p, name, value):
    """p with one variable replaced by value, through compose."""
    images = {v: MultiPoly.var(p.vars, v) for v in p.vars}
    images[name] = value
    return p.compose(images, MultiPoly.zero(p.vars))


def _random_poly(rng, vars, max_deg=3, n_terms=4):
    terms = {}
    for _ in range(int(rng.integers(1, n_terms + 1))):
        key = tuple(int(rng.integers(0, max_deg + 1)) for _ in vars)
        terms[key] = Fraction(int(rng.integers(-5, 6)))
    p = MultiPoly(vars, terms)
    return p if not p.is_zero() else MultiPoly.constant(vars, 1)


class TestConstruction:
    def test_zero_terms_dropped(self):
        p = mk(YZ, {(1, 0): 0, (0, 1): 2})
        assert (1, 0) not in p.terms

    def test_exponent_arity_checked(self):
        with pytest.raises(AlgebraError):
            MultiPoly(YZ, {(1,): Fraction(1)})

    def test_var_and_constant(self):
        y = MultiPoly.var(YZ, "y")
        assert y.terms == {(1, 0): Fraction(1)}
        assert (MultiPoly.var(YZ, "z") ** 3).terms == {(0, 3): Fraction(1)}
        assert MultiPoly.constant(YZ, 5).constant_value() == 5
        with pytest.raises(AlgebraError):
            MultiPoly.var(YZ, "q")

    def test_constant_value_requires_constant(self):
        with pytest.raises(AlgebraError):
            MultiPoly.var(YZ, "y").constant_value()


class TestArithmetic:
    def test_ring_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q, r = (_random_poly(rng, YZ) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p

    def test_power_and_scale(self):
        y = MultiPoly.var(YZ, "y")
        z = MultiPoly.var(YZ, "z")
        assert (y + z) ** 2 == y * y + 2 * y * z + z * z
        assert (y + z) ** 0 == MultiPoly.constant(YZ, 1)
        assert y.scale(Fraction(1, 2)) * 2 == y

    @settings(max_examples=150, deadline=None)
    @given(st.deferred(lambda: yz_polys).filter(lambda p: len(p.terms) != 1),
           st.integers(0, 6))
    def test_powers_are_the_square_and_multiply_products(self, p, n):
        # a monomial's power is c ** n on its one term instead
        power = p ** n
        chain = square_and_multiply(MultiPoly.constant(YZ, 1), p, n)
        assert list(power.terms.items()) == list(chain.terms.items())
        product = MultiPoly.constant(YZ, 1)
        for _ in range(n):
            product = product * p
        assert power == product

    def test_mixed_vars_rejected(self):
        with pytest.raises(AlgebraError):
            MultiPoly.var(YZ, "y") + MultiPoly.var(YW, "y")


class TestStructure:
    def test_lex_leading(self):
        p = mk(YZ, {(2, 0): 1, (1, 5): 9})
        key, c = p.lex_leading()
        assert key == (2, 0) and c == 1

    def test_degrees(self):
        p = mk(YZ, {(2, 1): 1, (0, 3): -1})
        assert p.degree_in("y") == 2
        assert p.degree_in("z") == 3
        assert p.min_exponent_in("y") == 0


class TestSubstitution:
    def test_numeric(self):
        p = mk(YZ, {(2, 0): 1, (0, 1): -1, (0, 0): -1})  # y^2 - z - 1
        q = at(p, "y", Fraction(3))
        assert q.degree_in("y") == 0
        assert at(q, "z", Fraction(8)).constant_value() == 0

    def test_polynomial_substitution(self):
        p = mk(YZ, {(2, 0): 1})  # y^2
        zz = MultiPoly.var(YZ, "z") + 1
        assert at(p, "y", zz) == (MultiPoly.var(YZ, "z") + 1) ** 2

    def test_evaluate(self):
        p = mk(YZ, {(1, 1): 2, (0, 0): -3})
        val = p.evaluate({"y": Fraction(2), "z": Fraction(5)})
        assert val == 17
        with pytest.raises(AlgebraError):
            p.evaluate({"y": Fraction(2)})

    def test_complex_evaluate(self):
        p = mk(YZ, {(2, 0): 1, (0, 1): -1})
        assert abs(p.evaluate({"y": 1j, "z": 0j}) - (-1)) < 1e-12


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _polys(vars_, exponents):
    keys = st.tuples(*[exponents] * len(vars_))
    return st.dictionaries(keys, small_fractions, max_size=4).map(
        lambda terms: MultiPoly(vars_, terms))


yz_polys = _polys(YZ, st.integers(0, 3))
laurent_images = st.dictionaries(st.integers(-2, 2), small_fractions,
                                 min_size=1, max_size=3).map(LaurentPoly)
ST = ("s", "t")


@st.composite
def ring_maps(draw):
    """(images of y and z, zero of the target) for one target ring."""
    target = draw(st.sampled_from(["fraction", "laurent", "multi", "mixed"]))
    if target == "fraction":
        return {"y": draw(small_fractions), "z": draw(small_fractions)}, Fraction(0)
    if target == "laurent":
        return ({"y": draw(laurent_images), "z": draw(laurent_images)},
                LaurentPoly.zero())
    if target == "multi":
        st_polys = _polys(ST, st.integers(0, 2))
        return ({"y": draw(st_polys), "z": draw(st_polys)},
                MultiPoly.zero(ST))
    return ({"y": draw(small_fractions), "z": draw(laurent_images)},
            LaurentPoly.zero())


laurent_yz_polys = _polys(YZ, st.integers(-2, 2))
nonzero_yz_polys = yz_polys.filter(lambda p: not p.is_zero())


class TestRingAxiomProperties:
    """Ring axioms with negative exponents allowed."""

    @settings(deadline=None)
    @given(laurent_yz_polys, laurent_yz_polys, laurent_yz_polys)
    def test_associative_and_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p

    @settings(deadline=None)
    @given(laurent_yz_polys, laurent_yz_polys, laurent_yz_polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(deadline=None)
    @given(laurent_yz_polys)
    def test_additive_inverse(self, p):
        assert p + (-p) == MultiPoly.zero(YZ)
        assert (p + (-p)).is_zero()

    @settings(deadline=None)
    @given(yz_polys, nonzero_yz_polys)
    def test_exact_divide_round_trip(self, p, q):
        assert exact_divide(p * q, q) == p


class TestCompose:
    @settings(deadline=None, max_examples=60)
    @given(yz_polys, yz_polys, ring_maps())
    def test_ring_map(self, p, q, ring_map):
        images, zero = ring_map

        def f(x):
            return x.compose(images, zero)

        assert f(p + q) == f(p) + f(q)
        assert f(p * q) == f(p) * f(q)
        assert f(MultiPoly.constant(YZ, 3)) == zero + 3

    def test_images_of_variables(self):
        p = mk(YZ, {(2, 1): 3, (0, 0): -1})    # 3 y^2 z - 1
        t = LaurentPoly.t()
        assert p.compose({"y": t, "z": t - 1}, LaurentPoly.zero()) == \
            3 * t ** 3 - 3 * t ** 2 - 1
        assert p.compose({"y": Fraction(2), "z": 1j}, 0j) == 12j - 1

    def test_substitute_keeps_negative_powers_of_other_variables(self):
        vars_ = ("y1", "y2", "v")
        p = MultiPoly(vars_, {(-1, 1, 0): 1, (2, 0, 1): 3})  # y1^-1 y2 + 3 y1^2 v
        q = at(p, "v", 2)
        assert q == MultiPoly(vars_, {(-1, 1, 0): 1, (2, 0, 0): 6})
        assert q.to_text() == "6*y1^2 + y1^-1*y2"

    def test_zero_into_negative_power(self):
        p = mk(YZ, {(-1, 0): 1, (0, 1): 1})    # y^-1 + z
        with pytest.raises(AlgebraError, match="substituting 0 into a negative"):
            at(p, "y", 0)
        with pytest.raises(AlgebraError, match="substituting 0 into a negative"):
            p.evaluate({"y": 0j, "z": 1j})
        assert at(p, "y", Fraction(1, 2)) == MultiPoly.var(YZ, "z") + 2

    def test_non_monomial_into_negative_power(self):
        p = mk(YZ, {(-2, 1): 1})                # y^-2 z
        z = MultiPoly.var(YZ, "z")
        with pytest.raises(AlgebraError):
            at(p, "y", z + 1)
        with pytest.raises(AlgebraError):
            p.compose({"y": LaurentPoly.t(), "z": Fraction(1)},
                      LaurentPoly.zero())
        # a monomial image is inverted: (2z)^-2 z = z^-1 / 4
        assert p.compose({"y": 2 * z, "z": z}, MultiPoly.zero(YZ)) == \
            mk(YZ, {(0, -1): Fraction(1, 4)})


def _ref_compose(p: MultiPoly, images: dict, zero):
    """compose as plain loops in which every Fraction meets a complex
    through Fraction's own operators, with the Laurent images and zero as
    dicts for conftest's reference loops."""
    num = [i for i, v in enumerate(p.vars) if not isinstance(images[v], dict)]
    rest = [i for i in range(len(p.vars)) if i not in num]

    def power(i: int, e: int):
        x = images[p.vars[i]]
        return ref_pow(x, e) if isinstance(x, dict) else x ** e

    grouped: dict = {}
    for ex, c in p.terms.items():
        for i in num:
            c = c * power(i, ex[i])
        key = tuple(ex[i] for i in rest)
        grouped[key] = grouped.get(key, 0) + c
    total = zero
    for key, c in grouped.items():
        for i, e in zip(rest, key):
            # a number times a LaurentPoly is the polynomial times constant(c)
            c = (ref_mul(c, power(i, e)) if isinstance(c, dict) else
                 ref_mul(power(i, e), {0: c} if c != 0 else {}))
        total = ref_add(total, c) if isinstance(total, dict) else total + c
    return total


_compose_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(-3, 3).filter(lambda v: abs(v) >= 0.01))
_numeric_images = st.one_of(
    small_fractions, st.builds(complex, _compose_parts, _compose_parts))
_domain_images = st.one_of(
    st.dictionaries(st.integers(-2, 2), small_fractions, max_size=3),
    st.dictionaries(st.integers(-2, 2),
                    st.builds(complex, _compose_parts, _compose_parts),
                    max_size=3),
    st.dictionaries(st.integers(-2, 2), st.one_of(
        small_fractions, st.builds(complex, _compose_parts, _compose_parts)),
        max_size=3)).map(lambda d: LaurentPoly(d).coeffs)


class TestComposeAgainstReferenceLoops:
    """compose against the loops in which Fractions meet complex numbers
    through Fraction's own operators: numeric images (exact, complex with
    +-0.0 parts, or one of each) and Laurent images of every domain shape
    give the same type, keys, key order and bits."""

    @settings(max_examples=200, deadline=None)
    @given(yz_polys, _numeric_images, _numeric_images)
    def test_numeric_images(self, p, y, z):
        images = {"y": y, "z": z}
        zero = 0j if any(isinstance(v, complex) for v in (y, z)) \
            else Fraction(0)
        assert same_number(p.compose(images, zero),
                           _ref_compose(p, images, zero))

    @settings(max_examples=200, deadline=None)
    @given(yz_polys, st.one_of(_numeric_images, _domain_images),
           _domain_images)
    def test_laurent_images(self, p, y, z):
        got = p.compose({v: LaurentPoly(x) if isinstance(x, dict) else x
                         for v, x in (("y", y), ("z", z))},
                        LaurentPoly.zero())
        assert same_coefficients(got, _ref_compose(p, {"y": y, "z": z}, {}))


_complex_points = st.builds(complex, _compose_parts, _compose_parts).filter(
    lambda x: x != 0)


class TestComplexImage:
    @settings(max_examples=200, deadline=None)
    @given(laurent_yz_polys, _complex_points, _complex_points)
    def test_compose_is_bit_identical(self, p, y, z):
        image = p.to_complex()
        assert list(image.terms) == list(p.terms)
        assert all(type(c) is complex for c in image.terms.values())
        for images in ({"y": y, "z": z}, {"y": y, "z": Fraction(3, 2)}):
            assert same_number(image.compose(images, 0j),
                               p.compose(images, 0j))


class TestNormalization:
    def test_content_and_primitive(self):
        p = mk(YZ, {(1, 0): Fraction(4, 3), (0, 0): Fraction(2, 3)})
        assert p.content() == Fraction(2, 3)
        prim = p.primitive_normalized()
        assert prim == mk(YZ, {(1, 0): 2, (0, 0): 1})
        neg = mk(YZ, {(1, 0): -2, (0, 0): -4})
        assert neg.primitive_normalized() == mk(YZ, {(1, 0): 1, (0, 0): 2})

    def test_content_of_zero(self):
        assert MultiPoly.zero(YZ).content() == 0


class TestExactDivide:
    def test_examples(self):
        y = MultiPoly.var(YZ, "y")
        assert exact_divide(y * y - 1, y - 1) == y + 1
        assert exact_divide(y * y + 1, y - 1) is None

    def test_random_products(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = _random_poly(rng, YZ)
            q = _random_poly(rng, YZ)
            assert exact_divide(p * q, q) == p

    def test_zero_divisor_rejected(self):
        with pytest.raises(AlgebraError):
            exact_divide(MultiPoly.var(YZ, "y"), MultiPoly.zero(YZ))


class TestResultant:
    def test_linear_example(self):
        vars = ("w", "y", "z")
        w = MultiPoly.var(vars, "w")
        y = MultiPoly.var(vars, "y")
        z = MultiPoly.var(vars, "z")
        res = resultant(w - y, w - z, "w")
        assert res == y - z or res == z - y

    def test_common_factor_gives_zero(self):
        vars = ("w", "y")
        p = MultiPoly.var(vars, "w") ** 2 + MultiPoly.var(vars, "y")
        assert resultant(p, p, "w").is_zero()

    def test_degenerate_degrees(self):
        vars = ("w", "y")
        y = MultiPoly.var(vars, "y")
        w = MultiPoly.var(vars, "w")
        # deg_w q = 0: Res(p, q) = q^{deg p}
        assert resultant(w ** 2 + 1, y, "w") == y * y
        assert resultant(y + 2, w ** 3, "w") == (y + 2) ** 3

    def test_sylvester_shape(self):
        vars = ("w", "y")
        w = MultiPoly.var(vars, "w")
        rows = sylvester_matrix(w ** 2 + 1, w ** 3 - w, "w")
        assert len(rows) == 5
        assert all(len(r) == 5 for r in rows)

    def test_vanishes_iff_common_root(self):
        # univariate instances embedded in two variables
        rng = np.random.default_rng(29)
        vars = ("w", "y")
        w = MultiPoly.var(vars, "w")
        for _ in range(20):
            a, b, c = (int(rng.integers(-4, 5)) for _ in range(3))
            shared = w - a
            p = shared * (w - b)
            q = shared * (w - c)
            assert resultant(p, q, "w").is_zero()
            # roots a+10, a+11 are outside the range of a and b
            coprime_q = (w - (a + 10)) * (w - (a + 11))
            r = resultant(p, coprime_q, "w")
            assert not r.is_zero()

    def test_resultant_of_nonvanishing_pair_detects_roots(self):
        # Res_w(p, q) evaluated where p, q share a root must vanish
        vars = ("w", "y")
        w = MultiPoly.var(vars, "w")
        y = MultiPoly.var(vars, "y")
        p = w * w - y          # roots w = ±sqrt(y)
        q = w - y              # root w = y
        res = resultant(p, q, "w")  # vanishes when y^2 = y
        assert at(res, "y", Fraction(1)).is_zero() or \
            at(res, "y", Fraction(1)).constant_value() == 0
        assert at(res, "y", Fraction(3)).constant_value() != 0


def _yw_polys(w_degree):
    """Polynomials in (y, w), Laurent in y and of degree <= w_degree in w."""
    keys = st.tuples(st.integers(-1, 2), st.integers(0, w_degree))
    return st.dictionaries(keys, small_fractions, max_size=4).map(
        lambda terms: MultiPoly(YW, terms))


y_polys = _yw_polys(0)
nonzero_yw_polys = _yw_polys(2).filter(lambda p: not p.is_zero())


class TestResultantProperties:
    @settings(deadline=None, max_examples=40)
    @given(y_polys, nonzero_yw_polys, nonzero_yw_polys)
    def test_common_factor_vanishes(self, a, f, g):
        shared = MultiPoly.var(YW, "w") - a
        assert resultant(shared * f, shared * g, "w").is_zero()

    @settings(deadline=None, max_examples=40)
    @given(y_polys, nonzero_yw_polys)
    def test_linear_factor_evaluates(self, a, g):
        w = MultiPoly.var(YW, "w")
        assert resultant(w - a, g, "w") == at(g, "w", a)


class TestSerialization:
    def test_text(self):
        p = mk(YZ, {(2, 0): 1, (0, 1): -1, (0, 0): -1})
        assert p.to_text() == "y^2 - z - 1"
