"""Certified numerical root finding."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex import roots as roots_module
from talex.errors import AlgebraError, RootFindingError
from talex.laurent import LaurentPoly, squarefree_decomposition
from talex.roots import complex_roots, unit_circle_roots

from conftest import CP, P, load_fixture_text, same_number


def _angle(x):
    """arccos(x / 2) for a rational x in (-2, 2), with 2 -+ x exact."""
    return 2 * math.atan2(math.sqrt(2 - x), math.sqrt(2 + x))


class TestComplexRoots:
    def test_quadratic(self):
        roots = complex_roots(P(1, 0, 1))
        assert len(roots) == 2
        (r1, m1), (r2, m2) = roots
        assert m1 == m2 == 1
        assert abs(r1 + 1j) < 1e-10 and abs(r2 - 1j) < 1e-10

    def test_cubic_with_rational_and_complex_roots(self):
        # x^3 + 6x^2 + 6x + 5 = (x + 5)(x^2 + x + 1)
        roots = complex_roots(P(5, 6, 6, 1))
        assert len(roots) == 3
        assert min(abs(r + 5) for r, _ in roots) < 1e-8
        for r, m in roots:
            assert m == 1
            if abs(r + 5) > 1:
                assert abs(r * r + r + 1) < 1e-8

    def test_perturbed_cubic_misses_quadratic_locus(self):
        # x^3 + 6x^2 + 6x + 4 has no root with x^2 + x + 1 near zero
        roots = complex_roots(P(4, 6, 6, 1))
        assert len(roots) == 3
        for r, _ in roots:
            assert abs(r * r + r + 1) > 0.1

    def test_exact_multiplicities(self):
        f = P(1, -1, 1)
        g = P(-1, 2)
        roots = complex_roots(f ** 3 * g ** 2)
        mults = sorted(m for _, m in roots)
        assert mults == [2, 3, 3]
        assert sum(m for _, m in roots) == 8

    def test_laurent_units_stripped(self):
        p = LaurentPoly({-1: 1.0 + 0j, 1: 1.0 + 0j})  # t^-1 (t^2 + 1)
        roots = complex_roots(p)
        assert len(roots) == 2
        assert all(abs(abs(r) - 1) < 1e-9 for r, _ in roots)
        assert all(abs(r) > 0.5 for r, _ in roots)  # zero is never a root

    def test_constant_has_no_roots(self):
        assert complex_roots(P(5)) == []
        assert complex_roots(LaurentPoly({3: 2.0 + 0j})) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(AlgebraError):
            complex_roots(LaurentPoly.zero())

    def test_list_input(self):
        roots = complex_roots([-1, 0, 1])  # t^2 - 1
        assert sorted(round(r.real) for r, _ in roots) == [-1, 1]

    def test_planted_float_roots_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            planted = [complex(rng.normal(), rng.normal())
                       for _ in range(int(rng.integers(1, 7)))]
            # enforce pairwise separation so clustering cannot merge them
            planted = [r for i, r in enumerate(planted)
                       if all(abs(r - s) > 1e-2 for s in planted[:i])]
            p = CP(1)
            for r in planted:
                p = p * LaurentPoly({0: -r, 1: 1.0 + 0j})
            found = complex_roots(p)
            assert len(found) == len(planted)
            for r in planted:
                assert min(abs(r - f) for f, _ in found) < 1e-7

    def test_float_cluster_counts_multiplicity(self):
        # (t-1)(t-1-1e-10) is one double root at the 1e-8 resolution
        p = LaurentPoly({0: 1.0 + 1e-10, 1: -(2.0 + 1e-10), 2: 1.0 + 0j})
        roots = complex_roots(p)
        assert len(roots) == 1
        assert roots[0][1] == 2

    def test_sorted_by_real_then_imag(self):
        roots = complex_roots(P(5, 6, 6, 1))
        keys = [(r.real, r.imag) for r, _ in roots]
        assert keys == sorted(keys)

    def test_uncertified_root_raises(self, monkeypatch):
        monkeypatch.setattr(roots_module, "_RESIDUAL_TOL", 1e-300)
        p = CP(*[(-1) ** k * (k + 1) for k in range(21)])
        with pytest.raises(RootFindingError):
            complex_roots(p)


def _polish_three_evaluations(p, dp, r):
    """_newton_polish as it was when each step evaluated p three times:
    the reference its iterates must match."""
    best, best_val = r, abs(complex(p.evaluate(r)))
    for _ in range(roots_module._POLISH_STEPS):
        d = complex(dp.evaluate(r))
        if d == 0:
            break
        r = r - complex(p.evaluate(r)) / d
        v = abs(complex(p.evaluate(r)))
        if v < best_val:
            best, best_val = r, v
        else:
            break
    return best, best_val


def _planted_float_polys():
    """The polynomials of test_planted_float_roots_recovered."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        planted = [complex(rng.normal(), rng.normal())
                   for _ in range(int(rng.integers(1, 7)))]
        planted = [r for i, r in enumerate(planted)
                   if all(abs(r - s) > 1e-2 for s in planted[:i])]
        p = CP(1)
        for r in planted:
            p = p * LaurentPoly({0: -r, 1: 1.0 + 0j})
        yield p


# the inputs of TestComplexRoots that have roots
_POLISH_CASES = [P(1, 0, 1), P(5, 6, 6, 1), P(4, 6, 6, 1),
                 P(1, -1, 1) ** 3 * P(-1, 2) ** 2,
                 LaurentPoly({-1: 1.0 + 0j, 1: 1.0 + 0j}), [-1, 0, 1],
                 LaurentPoly({0: 1.0 + 1e-10, 1: -(2.0 + 1e-10),
                              2: 1.0 + 0j}), *_planted_float_polys()]


class TestNewtonPolish:
    def test_p_is_evaluated_once_per_step(self, monkeypatch):
        evaluated = []
        evaluate = LaurentPoly.evaluate
        polish = roots_module._newton_polish
        counts = []

        def spy_evaluate(self, x):
            evaluated.append(self)
            return evaluate(self, x)

        def spy_polish(p, dp, r):
            del evaluated[:]
            out = polish(p, dp, r)
            steps = sum(q is dp for q in evaluated)
            counts.append((sum(q is p for q in evaluated), steps))
            return out

        monkeypatch.setattr(LaurentPoly, "evaluate", spy_evaluate)
        monkeypatch.setattr(roots_module, "_newton_polish", spy_polish)
        for p in _POLISH_CASES:
            complex_roots(p)
        assert counts
        assert all(n_p <= steps + 1 for n_p, steps in counts)
        assert all(steps <= roots_module._POLISH_STEPS for _, steps in counts)
        assert max(steps for _, steps in counts) >= 2

    def test_certificate_reuses_the_polished_value(self, monkeypatch):
        """Outside the polish, p is evaluated once per root the polish did
        not judge: every root of an exact input, on p's complex image, and
        every cluster of a floating one."""
        evaluate = LaurentPoly.evaluate
        polish = roots_module._newton_polish
        depth, outside = [0], []

        def spy_evaluate(self, x):
            if not depth[0]:
                outside.append(self)
            return evaluate(self, x)

        def spy_polish(p, dp, r):
            depth[0] += 1
            try:
                return polish(p, dp, r)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(LaurentPoly, "evaluate", spy_evaluate)
        monkeypatch.setattr(roots_module, "_newton_polish", spy_polish)
        for p in map(roots_module._as_poly, _POLISH_CASES):
            del outside[:]
            found = complex_roots(p)
            if p.is_exact():
                assert len(outside) == len(found)
                assert all(q == p.to_complex() for q in outside)
            else:
                assert len(outside) == sum(m > 1 for _, m in found)
                assert all(q is p for q in outside)
        assert any(not p.is_exact() and len(complex_roots(p)) > 1
                   for p in map(roots_module._as_poly, _POLISH_CASES))

    def test_roots_are_unchanged(self, monkeypatch):
        got = [complex_roots(p) for p in _POLISH_CASES]
        monkeypatch.setattr(roots_module, "_newton_polish",
                            _polish_three_evaluations)
        for roots, p in zip(got, _POLISH_CASES):
            want = complex_roots(p)
            assert [m for _, m in roots] == [m for _, m in want]
            assert all(same_number(r, s)
                       for (r, _), (s, _) in zip(roots, want))


def _exact_roots_on_fractions(p: LaurentPoly):
    """complex_roots of an exact p with every factor, derivative and p
    itself evaluated on its Fractions (a copy of the exact path before it
    converted them once), or the RootFindingError it raises."""
    if p.degree() == 0:
        return []
    found = []
    for factor, mult in squarefree_decomposition(p):
        dfactor = factor.derivative()
        for r in np.roots(roots_module._dense_desc(factor)):
            found.append((roots_module._newton_polish(factor, dfactor,
                                                      complex(r))[0], mult))
    norm = float(sum(abs(complex(c)) for c in p.coeffs.values()))
    for r, _ in found:
        bound = roots_module._RESIDUAL_TOL * norm * max(1.0, abs(r)) ** \
            p.degree()
        if abs(complex(p.evaluate(r))) > bound:
            return RootFindingError
    return sorted(found, key=lambda rm: (rm[0].real, rm[0].imag))


_small_factors = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(
    lambda c: c[-1] != 0 and any(c[:-1]))


class TestExactRootsOnComplexImages:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_small_factors, st.integers(1, 3)),
                    min_size=1, max_size=3),
           st.fractions(min_value=-5, max_value=5,
                        max_denominator=9).filter(bool),
           st.integers(-2, 2))
    def test_same_roots_bit_for_bit(self, factors, scale, shift):
        p = LaurentPoly.constant(scale).shift(shift)
        for coeffs, power in factors:
            p = p * P(*coeffs) ** power
        want = _exact_roots_on_fractions(p)
        try:
            got = complex_roots(p)
        except RootFindingError:
            got = RootFindingError
        if want is RootFindingError or got is RootFindingError:
            assert got is want
            return
        assert [m for _, m in got] == [m for _, m in want]
        assert all(same_number(r, s) for (r, _), (s, _) in zip(got, want))


class TestUnitCircleRoots:
    def test_hexagonal_pair(self):
        roots = unit_circle_roots(P(1, -1, 1))
        assert len(roots) == 2
        (a1, m1), (a2, m2) = roots
        assert m1 == m2 == 1
        assert abs(a1 - np.pi / 3) < 1e-9
        assert abs(a2 - 5 * np.pi / 3) < 1e-9

    def test_conjugate_pair_on_circle(self):
        # 7t^2 - 13t + 7: both roots have modulus exactly 1
        roots = unit_circle_roots(P(7, -13, 7))
        assert len(roots) == 2

    def test_real_roots_off_circle(self):
        f = P(1, -3, 1)  # golden-ratio-squared roots, both real, off circle
        assert unit_circle_roots(f * f) == []

    def test_unit_polynomial(self):
        assert unit_circle_roots(P(1)) == []

    def test_multiplicity_carried(self):
        f = P(1, -1, 1)
        roots = unit_circle_roots(f * f)
        assert [m for _, m in roots] == [2, 2]


class TestUnitCircleRootsExact:
    @pytest.mark.parametrize("n", range(3, 32, 2))
    def test_torus_knot_roots(self, n):
        # T(2, n): delta = (t^n + 1)/(t + 1), roots e^(i(2k+1)pi/n) but -1
        roots = unit_circle_roots(P(*[(-1) ** k for k in range(n)]))
        want = [(2 * k + 1) * math.pi / n for k in range(n) if 2 * k + 1 != n]
        assert [m for _, m in roots] == [1] * (n - 1)
        assert max(abs(a - w) for (a, _), w in zip(roots, want)) < 1e-12

    def test_closed_form_angles(self):
        for delta, theta in ((P(1, -1, 1), math.pi / 3),
                             (P(7, -13, 7), math.acos(13 / 14))):
            (a1, m1), (a2, m2) = unit_circle_roots(delta)
            assert m1 == m2 == 1
            assert abs(a1 - theta) < 1e-14
            assert abs(a2 - (2 * math.pi - theta)) < 1e-14

    def test_double_roots_of_eight_twenty(self):
        roots = unit_circle_roots(P(1, -2, 3, -2, 1))   # (t^2 - t + 1)^2
        assert [m for _, m in roots] == [2, 2]
        assert abs(roots[0][0] - math.pi / 3) < 1e-14

    @pytest.mark.parametrize("k", [6, 12, 18])
    def test_real_pair_next_to_one_stays_off(self, k):
        eps = Fraction(1, 10 ** k)
        assert unit_circle_roots(P(1, -(2 + eps), 1)) == []
        assert unit_circle_roots(P(1, 2 + eps, 1)) == []

    @pytest.mark.parametrize("k", [6, 12, 18])
    def test_circle_pair_next_to_plus_minus_one(self, k):
        eps = Fraction(1, 10 ** k)
        # 2 - 2 cos(theta) = eps, so theta = 2 asin(sqrt(eps) / 2)
        theta = 2 * math.asin(math.sqrt(eps) / 2)
        for delta, want in ((P(1, -(2 - eps), 1), theta),
                            (P(1, 2 - eps, 1), math.pi - theta)):
            (a1, m1), (a2, m2) = unit_circle_roots(delta)
            assert m1 == m2 == 1
            assert 0 < a1 < a2 < 2 * math.pi
            assert abs(a1 + a2 - 2 * math.pi) < 1e-15
            assert abs(a1 - want) <= 1e-12 * want

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.fractions(-6, 6, max_denominator=4),
                              st.none() | st.integers(1, 20)),
                    min_size=1, max_size=4)
           .map(lambda pairs: [b for a, k in pairs for b in
                               ([a] if k is None
                                else [a, a + Fraction(1, 10 ** k)])])
           .filter(lambda traces: all(abs(a) != 2 for a in traces)))
    def test_products_of_trace_factors(self, traces):
        # t^2 - a t + 1 has its roots on the circle exactly when |a| < 2,
        # at e^(+-i arccos(a/2)); every other a gives two real roots.  A
        # trace a + 10^-k next to a gives two nearly coincident roots.
        delta = P(1)
        for a in traces:
            delta = delta * P(1, -a, 1)
        roots = unit_circle_roots(delta)
        inside = sorted({a for a in traces if abs(a) < 2}, reverse=True)
        assert sum(m for _, m in roots) == 2 * sum(abs(a) < 2 for a in traces)
        want = sorted([(_angle(a), traces.count(a)) for a in inside]
                      + [(2 * math.pi - _angle(a), traces.count(a))
                         for a in inside])
        assert [m for _, m in roots] == [m for _, m in want]
        assert all(abs(a - w) < 1e-12 for (a, _), (w, _) in zip(roots, want))

    @pytest.mark.parametrize("k", [10, 14, 20])
    def test_nearly_coincident_roots(self, k):
        # Two simple roots of q at x = 1 and x = 1 + 10^-k.
        x = 1 + Fraction(1, 10 ** k)
        roots = unit_circle_roots(P(1, -1, 1) * P(1, -x, 1))
        assert [m for _, m in roots] == [1] * 4
        want = sorted([_angle(1), _angle(x),
                       2 * math.pi - _angle(1), 2 * math.pi - _angle(x)])
        assert all(abs(a - w) < 1e-15 for (a, _), w in zip(roots, want))

    def test_no_float_seeds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.roots called")
        monkeypatch.setattr(roots_module.np, "roots", refuse)
        for name, mults in (("3_1", [1, 1]), ("8_20", [2, 2]),
                            ("9_35", [1, 1])):
            delta = LaurentPoly.from_json_dict(
                json.loads(load_fixture_text(name + ".alex")))
            assert [m for _, m in unit_circle_roots(delta)] == mults
        for n in range(3, 32, 2):
            roots = unit_circle_roots(P(*[(-1) ** k for k in range(n)]))
            assert [m for _, m in roots] == [1] * (n - 1)

    @pytest.mark.parametrize("delta", [
        P(1, -1, 2),            # not palindromic
        P(1, -2, 1),            # vanishes at 1
        P(1, 2, 1),             # vanishes at -1
        P(1, 1),                # odd degree: vanishes at -1
        CP(1, -1, 1),           # not exact
        P(0),                   # zero
    ])
    def test_contract_refused(self, delta):
        with pytest.raises(AlgebraError):
            unit_circle_roots(delta)
