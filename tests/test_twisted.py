"""The twisted Alexander polynomial / Wada invariant pipeline."""

from fractions import Fraction

import numpy as np
import pytest

import talex
from talex import (
    AlgebraError,
    CertificationError,
    GroupRingElement,
    abelian_rep,
    alexander,
    coefficient_profile,
    determines_genus,
    fox_matrix_laurent,
    genus_lower_bound,
    make_twisted,
    normalized_close,
    parse_presentation,
    phi_evaluate,
    reducible_formula,
    wada_invariant,
)
from talex.laurent import LaurentPoly, LaurentRational

from conftest import (
    P,
    equal_up_to_even_shift,
    load_fixture_text,
    random_det1_matrix,
)


class TestPhiEvaluate:
    def test_identity_element(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(2))
        block = phi_evaluate(GroupRingElement.one(), rho)
        assert block[0][0] == P(1) and block[1][1] == P(1)
        assert block[0][1].is_zero() and block[1][0].is_zero()

    def test_meridian_minus_one(self, trefoil):
        lam = Fraction(3, 2)
        rho = abelian_rep(trefoil, lam)
        a = trefoil.word("a")
        e = GroupRingElement.from_word(a) - GroupRingElement.one()
        block = phi_evaluate(e, rho)
        assert block[0][0] == LaurentPoly({1: lam}) - 1
        assert block[1][1] == LaurentPoly({1: 1 / lam}) - 1
        assert block[0][1].is_zero() and block[1][0].is_zero()

    def test_negative_inverse(self, trefoil):
        lam = Fraction(2)
        rho = abelian_rep(trefoil, lam)
        e = GroupRingElement.from_word(trefoil.word("A"), -1)
        block = phi_evaluate(e, rho)
        assert block[0][0] == LaurentPoly({-1: -Fraction(1, 2)})
        assert block[1][1] == LaurentPoly({-1: -Fraction(2)})


class TestFoxMatrix:
    def test_block_dimensions(self, trefoil, p935):
        rho2 = abelian_rep(trefoil, Fraction(2))
        m2 = fox_matrix_laurent(trefoil, rho2, removed=1)
        assert len(m2) == 2 and len(m2[0]) == 2

        rho3 = abelian_rep(p935, Fraction(2))
        m3 = fox_matrix_laurent(p935, rho3, removed=2)
        assert len(m3) == 4 and len(m3[0]) == 4

    def test_removed_out_of_range(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(2))
        with pytest.raises(AlgebraError):
            fox_matrix_laurent(trefoil, rho, removed=5)


class TestAlexander:
    def test_fixture_polynomials(self, trefoil, p935, p820):
        assert alexander(trefoil) == P(1, -1, 1)
        assert alexander(p935) == P(7, -13, 7)
        assert alexander(p820) == P(1, -2, 3, -2, 1)

    def test_normalization(self, p935):
        d = alexander(p935)
        assert d.min_exp() == 0
        assert d.leading() > 0
        assert d.evaluate(Fraction(1)) in (1, -1)

    def test_every_removed_column_agrees(self, p935):
        for k in range(p935.num_generators):
            assert alexander(p935, removed=k) == P(7, -13, 7)
        with pytest.raises(AlgebraError):
            alexander(p935, removed=p935.num_generators)

    def test_free_group_gives_one(self):
        p = parse_presentation("gens: a\n")
        assert alexander(p) == P(1)

    def test_non_knot_presentation_rejected(self):
        # relator abab has exponent sum 4; determinant value at 1 is not a unit
        p = parse_presentation("gens: a b\nrel: abab\n")
        with pytest.raises(CertificationError):
            alexander(p)

    def test_deficiency_enforced(self):
        from talex.errors import ParseError
        p = parse_presentation("gens: a b c\nrel: abAB\n")
        with pytest.raises(ParseError):
            alexander(p)


class TestWadaInvariant:
    def test_irreducible_trefoil_is_monic_degree_two(self, trefoil_irr):
        ta = wada_invariant(trefoil_irr.presentation, trefoil_irr)
        assert ta.polynomial is not None
        assert ta.degree == 2
        assert ta.monic
        assert normalized_close(ta.polynomial, P(1, 0, 1), tol=1e-6)

    def test_abelian_equals_reducible_formula_exactly(self, trefoil, p935):
        for p in (trefoil, p935):
            delta = alexander(p)
            for lam in (Fraction(2), Fraction(3, 2)):
                ta = wada_invariant(p, abelian_rep(p, lam))
                assert ta.value == reducible_formula(delta, lam)

    def test_abelian_matches_up_to_even_shift_on_eight_crossing(self, p820):
        delta = alexander(p820)
        lam = Fraction(3, 2)
        ta = wada_invariant(p820, abelian_rep(p820, lam))
        rf = reducible_formula(delta, lam)
        assert ta.value != rf  # the reduced forms differ by t^4
        assert equal_up_to_even_shift(ta.value, rf)

    def test_column_independence_exact(self, trefoil, p935):
        for p in (trefoil, p935):
            rho = abelian_rep(p, Fraction(3, 2))
            vals = [wada_invariant(p, rho, removed=k).value
                    for k in range(p.num_generators)]
            for v in vals[1:]:
                assert equal_up_to_even_shift(vals[0], v)

    def test_column_independence_numeric(self, trefoil_irr):
        p = trefoil_irr.presentation
        polys = [wada_invariant(p, trefoil_irr, removed=k).polynomial
                 for k in range(p.num_generators)]
        assert all(q is not None for q in polys)
        for q in polys[1:]:
            assert normalized_close(polys[0], q, tol=1e-8)

    def test_conjugation_invariance(self, trefoil_irr):
        rng = np.random.default_rng(11)
        p = trefoil_irr.presentation
        base = wada_invariant(p, trefoil_irr).polynomial
        for _ in range(5):
            conj = trefoil_irr.conjugate(random_det1_matrix(rng))
            other = wada_invariant(p, conj).polynomial
            assert normalized_close(base, other, tol=1e-8)

    def test_default_removed_column_is_last(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(2))
        default = wada_invariant(trefoil, rho)
        explicit = wada_invariant(trefoil, rho,
                                  removed=trefoil.num_generators - 1)
        assert default.value == explicit.value


class TestMakeTwisted:
    def test_polynomial_case_normalized(self):
        r = LaurentRational(P(2, 0, 2, min_exp=-3), P(1))
        ta = make_twisted(r)
        assert ta.polynomial == P(2, 0, 2)
        assert ta.degree == 2
        assert ta.leading == 2
        assert not ta.monic

    def test_leading_minus_one_is_not_monic(self):
        ta = make_twisted(LaurentRational(P(-1, 0, -1), P(1)))
        assert abs(complex(ta.leading) + 1) < 1e-12
        assert not ta.monic

    def test_monic_tolerance(self):
        ta = make_twisted(LaurentRational(
            LaurentPoly({0: 1.0 + 0j, 2: 1.0 + 5e-6j}), LaurentPoly({0: 1.0 + 0j})))
        assert ta.monic  # within the 1e-5 default
        ta2 = make_twisted(LaurentRational(
            LaurentPoly({0: 1.0 + 0j, 2: 1.0 + 5e-6j}), LaurentPoly({0: 1.0 + 0j})),
            monic_tol=1e-7)
        assert not ta2.monic

    def test_nonpolynomial_case(self):
        ta = make_twisted(LaurentRational(P(1, 1), P(1, 0, 1)))
        assert ta.polynomial is None
        assert ta.degree is None
        assert ta.leading is None
        assert not ta.monic


class TestGenusBounds:
    def test_lower_bound_values(self):
        ta2 = make_twisted(LaurentRational(P(1, 0, 1), P(1)))
        assert genus_lower_bound(ta2) == 1
        ta6 = make_twisted(LaurentRational(P(1, 0, 0, 0, 0, 0, 1), P(1)))
        assert genus_lower_bound(ta6) == 2

    def test_degree_zero(self):
        ta = make_twisted(LaurentRational(P(1), P(1)))
        assert genus_lower_bound(ta) == 0
        assert genus_lower_bound(ta, nontrivial=True) == 1

    def test_odd_degree_rejected(self):
        ta = make_twisted(LaurentRational(P(1, 1), P(1)))
        with pytest.raises(CertificationError):
            genus_lower_bound(ta)

    def test_nonpolynomial_rejected(self):
        ta = make_twisted(LaurentRational(P(1, 1), P(1, 0, 1)))
        with pytest.raises(AlgebraError):
            genus_lower_bound(ta)

    def test_determines_genus(self, trefoil_irr):
        ta = wada_invariant(trefoil_irr.presentation, trefoil_irr)
        assert determines_genus(ta, 1)
        assert not determines_genus(ta, 2)
        with pytest.raises(AlgebraError):
            determines_genus(ta, 0)


class TestCoefficientProfile:
    def test_centered_window(self):
        ta = make_twisted(LaurentRational(P(2, 3, 2), P(1)))
        psi = coefficient_profile(ta, 2)  # window 0..4g-2 = 0..6
        assert len(psi) == 7
        assert [complex(c).real for c in psi[2:5]] == [2.0, 3.0, 2.0]
        assert all(complex(c) == 0 for c in psi[:2] + psi[5:])

    def test_full_window(self, trefoil_irr):
        ta = wada_invariant(trefoil_irr.presentation, trefoil_irr)
        psi = coefficient_profile(ta, 1)
        assert len(psi) == 3
        assert abs(complex(psi[0]) - complex(psi[2])) <= 1e-6

    def test_asymmetric_rejected(self):
        ta = make_twisted(LaurentRational(P(1, 5, 2), P(1)))
        with pytest.raises(CertificationError):
            coefficient_profile(ta, 1)

    def test_parity_mismatch_rejected(self):
        ta = make_twisted(LaurentRational(P(1, 1), P(1)))
        with pytest.raises(CertificationError):
            coefficient_profile(ta, 1)

    def test_window_too_small_rejected(self):
        ta = make_twisted(LaurentRational(P(2, 3, 3, 2, 1), P(1)))
        with pytest.raises(CertificationError):
            coefficient_profile(ta, 1)


class TestNormalizedClose:
    def test_shift_invariance(self):
        p = P(1, 0, 1)
        assert normalized_close(p, p.shift(4))
        assert normalized_close(p, p.shift(-3))

    def test_scale_sensitivity(self):
        p = P(1, 0, 1)
        assert not normalized_close(p, p.scale(Fraction(3)))

    def test_distinct_polynomials(self):
        assert not normalized_close(P(1, 0, 1), P(1, 1, 1))

    def test_zero_cases(self):
        assert normalized_close(LaurentPoly.zero(), LaurentPoly.zero())
        assert not normalized_close(P(1), LaurentPoly.zero())
