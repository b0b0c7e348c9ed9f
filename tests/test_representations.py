"""SL(2,C) representations: exact diagonal ones and solved nonabelian ones."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

import talex
from talex import (
    AlgebraError,
    Presentation,
    Representation,
    abelian_rep,
    burde_derham_check,
    character_of,
    parse_constraints,
    parse_presentation,
    reducible_formula,
    satellite_alexander,
    solve_representation,
)
from talex.errors import SolveError

from conftest import P, random_det1_matrix


class TestAbelianRep:
    def test_traces_at_one(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(1))
        assert rho.trace(trefoil.word("a")) == 2
        assert rho.trace(trefoil.word("ababab")) == 2
        assert rho.is_exact()
        assert rho.relator_residual() == 0.0

    def test_traces_at_i(self, trefoil):
        rho = abelian_rep(trefoil, 1j)
        assert abs(rho.trace(trefoil.word("a"))) < 1e-12

    def test_trace_depends_only_on_exponent_sum(self, trefoil):
        lam = Fraction(5, 3)
        rho = abelian_rep(trefoil, lam)
        for text, m in (("a", 1), ("ab", 2), ("aB", 0), ("aabbb", 5)):
            want = lam ** m + lam ** -m
            assert rho.trace(trefoil.word(text)) == want

    def test_zero_rejected(self, trefoil):
        with pytest.raises(AlgebraError):
            abelian_rep(trefoil, 0)

    def test_requires_vanishing_exponent_sums(self):
        p = parse_presentation("gens: a b\nrel: aab\n")
        with pytest.raises(AlgebraError):
            abelian_rep(p, Fraction(2))

    def test_is_reducible(self, trefoil):
        assert abelian_rep(trefoil, Fraction(2)).is_reducible()


class TestRepresentation:
    def test_image_of_inverse(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(3))
        m = rho.image(trefoil.word("A"))
        assert m[0][0] == Fraction(1, 3) and m[1][1] == Fraction(3)

    def test_identity_image(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(3))
        m = rho.image(trefoil.word(""))
        assert m[0][0] == 1 and m[0][1] == 0 and m[1][0] == 0 and m[1][1] == 1

    def test_json_round_trip(self, trefoil_irr):
        data = trefoil_irr.to_json_dict()
        back = Representation.from_json_dict(data, trefoil_irr.presentation)
        for a, b in zip(trefoil_irr.matrices, back.matrices):
            for i in range(2):
                for j in range(2):
                    assert abs(complex(a[i][j]) - complex(b[i][j])) < 1e-14

    def test_conjugate_preserves_residual_scale(self, trefoil_irr):
        g = random_det1_matrix(np.random.default_rng(0))
        conj = trefoil_irr.conjugate(g)
        assert conj.relator_residual() < 1e-8

    def test_determinant_drift(self, trefoil_irr):
        assert trefoil_irr.determinant_drift() < 1e-12


class TestCharacters:
    def test_character_of_collects_traces(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(2))
        words = [trefoil.word("a"), trefoil.word("ab")]
        chi = character_of(rho, words)
        assert chi[words[0]] == Fraction(5, 2)
        assert chi[words[1]] == Fraction(17, 4)

    def test_character_is_a_plain_dict(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(3))
        words = [trefoil.word("a"), trefoil.word("b")]
        chi = character_of(rho, words)
        assert type(chi) is dict
        assert chi == {w: Fraction(10, 3) for w in words}

    def test_characters_are_conjugation_invariant(self, trefoil_irr):
        rng = np.random.default_rng(7)
        words = [trefoil_irr.presentation.word(w)
                 for w in ("a", "b", "ab", "aB", "abab")]
        chi = character_of(trefoil_irr, words)
        for _ in range(5):
            conj = trefoil_irr.conjugate(random_det1_matrix(rng))
            chi2 = character_of(conj, words)
            for w in words:
                assert abs(complex(chi[w]) - complex(chi2[w])) < 1e-8


class TestBurdeDerham:
    def test_root_of_nine_crossing_polynomial(self):
        delta = P(7, -13, 7)
        lam = cmath.sqrt((13 + 1j * 27 ** 0.5) / 14)
        assert burde_derham_check(delta, lam)

    def test_non_root(self):
        assert not burde_derham_check(P(1, -1, 1), 1.0)

    def test_trefoil_sixth_root(self):
        lam = cmath.exp(1j * cmath.pi / 6)
        assert burde_derham_check(P(1, -1, 1), lam)

    def test_exact_rational_decision(self):
        # (t - 4)(t - 1/4) = t^2 - 17/4 t + 1 has lambda^2 = 4 as a root
        delta = P(1, Fraction(-17, 4), 1)
        assert burde_derham_check(delta, Fraction(2))
        assert not burde_derham_check(delta, Fraction(3))


class TestReducibleFormula:
    def test_generic_rational_lambda_is_not_polynomial(self, trefoil):
        delta = P(1, -1, 1)
        r = reducible_formula(delta, Fraction(2))
        assert not r.is_polynomial()

    def test_at_root_gives_polynomial_with_squared_leading(self):
        delta = P(7, -13, 7)
        lam = cmath.sqrt((13 + 1j * 27 ** 0.5) / 14)
        r = reducible_formula(delta, lam)
        poly = r.attempt_polynomial(1e-8)
        assert poly is not None
        assert poly.degree() == 2
        assert abs(poly.leading() - 49) < 1e-6

    def test_monic_case(self):
        lam = cmath.exp(1j * cmath.pi / 6)  # lambda^2 is a root of t^2 - t + 1
        r = reducible_formula(P(1, -1, 1), lam)
        poly = r.attempt_polynomial(1e-8)
        assert poly is not None
        assert abs(poly.leading() - 1) < 1e-8

    def test_trivial_pattern(self):
        r = reducible_formula(P(1), Fraction(2))
        assert not r.is_polynomial()
        assert r.num == P(1)

    def test_matches_wada_exactly(self, trefoil):
        delta = talex.alexander(trefoil)
        for lam in (Fraction(2), Fraction(3, 2), Fraction(-5, 7)):
            ta = talex.wada_invariant(trefoil, abelian_rep(trefoil, lam))
            assert ta.value == reducible_formula(delta, lam)


class TestSatellite:
    def test_zero_winding_keeps_pattern(self):
        pat = P(7, -13, 7)
        assert satellite_alexander(pat, P(1, -1, 1), 0) == pat

    def test_square_winding(self):
        out = satellite_alexander(P(1, -1, 1), P(1, -1, 1), 2)
        assert out == P(1, -1, 0, 1, 0, -1, 1)

    def test_unknot_pattern_gives_companion_term(self):
        out = satellite_alexander(P(1), P(2, -3, 2), 1)
        assert out == P(2, -3, 2)

    def test_frozen_products(self):
        pat, comp = P(7, -13, 7), P(1, -1, 1)
        assert satellite_alexander(pat, comp, 1) == P(7, -20, 27, -20, 7)
        assert satellite_alexander(pat, comp, 2) == P(7, -13, 0, 13, 0, -13, 7)

    def test_negative_winding_matches_positive(self):
        pat, comp = P(7, -13, 7), P(1, -1, 1)
        assert (satellite_alexander(pat, comp, -2)
                == satellite_alexander(pat, comp, 2))

    def test_rejects_unnormalized_input(self):
        with pytest.raises(AlgebraError):
            satellite_alexander(P(1, 1), P(1, -1, 1), 1)  # delta(1) = 2
        with pytest.raises(AlgebraError):
            satellite_alexander(P(1, -1, 1), P(1, 1), 1)

    def test_rejects_inexact_input(self):
        from conftest import CP
        with pytest.raises(AlgebraError):
            satellite_alexander(CP(1, -1, 1), P(1, -1, 1), 1)


class TestParseConstraints:
    def test_grammar(self, trefoil):
        cons = parse_constraints(
            "# comment\ntrace a = 2.1 0\ntrace ab = 1 -0.5\n", trefoil)
        assert cons[trefoil.word("a")] == 2.1 + 0j
        assert cons[trefoil.word("ab")] == 1 - 0.5j

    def test_errors(self, trefoil):
        from talex.errors import ParseError
        with pytest.raises(ParseError):
            parse_constraints("trace a = 2.1\n", trefoil)
        with pytest.raises(ParseError):
            parse_constraints("trace a 2.1 0\n", trefoil)
        with pytest.raises(ParseError):
            parse_constraints("trace q = 1 0\n", trefoil)
        with pytest.raises(ParseError):
            parse_constraints("trace a = x 0\n", trefoil)

    def test_conjugate_meridians_must_share_traces(self, trefoil):
        cons = {trefoil.word("a"): 2.0 + 0j, trefoil.word("b"): 3.0 + 0j,
                trefoil.word("ab"): 1.0 + 0j}
        with pytest.raises(SolveError):
            solve_representation(trefoil, cons, seed=0, restarts=5)


class TestSolveRepresentation:
    def test_golden_ratio_trace_slice(self, trefoil):
        tau = 2 * np.cos(np.pi / 5)
        cons = {trefoil.word("a"): complex(tau), trefoil.word("b"): complex(tau),
                trefoil.word("ab"): 1.0 + 0j}
        rho = solve_representation(trefoil, cons, seed=0)
        assert rho.relator_residual() <= 1e-10
        assert rho.determinant_drift() <= 1e-12
        assert abs(rho.trace(trefoil.word("a")) - tau) < 1e-9
        assert not rho.is_reducible()

    def test_deterministic_for_fixed_seed(self, trefoil):
        cons = {trefoil.word("a"): 2.1 + 0j, trefoil.word("b"): 2.1 + 0j,
                trefoil.word("ab"): 1.0 + 0j}
        r1 = solve_representation(trefoil, cons, seed=3)
        r2 = solve_representation(trefoil, cons, seed=3)
        for a, b in zip(r1.matrices, r2.matrices):
            assert a == b

    def test_unsatisfiable_constraints_raise(self, trefoil):
        cons = {trefoil.word("a"): 9.0 + 0j, trefoil.word("b"): 9.0 + 0j,
                trefoil.word("ab"): 0j}
        with pytest.raises(SolveError):
            solve_representation(trefoil, cons, seed=0, restarts=8)

    def test_reducible_locus_reported(self, trefoil):
        # on the slice tr(ab) = 1, commutator trace 2 forces reducibility
        s = complex(3 ** 0.5)
        cons = {trefoil.word("a"): s, trefoil.word("b"): s,
                trefoil.word("ab"): 1.0 + 0j}
        with pytest.raises(SolveError, match="reducible"):
            solve_representation(trefoil, cons, seed=0, restarts=40)

    def test_irreducibility_check_optional(self, trefoil):
        s = complex(3 ** 0.5)
        cons = {trefoil.word("a"): s, trefoil.word("b"): s,
                trefoil.word("ab"): 1.0 + 0j}
        rho = solve_representation(trefoil, cons, seed=0, restarts=40,
                                   require_irreducible=False)
        assert rho.is_reducible()
        assert rho.relator_residual() <= 1e-8

    def test_three_generator_solve(self, p935):
        from talex.charcurves import curve_constraints
        cons = {p935.word(w): t
                for w, t in curve_constraints(2.5, 5.25).items()}
        rho = solve_representation(p935, cons, seed=0, restarts=60)
        assert rho.relator_residual() <= 1e-10
        for w, t in curve_constraints(2.5, 5.25).items():
            assert abs(rho.trace(p935.word(w)) - t) < 1e-8
