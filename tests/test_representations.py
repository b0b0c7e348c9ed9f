"""SL(2,C) representations: exact diagonal ones and solved nonabelian ones."""

import cmath
import hashlib
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from numbers import Number, Rational

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import talex
from talex import (
    AlgebraError,
    Presentation,
    Representation,
    abelian_rep,
    burde_derham_check,
    closed_form_representation,
    parse_constraints,
    parse_presentation,
    reducible_formula,
    representation_from_traces,
    satellite_alexander,
    solve_representation,
    wada_invariant,
)
from talex.errors import SolveError
from talex._sl2 import (_COMPLEX_ID, _EXACT_ID, _Equations,
                        _det_one_on_trace_rows, _gauge_images, _jacobian,
                        _mat_adjugate, _mat_det, _mat_mul, _residual, _rows,
                        _word_product)

from conftest import (P, load_fixture_text, random_det1_matrix, random_word,
                      reference_image, same_number)


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


class TestIsReducible:
    @pytest.mark.parametrize("lam", [Fraction(2), Fraction(1), 1.5 - 0.5j])
    def test_abelian_three_generator_representations(self, p935, lam):
        assert abelian_rep(p935, lam).is_reducible()

    def test_trefoil_burde_de_rham_point(self, trefoil):
        # m^2 = e^{i pi/3} is a root of t^2 - t + 1, so the upper-triangular
        # nonabelian pair with eigenvalue m satisfies the relator
        m = cmath.exp(1j * math.pi / 6)
        rho = Representation(trefoil, [(m, 1, 0, 1 / m), (m, 0, 0, 1 / m)])
        assert rho.relator_residual() <= 1e-15
        assert rho.is_reducible()

    def test_nine_35_burde_de_rham_point(self, p935):
        # m^2 a root of 7t^2 - 13t + 7, all two-letter traces m^2 + m^-2
        m = cmath.sqrt((13 + cmath.sqrt(-27)) / 14)
        y = m + 1 / m
        cons = {p935.word(w): v for w, v in (
            ("a", y), ("b", y), ("c", y), ("ab", y * y - 2),
            ("bc", y * y - 2), ("ca", y * y - 2))}
        rho = solve_representation(p935, cons, seed=0,
                                   require_irreducible=False)
        assert rho.relator_residual() <= 1e-10
        assert rho.is_reducible()

    def test_pairwise_eigenvectors_are_not_enough(self, trefoil, p935):
        # A, B share e1, B, C share e2, C, A share (1, 1): every commutator
        # trace is 2, but no vector is an eigenvector of all three
        a = (3.0, 1 / 3 - 3.0, 0.0, 1 / 3)
        b = (2.0, 0.0, 0.0, 0.5)
        c = (1 / 3, 0.0, 1 / 3 - 3.0, 3.0)
        for pair in ((a, b), (b, c), (c, a)):
            assert Representation(trefoil, pair).is_reducible()
        assert not Representation(p935, [a, b, c]).is_reducible()
        assert Representation(p935, [a, b, b]).is_reducible()


class TestRepresentation:
    def test_image_of_inverse(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(3))
        m = rho.image(trefoil.word("A"))
        assert m[0] == Fraction(1, 3) and m[3] == Fraction(3)

    def test_identity_image(self, trefoil):
        rho = abelian_rep(trefoil, Fraction(3))
        m = rho.image(trefoil.word(""))
        assert m == (1, 0, 0, 1)

    @pytest.mark.parametrize("letter", [3, -3, 4, -4, 5])
    def test_letter_beyond_the_generators_is_refused(self, trefoil, letter):
        # letters 3 and 4 of a two-generator letter table would index the
        # adjugates of the generators instead of failing
        for rho in (abelian_rep(trefoil, Fraction(3)),
                    abelian_rep(trefoil, 1.5 + 0.5j)):
            with pytest.raises(AlgebraError, match="beyond the 2 generators"):
                rho.image(talex.FreeWord([1, letter]))

    def test_json_round_trip(self, trefoil_irr):
        data = trefoil_irr.to_json_dict()
        back = Representation.from_json_dict(data, trefoil_irr.presentation)
        # bytes, not values: the signs of zero entries must agree too
        assert (np.array(back.matrices, dtype=complex).tobytes()
                == np.array(trefoil_irr.matrices, dtype=complex).tobytes())

    def test_conjugate_preserves_residual_scale(self, trefoil_irr):
        g = random_det1_matrix(np.random.default_rng(0))
        conj = trefoil_irr.conjugate(g)
        assert conj.relator_residual() < 1e-8

    def test_a_nan_entry_fails_every_residual_bound(self, trefoil_irr):
        mats = [list(m) for m in trefoil_irr.matrices]
        mats[1][2] = complex(float("nan"), 0.0)
        rho = Representation(trefoil_irr.presentation, mats)
        assert rho.relator_residual() == float("inf")

    def test_solved_and_closed_form_entries_are_plain_complex(self, p935):
        # Newton without ca, the closed form with it
        cons = {"a": 2.5, "b": 2.5, "c": 2.5, "ab": 5.25, "bc": 5.25}
        newton = solve_representation(p935, cons, seed=0)
        closed = closed_form_representation(p935, {**cons, "ca": 5.25})
        for rho in (newton, closed):
            assert all(type(e) is complex for m in rho.matrices for e in m)


def _nested_mul(a, b):
    """The 2x2 product of flat a and b through nested lists."""
    x, y = [a[0:2], a[2:4]], [b[0:2], b[2:4]]
    return [sum(x[i][k] * y[k][j] for k in range(2))
            for i in range(2) for j in range(2)]


_FLAT_FRACTIONS = st.tuples(*[st.fractions(-9, 9, max_denominator=7)] * 4)


class TestMatrixFormat:
    @pytest.mark.parametrize("mats", [
        [((1, 0), (0, 1)), ((2, 0), (0, 0.5))],
        [(1, 0, 0), (2, 0, 0, 0.5)],
        [(1, 0, 0, 1, 0), (2, 0, 0, 0.5)],
        [np.eye(2), (2, 0, 0, 0.5)],
        [1, (2, 0, 0, 0.5)],
    ], ids=["nested", "three-entries", "five-entries", "2x2-array",
            "scalar"])
    def test_refuses_other_shapes(self, trefoil, mats):
        with pytest.raises(AlgebraError, match="four numbers"):
            Representation(trefoil, mats)

    def test_accepts_flat_sequences(self, trefoil):
        rho = Representation(trefoil, [[1, 0, 0, 1], np.array([2, 0, 0, 0.5])])
        assert all(type(m) is tuple and len(m) == 4 for m in rho.matrices)

    @pytest.mark.parametrize("mats", [
        [(1, 0, 0, 1), (Fraction(3, 2), 0, 0, Fraction(2, 3))],
        [(1, 0, 0, 1), (2.0, 0, 0, 0.5)],
        [(1j, 0, 0, -1j), (1, 0, 0, 1)],
        [(np.float64(2), 0, 0, 0.5), (1, 0, 0, 1)],
        [(np.complex128(1j), 0, 0, -1j), (1, 0, 0, 1)],
        [(np.int64(1), 0, 0, 1), (1, np.int64(2), 0, Fraction(1))],
        [np.array([1, 0, 0, 1]), np.array([1, 2, 0, 1])],
        [(True, False, False, True), (1, 0, 0, 1)],
        [(Decimal(1), 0, 0, 1), (1, 0, 0, 1)],
        [("1", 0, 0, 1), (1, 0, 0, 1)],
        [(None, 0, 0, 1), (1, 0, 0, 1)],
        [(1, 0, 0, 1), "abcd"],
        [(1, 0, 0, 1), None],
        [(1, 0, 0, 1), (1, 0, 0, [1])],
    ], ids=["fraction", "float", "complex", "np.float64", "np.complex128",
            "np.int64", "int-array", "bool", "decimal", "str", "none-entry",
            "str-image", "none-image", "list-entry"])
    def test_type_rule_matches_the_abcs(self, trefoil, mats):
        """Refused or accepted, and is_exact(), as the numbers ABCs decide
        on every entry."""
        flat = [tuple(m) if np.iterable(m) else () for m in mats]
        if not all(len(m) == 4 and all(isinstance(e, Number) for e in m)
                   for m in flat):
            with pytest.raises(AlgebraError, match="four numbers"):
                Representation(trefoil, mats)
            return
        rho = Representation(trefoil, mats)
        assert rho.is_exact() == all(isinstance(e, Rational)
                                     for m in flat for e in m)
        assert rho.matrices == flat

    @settings(max_examples=200, deadline=None)
    @given(_FLAT_FRACTIONS, _FLAT_FRACTIONS, _FLAT_FRACTIONS)
    def test_mat_mul_matches_nested_lists_and_associates(self, a, b, c):
        assert list(_mat_mul(a, b)) == _nested_mul(a, b)
        assert _mat_mul(_mat_mul(a, b), c) == _mat_mul(a, _mat_mul(b, c))
        d = _mat_det(a)
        assert _mat_mul(a, _mat_adjugate(a)) == (d, 0, 0, d)


_SIGNED_COMPLEX = st.one_of(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.sampled_from([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]))


@st.composite
def _letters_and_word(draw):
    """A letter table of 1-3 complex or Fraction images, signed zeros among
    the complex ones, and a nonempty word over it."""
    entries = draw(st.sampled_from((_SIGNED_COMPLEX,
                                    st.fractions(-9, 9, max_denominator=7))))
    gens = draw(st.lists(st.tuples(*[entries] * 4), min_size=1, max_size=3))
    letter = st.integers(1, len(gens)).flatmap(
        lambda g: st.sampled_from((g, -g)))
    return (talex._sl2._letter_images(gens),
            draw(st.lists(letter, min_size=1, max_size=12)))


class TestWordProduct:
    @settings(max_examples=200, deadline=None)
    @given(_letters_and_word())
    def test_is_the_mat_mul_fold_bit_for_bit(self, case):
        letters, word = case
        mats = [letters[x] for x in word]
        start = (_EXACT_ID if type(mats[0][0]) is Fraction else _COMPLEX_ID)
        for got, want in (
                (_word_product(letters, word[1:], letters[word[0]]),
                 reduce(_mat_mul, mats)),
                (_word_product(letters, word, start),
                 reduce(_mat_mul, mats, start))):
            assert len(got) == 4 and all(map(same_number, got, want))

    def test_image_and_rows_on_fixed_representations(self, trefoil,
                                                     trefoil_irr,
                                                     p935_curve_rep):
        rng = np.random.default_rng(40)
        for rho in (trefoil_irr, p935_curve_rep,
                    abelian_rep(trefoil, Fraction(3, 2))):
            p = rho.presentation
            words = [*p.relators, p.word(""), p.word("A"),
                     *(random_word(rng, p.num_generators, 9)
                       for _ in range(20))]
            for w in words:
                assert all(map(same_number, rho.image(w),
                               reference_image(rho, w)))
            if rho.is_exact():
                continue
            eq = _Equations(p, {w: 1.5 + 0j for w in words[-20:]})
            imgs = talex._sl2._letter_images(rho.matrices)
            assert (np.array(_rows(eq, imgs), dtype=complex).tobytes()
                    == _reference_rows(eq, imgs).tobytes())


def _lstsq_det_one(prods, traces):
    """The LAPACK route to the matrices C of _det_one_on_trace_rows, kept
    as an oracle: c0 from np.linalg.lstsq, the null vector from
    np.linalg.svd."""
    mat = np.array(prods, dtype=complex)[:, [0, 2, 1, 3]]
    b = np.array(traces, dtype=complex)
    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(b))):
        return []
    c0, *_ = np.linalg.lstsq(mat, b, rcond=None)
    if np.linalg.norm(mat @ c0 - b) > 1e-9 * max(1.0, np.linalg.norm(b)):
        return []
    _, sv, vh = np.linalg.svd(mat)
    null = vh[np.sum(sv > 1e-10 * sv[0]):].conj().T
    if null.shape[1] != 1:
        return []
    nv = null[:, 0]
    q2 = _mat_det(nv)
    q1 = c0[0] * nv[3] + nv[0] * c0[3] - c0[1] * nv[2] - nv[1] * c0[2]
    q0 = _mat_det(c0) - 1.0
    if abs(q2) > 1e-12:
        disc = np.sqrt(q1 * q1 - 4.0 * q2 * q0)
        roots = [(-q1 + disc) / (2 * q2), (-q1 - disc) / (2 * q2)]
        big = 0 if abs(roots[0]) >= abs(roots[1]) else 1
        if roots[big] != 0:
            roots[1 - big] = q0 / (q2 * roots[big])
    elif abs(q1) > 1e-12:
        roots = [-q0 / q1]
    else:
        return []
    return [c0 + s * nv for s in roots]


def _rows_from(c, prods):
    """traces[k] = tr(P_k C) for the products P_k."""
    return [sum(_mat_mul(p, c)[::3]) for p in prods]


def _nearest(m, cands):
    return min(np.linalg.norm(np.subtract(m, c)) for c in cands)


# Pairs of words in A and B whose products do not commute in the free
# group, as Tietze letters (-1 is A^-1).
_NONCOMMUTING = [((1,), (2,)), ((1, 2), (2, 1)), ((1, 2, 1), (2,)),
                 ((1, -2), (2, 2)), ((2, -1, 2), (1, 2))]


def _word_image(letters, a, b):
    mats = {1: a, 2: b, -1: _mat_adjugate(a), -2: _mat_adjugate(b)}
    out = _COMPLEX_ID
    for x in letters:
        out = _mat_mul(out, mats[x])
    return out


class TestDetOneOnTraceRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(_NONCOMMUTING))
    def test_matches_the_lstsq_route_and_contains_c(self, seed, words):
        rng = np.random.default_rng(seed)
        a, b, c = (random_det1_matrix(rng) for _ in range(3))
        prods = [_COMPLEX_ID] + [_word_image(w, a, b) for w in words]
        traces = _rows_from(c, prods)
        oracle = _lstsq_det_one(prods, traces)
        # Away from dependent rows (the rows' condition number, squared by
        # the Gram system, stays below 1e3) and from a double root, both
        # routes are accurate to 1e-9.
        sv = np.linalg.svd(np.array(prods)[:, [0, 2, 1, 3]],
                           compute_uv=False)
        assume(sv[0] <= 1e3 * sv[2] and len(oracle) == 2)
        scale = max(np.linalg.norm(m) for m in oracle)
        assume(np.linalg.norm(oracle[0] - oracle[1]) >= 1e-3 * scale)
        cands = _det_one_on_trace_rows(prods, traces)
        assert len(cands) == 2
        assert all(type(m) is tuple and len(m) == 4 for m in cands)
        for m in cands:
            assert _nearest(m, oracle) <= 1e-9 * scale
        for m in oracle:
            assert _nearest(m, cands) <= 1e-9 * scale
        assert _nearest(c, cands) <= 1e-9 * scale

    def _pair(self):
        rng = np.random.default_rng(7)
        return (random_det1_matrix(rng) for _ in range(3))

    def test_commuting_rows_are_refused(self):
        a, _, c = self._pair()
        prods = [_COMPLEX_ID, a, _mat_adjugate(a)]
        traces = _rows_from(c, prods)
        assert _det_one_on_trace_rows(prods, traces) == []
        assert _lstsq_det_one(prods, traces) == []

    def test_a_line_of_constant_det_is_refused(self):
        # B diagonal and A, C upper triangular: the null vector is the
        # upper corner, along which det C does not change (d = 0 in the
        # closed form's gauge)
        a = (1.7 + 0.2j, 1.0, 0j, 1 / (1.7 + 0.2j))
        b = (0.6 - 0.9j, 0j, 0j, 1 / (0.6 - 0.9j))
        c = (2.1 + 0.4j, -0.3 + 1.1j, 0j, 1 / (2.1 + 0.4j))
        prods = [_COMPLEX_ID, b, a]
        traces = _rows_from(c, prods)
        assert _det_one_on_trace_rows(prods, traces) == []
        assert _lstsq_det_one(prods, traces) == []

    @pytest.mark.parametrize("where", ["product", "trace"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_entry_is_refused(self, where, value):
        a, b, c = self._pair()
        prods = [_COMPLEX_ID, a, b]
        traces = _rows_from(c, prods)
        if where == "product":
            prods[2] = (b[0], complex(value), b[2], b[3])
        else:
            traces[1] = complex(value)
        assert _det_one_on_trace_rows(prods, traces) == []
        assert _lstsq_det_one(prods, traces) == []

    def test_an_inconsistent_fourth_row_is_refused(self):
        # A^-1 = (tr A) I - A: the fourth row is dependent on the first two
        a, b, c = self._pair()
        prods = [_COMPLEX_ID, a, b, _mat_adjugate(a)]
        traces = _rows_from(c, prods)
        assert len(_det_one_on_trace_rows(prods, traces)) == 2
        traces[3] += 1e-6
        assert _det_one_on_trace_rows(prods, traces) == []
        assert _lstsq_det_one(prods, traces) == []

    def test_a_fourth_row_off_the_null_vector_is_refused(self):
        # I, A, B and AB span all 2x2 matrices, so no line of C solves
        # them, even where the fourth trace holds at the minimum-norm point
        # c0 of the first three rows
        a, b, c = self._pair()
        prods = [_COMPLEX_ID, a, b]
        c0, *_ = np.linalg.lstsq(np.array(prods)[:, [0, 2, 1, 3]],
                                 _rows_from(c, prods), rcond=None)
        prods.append(_mat_mul(a, b))
        traces = _rows_from(c0, prods)
        assert _det_one_on_trace_rows(prods, traces) == []
        assert _lstsq_det_one(prods, traces) == []

    def test_the_first_noncommuting_pair_is_used(self):
        a, b, c = self._pair()
        prods = [_COMPLEX_ID, a, _mat_adjugate(a), b]
        cands = _det_one_on_trace_rows(prods, _rows_from(c, prods))
        assert _nearest(c, cands) <= 1e-10


class TestCharacters:
    def test_characters_are_conjugation_invariant(self, trefoil_irr):
        rng = np.random.default_rng(7)
        words = [trefoil_irr.presentation.word(w)
                 for w in ("a", "b", "ab", "aB", "abab")]
        for _ in range(5):
            conj = trefoil_irr.conjugate(random_det1_matrix(rng))
            for w in words:
                assert abs(complex(trefoil_irr.trace(w))
                           - complex(conj.trace(w))) < 1e-8


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
        assert r.attempt_polynomial() is None

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
        assert r.attempt_polynomial() is None
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
        for a, q, d, b in rho.matrices:
            assert abs(a * b - q * d - 1.0) <= 1e-12
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

    def test_start_takes_the_eigenvalue_that_does_not_cancel(self):
        # for Re y < 0 the principal sqrt(y^2 - 4) is near -y, so the
        # start (y + sqrt(y^2 - 4)) / 2 cancels to 0; a start at 0 divided
        # by zero instead of failing as a solve
        p = parse_presentation("gens: a\n")
        with pytest.raises(SolveError, match="reducible"):
            solve_representation(p, {p.word("a"): -1 + 134217728j})

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


def _trefoil_traces(y, z, **extra):
    return {"a": y, "b": y, "ab": z, **extra}


def _torus_pair(n):
    """T(2, n) as <a, b | (ab)^k a (ab)^-k b^-1>, n = 2k + 1."""
    k = (n - 1) // 2
    return parse_presentation("gens: a b\nrel: %s\n"
                              % ("ab" * k + "a" + "BA" * k + "B"))


class TestTwoGeneratorClosedForm:
    def test_on_curve_point_in_the_balanced_gauge(self, trefoil):
        rho = closed_form_representation(trefoil, _trefoil_traces(2.1, 1.0))
        assert rho.residual <= 1e-13
        assert not rho.is_reducible()
        a, q, _, a_inv = rho.matrices[0]
        b_inv, _, d, b = rho.matrices[1]
        # x = [a, s, 1/b, s]: equal couplings, B's inverse eigenvalue on top
        assert q == d and a_inv == 1.0 / a and b_inv == 1.0 / b
        assert abs(a) >= 1 and abs(b) >= 1
        for w, v in _trefoil_traces(2.1, 1.0).items():
            assert abs(rho.trace(trefoil.word(w)) - v) <= 1e-13

    @pytest.mark.parametrize("z", [0.8, 0.9, 1.1, 1.2])
    def test_off_curve_reason_carries_the_residual(self, trefoil, z):
        with pytest.raises(SolveError, match="no irreducible representation"
                           ) as info:
            closed_form_representation(trefoil, _trefoil_traces(2.1, z))
        exc = info.value
        assert exc.best_residual > 0.1
        assert "max|f| %.1e > 1e-10" % exc.best_residual in str(exc)
        assert exc.restarts == 0

    def test_burde_de_rham_point_is_only_reducible(self, trefoil):
        # m^2 = e^{i pi/3} is a root of t^2 - t + 1: the reducible
        # character tr ab = y^2 - 2 meets the irreducible line tr ab = 1
        m = cmath.exp(1j * math.pi / 6)
        cons = _trefoil_traces(m + 1 / m, (m + 1 / m) ** 2 - 2)
        with pytest.raises(SolveError, match="only reducible") as info:
            closed_form_representation(trefoil, cons)
        # on the character variety: the closed form meets the tolerance
        assert info.value.best_residual <= 1e-10

    def test_extra_constraints_are_checked(self, trefoil):
        # tr(aB) = tr a tr b - tr ab on every representation
        good = _trefoil_traces(2.1, 1.0, aB=2.1 * 2.1 - 1.0)
        assert closed_form_representation(trefoil, good).residual <= 1e-13
        with pytest.raises(SolveError) as info:
            closed_form_representation(trefoil, {**good, "aB": 3.0})
        assert info.value.best_residual == pytest.approx(0.41, rel=1e-9)

    def test_needs_two_generators_and_the_pair_traces(self, trefoil, p935):
        with pytest.raises(AlgebraError):
            closed_form_representation(trefoil, {"a": 2.1, "b": 2.1})
        with pytest.raises(AlgebraError):
            closed_form_representation(
                p935, {"a": 2.5, "b": 2.5, "c": 2.5, "ab": 5.25})

    def test_dispatch(self, trefoil, monkeypatch):
        from talex import representations
        calls = []

        def spy(p, cons, seed=0):
            calls.append(seed)
            return solve_representation(p, cons, seed=seed)

        monkeypatch.setattr(representations, "solve_representation", spy)
        a = representation_from_traces(trefoil, _trefoil_traces(2.1, 1.0), 3)
        b = closed_form_representation(trefoil, _trefoil_traces(2.1, 1.0))
        assert a.matrices == b.matrices and calls == []
        # without tr ab the traces leave a curve: the solver picks a point
        representation_from_traces(trefoil, {"a": 2.1, "b": 2.1}, seed=5)
        assert calls == [5]

    def test_agrees_with_newton_far_out(self, trefoil):
        # on-curve trefoil characters with |y| up to about 45
        rng = np.random.default_rng(11)
        words = [trefoil.word(w) for w in ("a", "b", "ab", "aB", "abAB", "aab")]
        for k in range(12):
            y = complex(45 * rng.uniform(-1, 1), 22 * rng.uniform(-1, 1))
            cons = _trefoil_traces(y, 1.0)
            try:
                newton = solve_representation(trefoil, cons, seed=k)
            except SolveError:
                continue
            rho = closed_form_representation(trefoil, cons)
            for w in words:
                want = complex(newton.trace(w))
                assert abs(complex(rho.trace(w)) - want) <= 1e-9 * max(
                    1.0, abs(want))


class TestFiberedTorusKnots:
    """T(2, n) is fibered of genus g = (n - 1)/2, so every twisted
    polynomial of an irreducible representation is monic of degree
    4g - 2 = 2n - 4 (Goda-Kitano-Morifuji)."""

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_multiples_solve_monic_even_ones_do_not(self, n):
        p = _torus_pair(n)
        for j in range(1, n):
            cons = _trefoil_traces(2.1, 2 * math.cos(j * math.pi / n))
            if j % 2:
                rho = representation_from_traces(p, cons)
                assert rho.residual <= 1e-13
                ta = wada_invariant(p, rho)
                assert ta.monic and ta.degree == 2 * n - 4
            else:
                with pytest.raises(SolveError) as info:
                    representation_from_traces(p, cons)
                assert info.value.best_residual >= 0.9


@lru_cache(maxsize=None)
def _jacobian_case(knot):
    """A presentation and trace constraints whose words mix generators,
    inverse letters and lengths; 8_20 is a Wirtinger presentation with
    six generators beyond the gauged pair."""
    if knot == "8_20":
        p = talex.pd_to_wirtinger(talex.parse_pd(load_fixture_text("8_20.pd")))
        words = ["a", "ab", "cBa", "hGfE", "dC"]
    else:
        p = parse_presentation(load_fixture_text(knot + ".pres"))
        words = {"3_1": ["a", "b", "ab", "aB", "abAb"],
                 "9_35": ["a", "ab", "bc", "ca", "cA", "aCbB"]}[knot]
    cons = {p.word(w): complex(1.5 - 0.25 * k, 0.1 * k)
            for k, w in enumerate(words)}
    return _Equations(p, cons)


def _random_point(eq, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(eq.nvars)
         + 1j * rng.standard_normal(eq.nvars)) * 0.7
    # the diagonal gauge entries a and b stay away from 0
    x[0] = cmath.exp(complex(rng.uniform(-0.5, 0.5), rng.uniform(0, 6.3)))
    x[2] = cmath.exp(complex(rng.uniform(-0.5, 0.5), rng.uniform(0, 6.3)))
    return x


def _letter_images(eq, x):
    """The images of the Tietze letters, indexed by letter: g for
    generator g, -g for its adjugate."""
    gens = _gauge_images(x.tolist(), eq.n)
    return [None, *gens, *(_mat_adjugate(m) for m in reversed(gens))]


def _product(imgs, w):
    if not w:
        return _COMPLEX_ID
    m = imgs[w[0]]
    for c in w[1:]:
        m = _mat_mul(m, imgs[c])
    return m


def _reference_residual(eq, x):
    """_residual by one product per letter, row by row."""
    return _reference_rows(eq, _letter_images(eq, x))


def _reference_rows(eq, imgs):
    """_rows by one product per letter, row by row, as an array."""
    rows = []
    for w in eq.words[:eq.nrel]:
        m00, m01, m10, m11 = _product(imgs, w)
        rows += (m00 - 1.0, m01, m10, m11 - 1.0)
    rows += [m00 * m11 - m01 * m10 - 1.0
             for m00, m01, m10, m11 in imgs[3:eq.n + 1]]
    for w in eq.words[eq.nrel:]:
        m00, _, _, m11 = _product(imgs, w)
        rows.append(m00 + m11)
    f = np.array(rows, dtype=complex)
    f[len(f) - len(eq.targets):] -= eq.targets
    return f


def _reference_jacobian(eq, x):
    """_jacobian by prefix and suffix lists of products built letter by
    letter, eq's terms summed per (word, coordinate) into a dense
    (word, coordinate, 2, 2) buffer, and its rows cut out of that buffer."""
    imgs = _letter_images(eq, x)
    pre, suf = [], []
    for w in filter(None, eq.words):
        heads = [_COMPLEX_ID]
        for c in w[:-1]:
            heads.append(imgs[c] if len(heads) == 1
                         else _mat_mul(heads[-1], imgs[c]))
        tails = [_COMPLEX_ID]
        for c in w[:0:-1]:
            tails.append(imgs[c] if len(tails) == 1
                         else _mat_mul(imgs[c], tails[-1]))
        pre += heads
        suf += reversed(tails)
    pre = np.array(pre, dtype=complex).reshape(-1, 2, 2)
    suf = np.array(suf, dtype=complex).reshape(-1, 2, 2)
    (word, var, slot, i, j, sign, kind), _ = eq.terms
    factors = np.array([1.0, -1.0 / x[0] ** 2, -1.0 / x[2] ** 2])
    terms = ((sign * factors[kind])[:, None, None]
             * pre[slot, :, i][:, :, None] * suf[slot, j, :][:, None, :])
    starts = np.flatnonzero(np.r_[True, (word[1:] != word[:-1])
                                  | (var[1:] != var[:-1])])
    dw = np.zeros((len(eq.words), eq.nvars, 2, 2), dtype=complex)
    dw[word[starts], var[starts]] = np.add.reduceat(terms, starts, axis=0)
    ddet = np.zeros((eq.nfree, eq.nvars), dtype=complex)
    for f, (m00, m01, m10, m11) in enumerate(imgs[3:eq.n + 1]):
        ddet[f, 4 + 4 * f: 8 + 4 * f] = (m11, -m10, -m01, m00)
    return np.concatenate((
        dw[:eq.nrel].transpose(0, 2, 3, 1).reshape(-1, eq.nvars),
        ddet,
        dw[eq.nrel:, :, 0, 0] + dw[eq.nrel:, :, 1, 1]))


def _assert_residual_of_its_matrices(rho):
    """rho.residual is, bit for bit, the largest relator row of _rows on
    the letter images of rho.matrices."""
    eq = _Equations(rho.presentation, {})
    rows = _rows(eq, talex._sl2._letter_images(rho.matrices))
    assert rho.residual.hex() == max(map(abs, rows[:4 * eq.nrel])).hex()


def _central_differences(eq, x, h=1e-6):
    cols = [(_residual(eq, x + h * e) - _residual(eq, x - h * e)) / (2 * h)
            for e in np.eye(eq.nvars)]
    return np.array(cols).T


class TestExactJacobian:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["3_1", "9_35", "8_20"]), st.integers(0, 2 ** 32 - 1))
    def test_matches_central_differences(self, knot, seed):
        eq = _jacobian_case(knot)
        x = _random_point(eq, seed)
        jac = _jacobian(eq, x)
        assert jac.shape == (len(_residual(eq, x)), eq.nvars)
        err = np.max(np.abs(jac - _central_differences(eq, x)))
        assert err <= 1e-6 * np.max(np.abs(jac))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["3_1", "9_35", "8_20"]), st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_reference_scans(self, knot, seed):
        # the kernel's accumulated scans do the same floating-point
        # operations in the same order as one product per letter, and its
        # terms go through the same numpy products and sums, so solver
        # trajectories do not move by a bit
        eq = _jacobian_case(knot)
        x = _random_point(eq, seed)
        # bytes, not values: the signs of zero entries must agree too
        assert _residual(eq, x).tobytes() == _reference_residual(eq, x).tobytes()
        assert _jacobian(eq, x).tobytes() == _reference_jacobian(eq, x).tobytes()

    def test_residual_rows(self, trefoil):
        cons = {trefoil.word("a"): 2.1 + 0j, trefoil.word("ab"): 1.0 + 0j}
        eq = _Equations(trefoil, cons)
        x = np.array([2.0, 0.5, 1.25, -1.0], dtype=complex)
        rho = Representation(trefoil, [(2.0, 0.5, 0.0, 0.5),
                                       (1.25, 0.0, -1.0, 0.8)])
        m00, m01, m10, m11 = rho.image(trefoil.relators[0])
        want = [m00 - 1, m01, m10, m11 - 1,
                rho.trace(trefoil.word("a")) - 2.1,
                rho.trace(trefoil.word("ab")) - 1.0]
        assert np.allclose(_residual(eq, x), want, rtol=0, atol=1e-14)

    def test_empty_constraint_word(self, p935):
        # a word that freely reduces to 1 has constant trace 2
        cons = {talex.FreeWord([1, -1]): 0.5 + 0j, p935.word("ab"): 1.0 + 0j}
        eq = _Equations(p935, cons)
        x = np.linspace(0.5, 1.2, eq.nvars).astype(complex)
        assert _residual(eq, x)[-2] == 1.5
        jac = _jacobian(eq, x)
        assert not jac[-2].any()
        assert np.allclose(jac, _central_differences(eq, x), atol=1e-6)


class TestSolveCounters:
    def test_off_curve_restarts_stop_early(self, trefoil):
        # tr(ab) = 0.8 is off the nonabelian character line at tr(a) = 2.1
        cons = {trefoil.word("a"): 2.1 + 0j, trefoil.word("b"): 2.1 + 0j,
                trefoil.word("ab"): 0.8 + 0j}
        with pytest.raises(SolveError) as info:
            solve_representation(trefoil, cons, seed=0)
        exc = info.value
        assert str(exc) == ("Newton iteration failed to reach residual "
                            "1.0e-10 within 50 restarts")
        assert exc.restarts == 50
        assert exc.iterations <= 20 * exc.restarts   # 60 without the rules
        assert exc.halvings > 0
        assert exc.best_residual > 1e-10
        assert exc.rejected_stagnant == 50
        assert exc.rejected_at_floor == 0
        # the exact trajectory at seed 0: a kernel change that moves a
        # single rounding shows up here
        assert exc.iterations == 822
        assert exc.halvings == 2929
        assert exc.best_residual == pytest.approx(0.10947189467409418, rel=1e-9)

    def test_free_generator_solve_is_pinned(self, p820):
        # Six generators beyond the gauged pair: the trajectory runs
        # through the free entries' Jacobian columns and the det rows,
        # which the two-generator trefoil above never reaches.
        cons = {p820.word("a"): 2.1 + 0j, p820.word("b"): 2.1 + 0j}
        rho = solve_representation(p820, cons, seed=2)
        mats = np.array(rho.matrices, dtype=complex).tobytes()
        assert hashlib.sha256(mats).hexdigest() == (
            "21b7a132f60d20f9c743a2cb77aed015a00890c5e70d3db6ea7444de013e2ce3")
        assert rho.residual.hex() == "0x1.00c102c043e41p-50"

    def test_newton_returns_the_images_it_judged(self, p820, monkeypatch):
        judged = []

        def spy(eq, x):
            judged.append(judge(eq, x))
            return judged[-1]

        judge = talex.representations._at_gauge_point
        monkeypatch.setattr(talex.representations, "_at_gauge_point", spy)
        cons = {p820.word("a"): 2.1 + 0j, p820.word("b"): 2.1 + 0j}
        rho = solve_representation(p820, cons, seed=2)
        gens, residual, worst = judged[-1]
        assert worst <= 1e-10
        assert (rho.matrices, rho.residual) == (gens, residual)
        _assert_residual_of_its_matrices(rho)

    def test_closed_form_residual_is_that_of_its_matrices(
            self, p935_curve_rep):
        _assert_residual_of_its_matrices(p935_curve_rep)

    def test_reducible_error_carries_counters(self, trefoil):
        s = complex(3 ** 0.5)
        cons = {trefoil.word("a"): s, trefoil.word("b"): s,
                trefoil.word("ab"): 1.0 + 0j}
        with pytest.raises(SolveError, match="reducible") as info:
            solve_representation(trefoil, cons, seed=0, restarts=40)
        assert info.value.restarts == 40
        assert info.value.best_residual <= 1e-10
        assert info.value.iterations > 0

    def test_counters_default_before_any_restart(self, p820):
        cons = {p820.word("a"): 2.0 + 0j, p820.word("b"): 3.0 + 0j}
        with pytest.raises(SolveError, match="conjugate") as info:
            solve_representation(p820, cons)
        exc = info.value
        assert (exc.restarts, exc.iterations, exc.halvings) == (0, 0, 0)
        assert exc.best_residual == float("inf")
        assert exc.args == (str(exc),)
