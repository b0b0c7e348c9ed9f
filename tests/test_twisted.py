"""The twisted Alexander polynomial / Wada invariant pipeline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import talex
import talex.twisted
from talex import (
    AlgebraError,
    CertificationError,
    FreeWord,
    Presentation,
    Representation,
    det,
    abelian_rep,
    alexander,
    coefficient_profile,
    determines_genus,
    fox_derivative,
    fox_matrix_laurent,
    genus_lower_bound,
    make_twisted,
    normalized_close,
    parse_presentation,
    parse_pd,
    reducible_formula,
    solve_representation,
    wada_invariant,
)
from talex._sl2 import _Equations, _letter_images, _rows
from talex.laurent import LaurentPoly, LaurentRational
from talex.presentations import pd_to_wirtinger
from talex.twisted import _fox_scan

from conftest import (
    P,
    equal_up_to_even_shift,
    load_fixture_text,
    random_det1_matrix,
    reference_image,
    torus_pd,
)


def _reference_sums(p, removed, rho):
    """The Phi-image of the Fox matrix term by term: for each relator and
    each kept column, the {exponent: sum} dicts of its block entries, row
    by row, every word of fox_derivative imaged from scratch by
    reference_image (by 1 for rho None, rank one) and summed in the order
    fox_derivative lists it."""
    size = 1 if rho is None else 2
    out = []
    for r in p.relators:
        cols = []
        for g in range(p.num_generators):
            if g == removed:
                continue
            entries = [{} for _ in range(size * size)]
            for w, c in fox_derivative(r, g).items():
                k = w.exponent_sum()
                m = (Fraction(1),) if rho is None else reference_image(rho, w)
                for d, s in zip(entries, m):
                    d[k] = d.get(k, 0) + c * s
            cols.append(entries)
        out.append(cols)
    return out


def _reference_fox_matrix(p, removed, rho):
    """The Laurent matrix of _reference_sums, block rows in order."""
    size = 1 if rho is None else 2
    return [[LaurentPoly(entries[size * i + j])
             for entries in cols for j in range(size)]
            for cols in _reference_sums(p, removed, rho) for i in range(size)]


def _scan_bits(p, rho, removed):
    """The raw sums of _fox_scan as _reference_bits lists them: an exact
    scan's integer sums over its scale top."""
    exact = rho is None or rho.is_exact()
    size = 1 if rho is None else 2
    return [[[[(e, repr(Fraction(b[i], top) if exact else b[i]))
               for e, b in d.items()] for i in range(size * size)]
             for d in blocks] for blocks, top in _fox_scan(p, rho, removed)]


def _reference_bits(p, rho, removed):
    """The (exponent, repr) items of every dict of _reference_sums, in
    order."""
    return [[[[(e, repr(s)) for e, s in entry.items()] for entry in col]
             for col in cols] for cols in _reference_sums(p, removed, rho)]


def _bits(matrix):
    """Exponent keys and repr of every coefficient, entry by entry."""
    return [[sorted((k, repr(c)) for k, c in entry.coeffs.items())
             for entry in row] for row in matrix]


_FRACTIONS = st.fractions(-4, 4, max_denominator=5)
# complex entries with signed zeros in either part among them
_COMPLEX = st.one_of(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.sampled_from([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]),
    st.tuples(st.floats(-3, 3), st.sampled_from((0.0, -0.0))).flatmap(
        lambda t: st.sampled_from((complex(*t), complex(*t[::-1])))))


@st.composite
def _presentations_with_rho(draw, scaled=st.just(False)):
    """A deficiency-one presentation on 2-4 generators with reduced random
    relators, and an SL(2) rho on it: exact Fraction, complex, or None.
    When scaled draws True, an exact rho's first pivot has a denominator
    above 1, so that D > 1."""
    n = draw(st.integers(2, 4))
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    relator = st.lists(letter, min_size=1, max_size=14).map(FreeWord).filter(
        lambda w: not w.is_identity())
    p = Presentation(n, draw(st.lists(relator, min_size=n - 1,
                                      max_size=n - 1)))
    kind = draw(st.sampled_from(("exact", "complex", "rank one")))
    if kind == "rank one":
        return p, None
    entries = _FRACTIONS if kind == "exact" else _COMPLEX
    force = kind == "exact" and draw(scaled)
    mats = []
    for i in range(n):
        pivots = entries.filter(lambda z: abs(z) > 0.1)
        if force and i == 0:
            # D > 1, so the scan divides by D at every letter
            pivots = pivots.filter(lambda z: z.denominator > 1)
        a = draw(pivots)
        b, c = draw(entries), draw(entries)
        mats.append((a, b, c, (1 + b * c) / a))
    return p, Representation(p, mats)


class TestFoxMatrix:
    @settings(max_examples=120, deadline=None)
    @given(_presentations_with_rho())
    def test_scan_matches_the_fox_derivative_terms_bit_for_bit(self, case):
        p, rho = case
        for k in range(p.num_generators):
            got = fox_matrix_laurent(p, rho, k)
            assert _bits(got) == _bits(_reference_fox_matrix(p, k, rho))

    @settings(max_examples=120, deadline=None)
    @given(_presentations_with_rho(scaled=st.booleans()))
    def test_scan_sums_match_the_fox_derivative_terms_bit_for_bit(self,
                                                                  case):
        p, rho = case
        for k in range(p.num_generators):
            assert _scan_bits(p, rho, k) == _reference_bits(p, rho, k)

    def test_overflowed_terms_are_added_as_the_group_ring_adds_them(self):
        # an infinite prefix entry shows how a term is added: the int c
        # times s turns +-inf+0j into +-inf+nanj, which s and -s would not
        p = Presentation(2, [FreeWord([1, -2, 1, 1])])
        rho = Representation(p, [(1e200 + 0j, 0j, 0j, 1e-200 + 0j),
                                 (1e-200 + 0j, 0j, 0j, 1e200 + 0j)])
        for k, term in ((0, (0, "(-inf+nanj)")), (1, (0, "(inf+nanj)"))):
            bits = _scan_bits(p, rho, k)
            assert term in bits[0][0][0]
            assert bits == _reference_bits(p, rho, k)

    def test_no_call_per_letter(self, monkeypatch, trefoil, p935,
                                p935_curve_rep):
        """The scan multiplies its 2x2 images inline, with no _mat_mul
        call, and _rows folds each word in one _word_product call."""
        calls = []
        real_mul, real_fold = talex._sl2._mat_mul, talex._sl2._word_product

        def mul(a, b):
            calls.append("_mat_mul")
            return real_mul(a, b)

        def fold(letters, word, start):
            calls.append(tuple(word))
            return real_fold(letters, word, start)

        for module in (talex._sl2, talex.twisted, talex.representations,
                       talex.charcurves):
            for name, spy in (("_mat_mul", mul), ("_word_product", fold)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)
        for p, rho in ((trefoil, None),
                       (trefoil, abelian_rep(trefoil, Fraction(3, 2))),
                       (p935, p935_curve_rep)):
            _fox_scan(p, rho, 1)
        assert calls == []
        eq = _Equations(p935, {p935.word(w): 2.5 + 0j
                               for w in ("a", "ab", "caB")})
        _rows(eq, _letter_images(p935_curve_rep.matrices))
        assert calls == [w[1:] for w in eq.words]

    def test_numpy_images_scan_as_plain_complex(self, trefoil):
        rho = abelian_rep(trefoil, 0.9 + 0.45j)
        arrays = Representation(trefoil, [np.array(m) for m in rho.matrices])
        got = fox_matrix_laurent(trefoil, arrays, 1)
        assert _bits(got) == _bits(fox_matrix_laurent(trefoil, rho, 1))
        assert all(type(c) is complex and not e.is_exact()
                   for row in got for e in row for c in e.coeffs.values())

    def test_wada_invariant_calls_the_module_attribute(self, monkeypatch,
                                                       trefoil):
        """The benchmark tracer times Fox assembly by rebinding
        twisted.fox_matrix_laurent, so wada_invariant and alexander must
        look it up there."""
        calls = []
        real = talex.twisted.fox_matrix_laurent

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(talex.twisted, "fox_matrix_laurent", counted)
        wada_invariant(trefoil, abelian_rep(trefoil, Fraction(2)))
        assert len(calls) == 1 and calls[0][1] is not None
        alexander(trefoil)
        assert len(calls) == 2 and calls[1][1] is None

    def test_rank_one_blocks(self, p935):
        m = fox_matrix_laurent(p935, None, removed=2)
        assert len(m) == 2 and len(m[0]) == 2

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

    def test_exact_path_runs_no_fraction_long_division(self, monkeypatch):
        """An exact twist divides and reduces in Z[t]: the floating
        quotient at the samples is not reached."""
        p = pd_to_wirtinger(torus_pd(21))
        lam = Fraction(3, 2)
        calls = []
        real = talex.laurent._sampled_quotient

        def counted(num, den, eps):
            calls.append(den)
            return real(num, den, eps)

        monkeypatch.setattr(talex.laurent, "_sampled_quotient", counted)
        ta = wada_invariant(p, abelian_rep(p, lam))
        assert calls == []
        closed = LaurentPoly({k: Fraction((-1) ** k) for k in range(21)})
        assert equal_up_to_even_shift(ta.value, reducible_formula(closed, lam))

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


FIXTURE_ALEXANDER = {"3_1.pd": P(1, -1, 1), "8_20.pd": P(1, -2, 3, -2, 1),
                     "9_35.pd": P(7, -13, 7)}


def _diagram(knot):
    """The Wirtinger presentation of T(2, knot) for an odd int, else of the
    named fixture PD code."""
    if isinstance(knot, int):
        return pd_to_wirtinger(torus_pd(knot))
    return pd_to_wirtinger(parse_pd(load_fixture_text(knot)))


def _unreduced_value(p, lam, k):
    """The abelian twist at lam from the Fox matrix of p itself."""
    num = det(fox_matrix_laurent(p, abelian_rep(p, lam), k))
    den = LaurentPoly({2: lam * (1 / lam), 1: -(lam + 1 / lam), 0: Fraction(1)})
    return LaurentRational(num, den)


class TestTietzeReducedInvariants:
    """wada_invariant and alexander run on the Tietze-reduced presentation;
    their values must be those of the Fox matrix of the diagram itself."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(tuple(range(3, 32, 2)) + tuple(FIXTURE_ALEXANDER)),
           st.fractions(-9, 9, max_denominator=9).filter(bool))
    def test_exact_value_is_the_unreduced_quotient(self, knot, lam):
        p = _diagram(knot)
        got = wada_invariant(p, abelian_rep(p, lam)).value
        want = _unreduced_value(p, lam, p.num_generators - 1)
        assert (got.num, got.den) == (want.num, want.den)
        closed = (LaurentPoly({j: Fraction((-1) ** j) for j in range(knot)})
                  if isinstance(knot, int) else FIXTURE_ALEXANDER[knot])
        assert alexander(p) == closed

    @pytest.mark.parametrize("knot", ("8_20.pd", "9_35.pd"))
    def test_every_removed_column(self, knot):
        p = _diagram(knot)
        lam = Fraction(-5, 7)
        for k in range(p.num_generators):
            got = wada_invariant(p, abelian_rep(p, lam), removed=k).value
            want = _unreduced_value(p, lam, k)
            assert (got.num, got.den) == (want.num, want.den)
            assert alexander(p, removed=k) == FIXTURE_ALEXANDER[knot]

    def test_nonabelian_numerator_matches_unreduced(self):
        p = _diagram("3_1.pd")
        y = 1.3 + 0.2j
        rho = solve_representation(p, {p.word("a"): y, p.word("b"): y},
                                   seed=0)
        assert rho.residual < 1e-15
        reduced = wada_invariant(p, rho).value.num
        full = det(fox_matrix_laurent(p, rho, p.num_generators - 1)).cleanup()
        assert sorted(reduced.coeffs) == sorted(full.coeffs)
        assert all(abs(complex(reduced[j]) - complex(full[j])) <= 1e-12
                   for j in full.coeffs)

    def test_one_reduction_per_presentation(self, monkeypatch):
        import talex.presentations as presentations
        calls = []
        real_tietze = presentations._tietze

        def counting_tietze(p, keep):
            calls.append(keep)
            return real_tietze(p, keep)

        monkeypatch.setattr(presentations, "_tietze", counting_tietze)
        p = _diagram(9)
        assert alexander(p) == LaurentPoly({j: Fraction((-1) ** j)
                                            for j in range(9)})
        wada_invariant(p, abelian_rep(p, Fraction(3, 2)))
        wada_invariant(p, abelian_rep(p, 1.1 + 0.4j))
        assert calls == [p.num_generators - 1]

    def test_removed_out_of_range(self, p820):
        rho = abelian_rep(p820, Fraction(2))
        for k in (-1, p820.num_generators):
            message = "removed column %d out of range" % k
            with pytest.raises(AlgebraError, match=message):
                wada_invariant(p820, rho, removed=k)
            with pytest.raises(AlgebraError, match=message):
                alexander(p820, removed=k)


@pytest.mark.parametrize("n", (23, 31))
class TestLargeTorusKnotsT2n:
    """Closed forms beyond the sizes the torus_exact benchmark runs."""

    def test_alexander_closed_form(self, n):
        closed = LaurentPoly({k: Fraction((-1) ** k) for k in range(n)})
        assert alexander(pd_to_wirtinger(torus_pd(n))) == closed

    def test_exact_twist_is_reducible_formula(self, n):
        p = pd_to_wirtinger(torus_pd(n))
        lam = Fraction(3, 2)
        ta = wada_invariant(p, abelian_rep(p, lam))
        closed = LaurentPoly({k: Fraction((-1) ** k) for k in range(n)})
        assert equal_up_to_even_shift(ta.value, reducible_formula(closed, lam))


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
        assert ta.monic  # within the 1e-5 tolerance
        ta = make_twisted(LaurentRational(
            LaurentPoly({0: 1.0 + 0j, 2: 1.0 + 5e-5j}), LaurentPoly({0: 1.0 + 0j})))
        assert not ta.monic  # outside it

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
        assert genus_lower_bound(ta) == 1

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
