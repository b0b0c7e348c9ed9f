"""Determinants over the package's coefficient domains."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex import _zt
from talex.errors import AlgebraError, NonPolynomialError
from talex.laurent import LaurentPoly
from talex.matrix import SquareMatrix, det
from talex.multipoly import MultiPoly, resultant
from talex.presentations import pd_to_wirtinger, simplify
from talex.representations import Representation, abelian_rep
from talex.twisted import fox_matrix_laurent

from conftest import CP, P, torus_pd

# numpy's floating-point warnings are errors here: the determinant samples
# under np.errstate and reports an overflow as an AlgebraError
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _cofactor_det(rows, one):
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = one - one
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor, one)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestScalarDeterminants:
    def test_identity(self):
        assert det([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 1

    def test_empty_matrix(self):
        assert det([]) == Fraction(1)

    def test_exact_agrees_with_cofactor_expansion(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rows = [[Fraction(int(rng.integers(-9, 10)),
                              int(rng.integers(1, 5)))
                     for _ in range(3)] for _ in range(3)]
            assert det(rows) == _cofactor_det(rows, Fraction(1))

    def test_multiplicative(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = [[Fraction(int(rng.integers(-5, 6))) for _ in range(3)]
                 for _ in range(3)]
            b = [[Fraction(int(rng.integers(-5, 6))) for _ in range(3)]
                 for _ in range(3)]
            ab = (SquareMatrix(a) * SquareMatrix(b)).rows
            assert det(ab) == det(a) * det(b)

    def test_singular(self):
        assert det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0

    def test_complex_entries_match_numpy(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rows = [[complex(e) for e in row] for row in m]
        assert abs(complex(det(rows)[0]) - np.linalg.det(m)) < 1e-9

    def test_scalar_and_empty_results_are_constant_laurent(self):
        empty = det([])
        assert isinstance(empty, LaurentPoly) and empty == LaurentPoly.one()
        exact = det([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]])
        assert isinstance(exact, LaurentPoly) and exact == LaurentPoly.constant(5)
        floating = det([[2.0, 1j], [1, 3]])
        assert floating.min_exp() == floating.max_exp() == 0
        assert abs(complex(floating[0]) - (6 - 1j)) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(AlgebraError):
            det([[Fraction(1), Fraction(2)]])
        with pytest.raises(AlgebraError):
            SquareMatrix([[Fraction(1), Fraction(2)]])


class TestLaurentDeterminants:
    def test_inverse_units_cancel(self):
        t = LaurentPoly.t()
        tinv = LaurentPoly.t(-1)
        zero = LaurentPoly.zero()
        assert det([[t, zero], [zero, tinv]]) == LaurentPoly.one()

    def test_exact_laurent_agrees_with_cofactor(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rows = [[_rand_laurent(rng) for _ in range(3)] for _ in range(3)]
            assert det(rows) == _cofactor_det(rows, LaurentPoly.one())

    def test_zero_column_gives_zero(self):
        z = LaurentPoly.zero()
        t = LaurentPoly.t()
        assert det([[z, t], [z, t + 1]]).is_zero()

    def test_scalars_mix_with_exact_laurent(self):
        t = LaurentPoly.t()
        assert det([[Fraction(2), t], [LaurentPoly.zero(), t]]) == 2 * t

    def test_interpolated_float_matches_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            rows = [[_rand_laurent(rng) for _ in range(3)] for _ in range(3)]
            exact = det(rows)
            floated = [[LaurentPoly({k: complex(c) for k, c in e.coeffs.items()})
                        for e in row] for row in rows]
            approx = det(floated)
            diff = approx - exact
            assert diff.max_abs() <= 1e-9 * max(1.0, exact.max_abs())

    def test_interpolated_zero_row(self):
        z = LaurentPoly.zero()
        assert det([[z, z], [CP(1), CP(1, 1)]]).is_zero()

    def test_negative_exponent_window(self):
        # determinant living entirely at negative exponents
        a = CP(1, min_exp=-2)
        b = CP(1, min_exp=-1)
        d = det([[a, LaurentPoly.zero()], [CP(5), b]])
        assert abs(complex(d[-3]) - 1) < 1e-12
        assert d.min_exp() == -3


def _window(rows):
    """lo and hi of the determinant's exponent window."""
    lo = sum(min(e.min_exp() for e in row if not e.is_zero()) for row in rows)
    hi = sum(max(e.max_exp() for e in row if not e.is_zero()) for row in rows)
    return lo, hi


def _interpolated(values, lo, hi):
    """The Laurent polynomial with exponents in [lo, hi] that takes the
    given values at the roots of unity, by one forward DFT."""
    npts = hi - lo + 1
    coeffs = np.fft.fft(values, norm="forward")
    scale = float(np.max(np.abs(coeffs))) or 1.0
    coeffs = coeffs.tolist()
    return LaurentPoly({m: coeffs[m % npts] for m in range(lo, hi + 1)
                        if abs(coeffs[m % npts]) > 1e-13 * scale})


def _dense_interpolated_det(rows):
    """The interpolation determinant sampling every entry, zeros too, by
    its own inverse DFT, with one LU per sample point."""
    lo, hi = _window(rows)
    npts = hi - lo + 1
    samples = []
    for row in rows:
        for e in row:
            wrapped = np.zeros(npts, dtype=complex)
            for k, c in e.coeffs.items():
                wrapped[k % npts] = complex(c)
            samples.append(np.fft.ifft(wrapped, norm="forward"))
    n = len(rows)
    values = [np.linalg.det(np.array([s[j] for s in samples]).reshape(n, n))
              for j in range(npts)]
    return _interpolated(values, lo, hi)


def _evaluated_det(rows):
    """The accuracy reference: every entry by LaurentPoly.evaluate at each
    t_j, the determinant at each point, and t_j^-lo multiplied in."""
    lo, hi = _window(rows)
    npts = hi - lo + 1
    values = []
    for j in range(npts):
        t = np.exp(2j * np.pi * j / npts)
        mat = np.array([[complex(e.evaluate(t)) for e in row] for row in rows])
        values.append(np.linalg.det(mat) * np.exp(-2j * np.pi * j * lo / npts))
    return _interpolated(values, 0, npts - 1).shift(lo)


_exponents = st.integers(-25, 25)
_complex_coefficients = st.complex_numbers(min_magnitude=0.1, max_magnitude=9)
_exact_coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_mixed_entries = st.one_of(
    st.just(LaurentPoly.zero()), st.just(LaurentPoly.zero()),
    st.dictionaries(_exponents, _complex_coefficients,
                    min_size=1, max_size=3).map(LaurentPoly),
    st.dictionaries(_exponents, _exact_coefficients,
                    min_size=1, max_size=3).map(LaurentPoly),
    st.dictionaries(_exponents, _complex_coefficients | _exact_coefficients,
                    min_size=1, max_size=3).map(LaurentPoly))


@st.composite
def _sparse_complex_matrices(draw):
    """Matrices of up to 6 x 6 exact, complex and mixed entries with at least
    one complex coefficient, so that det() interpolates."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(_mixed_entries, min_size=n, max_size=n))
            for _ in range(n)]
    for i, row in enumerate(rows):     # no zero rows: both paths return 0
        if all(e.is_zero() for e in row):
            row[i] = LaurentPoly({0: 1 + 0j})
    if all(e.is_exact() for row in rows for e in row):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][k] = LaurentPoly({draw(_exponents):
                                  draw(_complex_coefficients)})
    return rows


def _bits(poly):
    return {k: (c.real.hex(), c.imag.hex()) for k, c in poly.coeffs.items()}


def _assert_close_to_evaluation(rows, got, reference):
    """got is within 1e-12 max(1, B) of reference, B = prod over rows of
    the sum of |coefficient| in the row: a bound on every coefficient of
    every term of the determinant's expansion.  The determinant's own
    coefficients can cancel far below B (to 0 for a singular matrix),
    while the rounding of both routes scales with B."""
    bound = prod(sum(abs(complex(c)) for e in row for c in e.coeffs.values())
                 for row in rows)
    assert (got - reference).max_abs() <= 1e-12 * max(1.0, bound)


class TestInterpolatedDet:
    @settings(max_examples=60, deadline=None)
    @given(_sparse_complex_matrices())
    def test_sparse_evaluation_is_bit_identical(self, rows):
        assert _bits(det(rows)) == _bits(_dense_interpolated_det(rows))

    @settings(max_examples=60, deadline=None)
    @given(_sparse_complex_matrices())
    def test_close_to_per_point_evaluation(self, rows):
        _assert_close_to_evaluation(rows, det(rows), _evaluated_det(rows))

    @pytest.mark.parametrize("rows", [
        # all exponents negative
        [[CP(2, 1j, min_exp=-4), CP(0.5, min_exp=-2)],
         [CP(-1, 3, min_exp=-3), CP(1j, 1, 2, min_exp=-5)]],
        # lo = -3 is not a multiple of npts = 6
        [[CP(1, 2, min_exp=-2), CP(1j, 0, 1)],
         [CP(3, min_exp=-1), CP(0.25, -1, min_exp=1)]],
        # npts = 1: every entry a constant
        [[CP(2 + 1j), CP(-1)], [CP(0.5), CP(3j)]],
        # a row with one nonzero entry
        [[LaurentPoly.zero(), CP(1, -2, min_exp=-1), LaurentPoly.zero()],
         [CP(1j, 1), CP(2), CP(0, 1, min_exp=-1)],
         [CP(-1), CP(1, 1j), CP(3, min_exp=2)]],
        # Fraction coefficients mixed with complex ones
        [[LaurentPoly({-1: Fraction(1, 3), 0: 2 + 1j, 2: Fraction(-5, 7)}),
          P(1, 2)],
         [LaurentPoly({0: Fraction(7, 3), 1: 0.5j}), P(-2, min_exp=-1)]],
    ], ids=["negative", "lo-not-multiple", "npts-1", "one-entry-row",
            "mixed-fractions"])
    def test_edge_cases(self, rows):
        got = det(rows)
        assert _bits(got) == _bits(_dense_interpolated_det(rows))
        _assert_close_to_evaluation(rows, got, _evaluated_det(rows))

    @pytest.mark.parametrize("reduced", [False, True])
    def test_torus_fox_matrix_is_bit_identical(self, reduced):
        p = pd_to_wirtinger(torus_pd(21))
        rho = abelian_rep(p, 0.9 + 0.45j)
        keep = p.num_generators - 1
        if reduced:
            p, kept, _ = simplify(p, keep)
            rho = Representation(p, [rho.matrices[g] for g in kept])
            keep = kept.index(keep)
        rows = fox_matrix_laurent(p, rho, keep)
        assert _bits(det(rows)) == _bits(_dense_interpolated_det(rows))

    def test_one_stacked_lu_per_determinant(self, monkeypatch):
        calls = []
        real = np.linalg.det

        def counting(a):
            calls.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "det", counting)
        rows = [[CP(1, 2), LaurentPoly({-1: Fraction(1, 3)})],
                [CP(0, 0, 1j), CP(5)]]
        det(rows)
        assert calls == [(5, 2, 2)]     # exponents -1 .. 3

    def test_one_inverse_and_one_forward_dft(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft"):
            real = getattr(np.fft, name)

            def counting(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        rows = [[CP(1, 2), LaurentPoly.zero()],
                [CP(0, 0, 1j), LaurentPoly({-1: Fraction(1, 3)})]]
        det(rows)
        # three nonzero entries at 5 points (exponents -1 .. 3)
        assert calls == [("ifft", (3, 5)), ("fft", (5,))]

    @pytest.mark.parametrize("big", [complex("inf"), complex("nan"), 1e200])
    def test_overflow_raises_without_a_warning(self, big):
        rows = [[LaurentPoly({1: big}), CP(1)], [CP(0, 1), CP(big)]]
        with pytest.raises(AlgebraError, match="the sampled determinant "
                                               "overflows"):
            det(rows)


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.dictionaries(st.integers(-3, 3), _fractions, max_size=3).map(LaurentPoly))


def _square(n):
    return st.lists(st.lists(_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


_matrices = st.integers(0, 4).flatmap(_square)
_matrix_pairs = st.integers(0, 4).flatmap(lambda n: st.tuples(_square(n),
                                                               _square(n)))

_seifert_like = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-3, 3)), min_size=n,
             max_size=n), min_size=n, max_size=n))


class TestIntegerBareiss:
    """The exact Laurent path: rows cleared into Z[t], Bareiss on ints."""

    @settings(max_examples=60, deadline=None)
    @given(_matrices)
    def test_agrees_with_cofactor_expansion(self, rows):
        assert det(rows) == _cofactor_det(rows, LaurentPoly.one())

    @settings(max_examples=40, deadline=None)
    @given(_matrix_pairs)
    def test_multiplicative(self, pair):
        a, b = pair
        ab = (SquareMatrix(a) * SquareMatrix(b)).rows
        assert det(ab) == det(a) * det(b)

    @settings(max_examples=40, deadline=None)
    @given(_matrices)
    def test_agrees_with_interpolated_float_determinant(self, rows):
        exact = det(rows)
        floated = [[LaurentPoly({k: complex(c) for k, c in e.coeffs.items()})
                    for e in row] for row in rows]
        diff = det(floated) - exact
        assert diff.max_abs() <= 1e-9 * max(1.0, exact.max_abs())

    @settings(max_examples=80, deadline=None)
    @given(_seifert_like)
    def test_kernel_on_int_rows_matches_det(self, v):
        # V - tV^T as the int rows SeifertMatrix builds; zero rows and zero
        # pivots come from the zero-heavy entries.
        pairs = [list(zip(row, col)) for row, col in zip(v, zip(*v))]
        pivot, sign = _zt.bareiss([[[a, -b] if b else [a] if a else []
                                    for a, b in row] for row in pairs])
        got = LaurentPoly(_zt.coefficients(pivot, 0, Fraction(sign)))
        t = LaurentPoly.t()
        assert got == det([[a - b * t for a, b in row] for row in pairs])
        assert got.evaluate(Fraction(2)) == _cofactor_det(
            [[a - 2 * b for a, b in row] for row in pairs], 1)

    def test_inexact_quotient_raises(self):
        assert _zt.exact_div([2, 4, 6], [2]) == [1, 2, 3]
        assert _zt.exact_div([-1, 0, 1], [-1, 1]) == [1, 1]
        with pytest.raises(NonPolynomialError):
            _zt.exact_div([1, 3], [2])          # 3/2 is not an integer
        with pytest.raises(NonPolynomialError):
            _zt.exact_div([1, 0, 1], [1, 1])    # remainder 2
        with pytest.raises(NonPolynomialError):
            _zt.exact_div([1, 0, 1], [1, 2])    # leading 1 over 2
        with pytest.raises(NonPolynomialError):
            _zt.exact_div([1], [0, 1])          # degree too low

    def test_zero_row(self):
        t = LaurentPoly.t()
        half = LaurentPoly.constant(Fraction(1, 2))
        assert det([[t, half], [LaurentPoly.zero(), LaurentPoly.zero()]]) \
            == LaurentPoly.zero()

    def test_one_by_one(self):
        e = LaurentPoly({-2: Fraction(1, 3), 1: Fraction(-5, 4)})
        assert det([[e]]) == e
        assert det([[Fraction(7, 2)]]) == LaurentPoly.constant(Fraction(7, 2))

    def test_lifted_scalars_and_negative_exponents(self):
        a = LaurentPoly({-3: Fraction(1, 2), -1: Fraction(2, 3)})
        b = LaurentPoly({-2: Fraction(-1, 6)})
        got = det([[a, 2], [b, Fraction(3, 5)]])
        assert got == a * Fraction(3, 5) - b * 2
        assert got.min_exp() == -3

    def test_pivoting_sign(self):
        z = LaurentPoly.zero()
        t = LaurentPoly.t()
        half = LaurentPoly.constant(Fraction(1, 2))
        assert det([[z, t], [half, z]]) == -(t * half)

    def test_swap_brings_a_skipped_row_up(self):
        # Step 1 skips row 2, whose column-1 entry is then zero, and
        # updates row 3; step 2 swaps the two, as row 2 is zero in column 2.
        rows = [[-2, 1, 0, 1], [-1, 1, 1, 3], [-2, 1, 0, 3], [-2, -2, 0, -1]]
        assert det(rows) == _cofactor_det(rows, 1) == 12


_MULTI_VARS = ("y", "z", "w")


@st.composite
def _multi_matrices(draw):
    """(variables, n x n MultiPoly matrix) with Laurent exponents in [-2, 2]."""
    vars_ = _MULTI_VARS[:draw(st.integers(1, 3))]
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars_))
    entries = st.one_of(st.just({}),
                        st.dictionaries(exps, _fractions, max_size=3))
    rows = [[MultiPoly(vars_, draw(entries)) for _ in range(n)]
            for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [MultiPoly.zero(vars_)] * n
    return vars_, rows


class TestMultiPolyDeterminants:
    """MultiPoly entries packed into Z[t] for the integer Bareiss."""

    @settings(max_examples=80, deadline=None)
    @given(_multi_matrices())
    def test_packed_agrees_with_cofactor_expansion(self, case):
        vars_, rows = case
        assert det(rows) == _cofactor_det(rows, MultiPoly.constant(vars_, 1))

    def test_negative_exponents(self):
        vars_ = ("y", "z")
        y = MultiPoly.var(vars_, "y")
        z = MultiPoly.var(vars_, "z")
        one = MultiPoly.constant(vars_, 1)
        yinv = MultiPoly.var(vars_, "y") ** -1
        assert det([[yinv, one], [one, z]]) == yinv * z - one

    def test_resultant_with_negative_powers_outside_the_variable(self):
        vars_ = ("y", "w")
        y = MultiPoly.var(vars_, "y")
        w = MultiPoly.var(vars_, "w")
        yinv = MultiPoly.var(vars_, "y") ** -1
        assert resultant(w * w - yinv, w - y, "w") == y * y - yinv

    def test_domains_and_variables_must_agree(self):
        y = MultiPoly.var(("y", "z"), "y")
        w = MultiPoly.var(("y", "w"), "w")
        one = MultiPoly.constant(("y", "z"), 1)
        with pytest.raises(AlgebraError):
            det([[y, w], [one, one]])
        with pytest.raises(AlgebraError):
            det([[y, LaurentPoly.t()], [one, one]])

    def test_two_by_two(self):
        vars = ("y", "z")
        y = MultiPoly.var(vars, "y")
        z = MultiPoly.var(vars, "z")
        one = MultiPoly.constant(vars, 1)
        assert det([[y, one], [one, z]]) == y * z - one

    def test_agrees_with_cofactor(self):
        rng = np.random.default_rng(41)
        vars = ("y", "z")
        for _ in range(5):
            rows = [[_rand_multi(rng, vars) for _ in range(3)] for _ in range(3)]
            one = MultiPoly.constant(vars, 1)
            assert det(rows) == _cofactor_det(rows, one)


class TestSquareMatrix:
    def test_indexing_and_product(self):
        a = SquareMatrix([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
        b = SquareMatrix([[Fraction(1), Fraction(0)], [Fraction(3), Fraction(1)]])
        assert (a * b)[0, 0] == 7
        assert a.det() == 1

    def test_dimension_mismatch(self):
        a = SquareMatrix([[Fraction(1)]])
        b = SquareMatrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        with pytest.raises(AlgebraError):
            a * b

    def test_unsupported_entries_rejected(self):
        with pytest.raises(AlgebraError):
            det([["x"]])


def _rand_laurent(rng):
    lo = int(rng.integers(-1, 2))
    coeffs = {lo + k: Fraction(int(rng.integers(-3, 4)))
              for k in range(int(rng.integers(1, 3)))}
    p = LaurentPoly(coeffs)
    return p if not p.is_zero() else LaurentPoly.one()


def _rand_multi(rng, vars):
    terms = {}
    for _ in range(int(rng.integers(1, 3))):
        key = tuple(int(rng.integers(0, 2)) for _ in vars)
        terms[key] = Fraction(int(rng.integers(-3, 4)))
    p = MultiPoly(vars, terms)
    return p if not p.is_zero() else MultiPoly.constant(vars, 1)
