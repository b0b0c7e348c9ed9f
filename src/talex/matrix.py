"""Square matrices over the package's coefficient domains.

det() has two elimination kernels, chosen by the entry domain:

  * exact entries: each row is cleared into Z[t], multiplied by the lcm
    of its coefficient denominators and shifted by its lowest exponent,
    and the package's one fraction-free Bareiss elimination (Bareiss
    1968), _zt.bareiss, runs on the dense int lists with row pivoting,
    skipping the rows that have a zero in the pivot column.  The
    scale and the shift are undone at the end.  Every division is exact
    in Z[t]; an inexact quotient raises NonPolynomialError.  MultiPoly
    entries are first packed into one variable by a Kronecker
    substitution, and the result is unpacked.
  * Laurent entries with complex coefficients: one inverse DFT samples
    every nonzero entry at the roots of unity, one stacked numpy LU
    determinant runs over all sample points, and one forward DFT gives
    the coefficients.  The exponent window of the determinant is bounded
    by row-wise exponent sums, so the interpolation is exact in exact
    arithmetic and stable in floating arithmetic (see _interpolated_det).

Scalar entries are lifted to constant Laurent polynomials, so the
determinant of a scalar matrix is a constant LaurentPoly, and that of the
empty matrix is LaurentPoly.one().
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from numbers import Rational
from operator import mul

import numpy as np

from . import _zt
from .errors import AlgebraError
from .laurent import LaurentPoly
from .multipoly import MultiPoly


class SquareMatrix:
    """A square matrix as a list of row lists; entries share one domain."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise AlgebraError("matrix is not square")
        self.rows = rows
        self.n = n

    def det(self):
        return det(self.rows)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise AlgebraError("dimension mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return SquareMatrix(out)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return "SquareMatrix(%d x %d)" % (self.n, self.n)


def _entry_kind(e) -> str:
    if isinstance(e, LaurentPoly):
        return "laurent_exact" if e.is_exact() else "laurent_float"
    if isinstance(e, MultiPoly):
        return "multi"
    if isinstance(e, Rational):
        return "exact"
    if isinstance(e, (int, float, complex)):
        return "float"
    raise AlgebraError("unsupported matrix entry %r" % type(e))


def det(rows):
    """Determinant of a square matrix given as a list of row lists."""
    if isinstance(rows, SquareMatrix):
        rows = rows.rows
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise AlgebraError("matrix is not square")
    if n == 0:
        return LaurentPoly.one()

    kinds = {_entry_kind(e) for row in rows for e in row}
    if kinds == {"multi"}:
        return _packed_det(rows)
    if "multi" in kinds:
        raise AlgebraError("mixed matrix entry domains: %r" % kinds)
    rows = [[e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e)
             for e in row] for row in rows]
    if kinds <= {"exact", "laurent_exact"}:
        return _integer_det(rows)
    return _interpolated_det(rows)


def _integer_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """The determinant of exact Laurent entries by the Z[t] kernel.

    Row i is multiplied by the lcm L_i of its coefficient denominators and
    by t^-s_i, s_i its lowest exponent, so every entry becomes a dense
    list of ints, constant term first.  _zt.bareiss eliminates the cleared
    matrix; its determinant, sign times the last pivot, divided by prod L_i
    and shifted by sum s_i, is the answer.
    """
    m = []
    shift, scale = 0, 1
    for row in rows:
        nonzero = [e for e in row if not e.is_zero()]
        if not nonzero:
            return LaurentPoly.zero()
        low = min(e.min_exp() for e in nonzero)
        den = lcm(*(c.denominator for e in nonzero for c in e.coeffs.values()))
        shift += low
        scale *= den
        m.append([_zt.cleared(e.coeffs, low, den) for e in row])
    pivot, sign = _zt.bareiss(m)
    return LaurentPoly._clean(
        _zt.coefficients(pivot, shift, Fraction(sign, scale)), True)


def _packed_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    """The determinant of MultiPoly entries through _integer_det.

    Kronecker packing: for variable i let lo_i be the sum over rows of the
    row's lowest exponent in i and W_i the sum of the rows' exponent spans
    in i.  Each term of the determinant takes one entry from every row, so
    its exponent in i lies in [lo_i, lo_i + W_i].  Sending y_i to t^P_i,
    with mixed-radix places P_0 = 1 and P_(i+1) = P_i (W_i + 1), is a ring
    map, so it commutes with det, and it is one-to-one on that exponent
    box: after subtracting sum lo_i P_i, the digits of a packed exponent
    are the offsets e_i - lo_i, read off with divmod.
    """
    vars_ = rows[0][0].vars
    if any(e.vars != vars_ for row in rows for e in row):
        raise AlgebraError("variable mismatch in MultiPoly matrix")
    lo = [0] * len(vars_)
    width = [0] * len(vars_)
    for row in rows:
        exps = [ex for e in row for ex in e.terms]
        if not exps:
            return MultiPoly.zero(vars_)
        for i, col in enumerate(zip(*exps)):
            low = min(col)
            lo[i] += low
            width[i] += max(col) - low
    places = [1]
    for w in width[:-1]:
        places.append(places[-1] * (w + 1))
    packed = [[LaurentPoly({sum(map(mul, ex, places)): c
                            for ex, c in e.terms.items()}) for e in row]
              for row in rows]
    base = sum(map(mul, lo, places))
    terms = {}
    for k, c in _integer_det(packed).coeffs.items():
        k -= base
        ex = []
        for low, w in zip(lo, width):
            k, r = divmod(k, w + 1)
            ex.append(low + r)
        terms[tuple(ex)] = c
    return MultiPoly(vars_, terms)


def _interpolated_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Evaluation/interpolation determinant for complex Laurent entries.

    The determinant's exponents lie in [lo, hi], lo and hi the sums of the
    rows' lowest and highest exponents, so its values at the npts =
    hi - lo + 1 roots of unity t_j = e^(2 pi i j/npts) determine it.  Each
    nonzero entry's coefficients, each through complex(c), are wrapped
    modulo npts into one row of an (entries x npts) array; no entry spans
    npts exponents, so no two of them share a slot.  One inverse DFT along
    the rows gives every entry at every t_j, the npts matrices are stacked
    (zeros stay 0) and factored by one np.linalg.det call, and one forward
    DFT of the determinants gives the coefficient of t^m at output index
    m mod npts.  The samples are taken with numpy's floating-point
    warnings off; a determinant that is not finite is an AlgebraError.
    """
    n = len(rows)
    lo = hi = 0
    for row in rows:
        exts = [(e.min_exp(), e.max_exp()) for e in row if not e.is_zero()]
        if not exts:
            return LaurentPoly.zero()
        lo += min(a for a, _ in exts)
        hi += max(b for _, b in exts)
    npts = hi - lo + 1
    where = [i * n + k for i, row in enumerate(rows)
             for k, e in enumerate(row) if not e.is_zero()]
    wrapped = [0j] * (len(where) * npts)
    for base, ik in zip(range(0, len(wrapped), npts), where):
        for k, c in rows[ik // n][ik % n].coeffs.items():
            wrapped[base + k % npts] = complex(c)
    with np.errstate(all="ignore"):
        sampled = np.fft.ifft(np.array(wrapped).reshape(len(where), npts),
                              norm="forward").T
        if len(where) == n * n:
            mats = sampled.reshape(npts, n, n)
        else:
            mats = np.zeros((npts, n * n), dtype=complex)
            mats[:, where] = sampled
            mats = mats.reshape(npts, n, n)
        coeffs = np.fft.fft(np.linalg.det(mats), norm="forward")
        scale = float(np.abs(coeffs).max())
    if not isfinite(scale):
        raise AlgebraError("the sampled determinant overflows: an entry or "
                           "a product of entries is too large for a float")
    coeffs = coeffs.tolist()
    coeffs = coeffs[lo % npts:] + coeffs[:lo % npts]    # from t^lo up
    scale = scale or 1.0
    return LaurentPoly({lo + m: c for m, c in enumerate(coeffs)
                        if abs(c) > 1e-13 * scale})
