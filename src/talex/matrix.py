"""Square matrices over the package's coefficient domains.

det() has three paths, chosen by the entry domain:

  * exact Laurent entries (LaurentPoly with rational coefficients):
    fraction-free Bareiss elimination with row pivoting.
  * MultiPoly entries: the same Bareiss elimination.  On both Bareiss
    paths every division performed is exact in the entry ring, which each
    entry type enforces by raising on an inexact quotient.
  * Laurent entries with complex coefficients: evaluation at scaled roots
    of unity, one numpy LU determinant per sample point, followed by an
    inverse DFT.  The exponent window of the determinant is bounded by
    row-wise exponent sums, so the interpolation is exact in exact
    arithmetic and stable in floating arithmetic.

Scalar entries are lifted to constant Laurent polynomials, so the
determinant of a scalar matrix is a constant LaurentPoly, and that of the
empty matrix is LaurentPoly.one().
"""

from __future__ import annotations

from numbers import Rational

import numpy as np

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
    if kinds <= {"multi"}:
        return _bareiss(rows, MultiPoly.constant(rows[0][0].vars, 1))
    if "multi" in kinds:
        raise AlgebraError("mixed matrix entry domains: %r" % kinds)
    rows = [[e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e)
             for e in row] for row in rows]
    if kinds <= {"exact", "laurent_exact"}:
        return _bareiss(rows, LaurentPoly.one())
    return _interpolated_det(rows)


def _bareiss(rows, one):
    """Fraction-free elimination; divisions are exact in the entry domain."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n)
                          if not m[i][k].is_zero()), None)
            if pivot is None:
                return one - one
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = one - one
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result


def _interpolated_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Evaluation/interpolation determinant for complex Laurent entries."""
    n = len(rows)
    lo = hi = 0
    for row in rows:
        exts = [(e.min_exp(), e.max_exp()) for e in row if not e.is_zero()]
        if not exts:
            return LaurentPoly.zero()
        lo += min(a for a, _ in exts)
        hi += max(b for _, b in exts)
    npts = hi - lo + 1
    values = np.empty(npts, dtype=complex)
    for j in range(npts):
        t = np.exp(2j * np.pi * j / npts)
        mat = np.array([[complex(e.evaluate(t)) for e in row] for row in rows])
        values[j] = np.linalg.det(mat) * np.exp(-2j * np.pi * j * lo / npts)
    coeffs = np.fft.fft(values) / npts
    scale = np.max(np.abs(coeffs)) or 1.0
    out = {lo + m: complex(c) for m, c in enumerate(coeffs)
           if abs(c) > 1e-13 * scale}
    return LaurentPoly(out)
