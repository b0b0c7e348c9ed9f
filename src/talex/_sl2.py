"""2x2 matrices over SL(2,C) as nested tuples, and the equations that
representations.solve_representation solves in its gauge.

A matrix is ((m00, m01), (m10, m11)); the adjugate is the inverse exactly
when the determinant is 1.  The gauge coordinates x of n generators are
(a, q) for A = [[a, q], [0, 1/a]], (b, d) for B = [[b, 0], [d, 1/b]] and
four free entries for each further generator.  _residual and _jacobian
evaluate the solver's equations and their exact Jacobian at x.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .presentations import Presentation
from .words import FreeWord

Matrix2 = tuple[tuple[object, object], tuple[object, object]]

_EXACT_ID: Matrix2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
_COMPLEX_ID: Matrix2 = ((1 + 0j, 0j), (0j, 1 + 0j))


def _mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def _mat_det(a: Matrix2):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _mat_adjugate(a: Matrix2) -> Matrix2:
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def _unpack(x, n: int) -> list[Matrix2]:
    """Generator images in the gauge: A = [[a, q], [0, 1/a]] from (a, q),
    B = [[b, 0], [d, 1/b]] from (b, d), four free entries for the rest."""
    mats: list[Matrix2] = []
    if n >= 1:
        a, q = x[0], x[1]
        mats.append(((a, q), (0j, 1.0 / a)))
    if n >= 2:
        b, d = x[2], x[3]
        mats.append(((b, 0j), (d, 1.0 / b)))
    for i in range(max(n - 2, 0)):
        e = x[4 + 4 * i: 8 + 4 * i]
        mats.append(((e[0], e[1]), (e[2], e[3])))
    return mats


class _Equations:
    """The solver's equations f(x) = 0 in gauge coordinates x.

    Rows, in order: the four entries of image(r) - I for each relator r,
    det - 1 for each generator after the second, tr(image(w)) - v for each
    constraint.  Words are stored as letter codes, g for generator g and
    n + g for its inverse.  The Jacobian's term table has one term for
    each letter, each coordinate its generator depends on and each matrix
    entry (i, j) of the letter that the coordinate moves, with a sign and
    a factor kind (0: 1, 1: d(1/a)/da, 2: d(1/b)/db); it is sorted by
    (word, coordinate) so that np.add.reduceat sums each Jacobian entry's
    terms.
    """

    def __init__(self, p: Presentation, constraints: dict[FreeWord, complex]):
        n = p.num_generators
        self.n = n
        self.nfree = max(n - 2, 0)
        self.nvars = 2 * min(n, 2) + 4 * self.nfree
        self.nrel = len(p.relators)
        self.targets = np.array(list(constraints.values()), dtype=complex)
        words = list(p.relators) + list(constraints)
        self.words = [[x - 1 if x > 0 else n - x - 1 for x in w]
                      for w in words]
        # (coordinate, i, j, factor kind) for each generator
        moves = [[(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0)],
                 [(2, 0, 0, 0), (2, 1, 1, 2), (3, 1, 0, 0)]][:n]
        for f in range(self.nfree):
            moves.append([(4 + 4 * f + 2 * i + j, i, j, 0)
                          for i in (0, 1) for j in (0, 1)])
        terms = []
        slot = 0
        for wi, w in enumerate(words):
            for x in w:
                for k, i, j, kind in moves[abs(x) - 1]:
                    if x > 0:
                        terms.append((wi, k, slot, i, j, 1.0, kind))
                    else:   # the adjugate moves entry (1-j, 1-i)
                        terms.append((wi, k, slot, 1 - j, 1 - i,
                                      1.0 if i == j else -1.0, kind))
                slot += 1
        terms.sort(key=lambda t: t[:2])
        cols = list(zip(*terms)) or [()] * 7
        word, var = np.array(cols[0], dtype=int), np.array(cols[1], dtype=int)
        self.slot, self.row_i, self.col_j = (np.array(c, dtype=int)
                                             for c in cols[2:5])
        self.sign = np.array(cols[5], dtype=float)
        self.kind = np.array(cols[6], dtype=int)
        new_group = np.ones(len(terms), dtype=bool)
        new_group[1:] = (word[1:] != word[:-1]) | (var[1:] != var[:-1])
        self.starts = np.flatnonzero(new_group)
        self.group_word, self.group_var = word[self.starts], var[self.starts]


def _letter_images(eq: _Equations, x: np.ndarray) -> list[Matrix2]:
    """Images of the letter codes at x: generators, then their inverses."""
    gens = _unpack(x.tolist(), eq.n)
    return gens + [_mat_adjugate(m) for m in gens]


def _word_image(imgs: list[Matrix2], w: list[int]) -> Matrix2:
    if not w:
        return _COMPLEX_ID
    m = imgs[w[0]]
    for c in w[1:]:
        m = _mat_mul(m, imgs[c])
    return m


def _residual(eq: _Equations, x: np.ndarray) -> np.ndarray:
    """f(x), the rows described in _Equations."""
    imgs = _letter_images(eq, x)
    out = []
    for w in eq.words[:eq.nrel]:
        m = _word_image(imgs, w)
        out += (m[0][0] - 1.0, m[0][1], m[1][0], m[1][1] - 1.0)
    for m in imgs[2:eq.n]:
        out.append(_mat_det(m) - 1.0)
    for w in eq.words[eq.nrel:]:
        m = _word_image(imgs, w)
        out.append(m[0][0] + m[1][1])
    f = np.array(out, dtype=complex)
    f[len(f) - len(eq.targets):] -= eq.targets
    return f


def _jacobian(eq: _Equations, x: np.ndarray) -> np.ndarray:
    """The exact Jacobian of _residual at x.

    A word's derivative is the matrix analogue of the Fox prefix scan,
    d(m_1 ... m_L)/dx = sum_l (m_1 ... m_{l-1}) dm_l/dx (m_{l+1} ... m_L).
    Each term of eq's table moves one entry (i, j) of one letter, so it
    contributes column i of the prefix times row j of the suffix.
    """
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
    pre, suf = np.array(pre, dtype=complex), np.array(suf, dtype=complex)
    factors = np.array([1.0, -1.0 / x[0] ** 2,
                        -1.0 / x[2] ** 2 if eq.n >= 2 else 0.0])
    coef = eq.sign * factors[eq.kind]
    terms = (coef[:, None, None] * pre[eq.slot, :, eq.row_i][:, :, None]
             * suf[eq.slot, eq.col_j, :][:, None, :])
    dw = np.zeros((len(eq.words), eq.nvars, 2, 2), dtype=complex)
    dw[eq.group_word, eq.group_var] = np.add.reduceat(terms, eq.starts, axis=0)
    ddet = np.zeros((eq.nfree, eq.nvars), dtype=complex)
    for f, m in enumerate(imgs[2:eq.n]):
        ddet[f, 4 + 4 * f: 8 + 4 * f] = (m[1][1], -m[1][0], -m[0][1], m[0][0])
    return np.concatenate((
        dw[:eq.nrel].transpose(0, 2, 3, 1).reshape(-1, eq.nvars),
        ddet,
        dw[eq.nrel:, :, 0, 0] + dw[eq.nrel:, :, 1, 1]))
