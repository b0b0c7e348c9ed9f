"""2x2 matrices over SL(2,C), and the equations that
representations.solve_representation solves in its gauge.

A 2x2 matrix is the flat 4-tuple (m00, m01, m10, m11), row by row, over
any ring: Fractions, ints, complex floats, Laurent polynomials.  This
module owns the format; _mat_mul, _mat_det and _mat_adjugate are the
package's one 2x2 product, determinant and adjugate, and the adjugate is
the inverse exactly when the determinant is 1.  _mat_det is also
matrix.det()'s rule for a complex 2x2 over Laurent polynomials.  The
gauge coordinates x of n generators are (a, q) for A = [[a, q], [0, 1/a]],
(b, d) for B = [[b, 0], [d, 1/b]] and four free entries for each further
generator.  A word is its tuple of
Tietze letters, g for generator g and -g for its inverse, and
_letter_images is the one table of their images, indexed by letter: the
generator's matrix, or its adjugate for -g.  _residual and _jacobian
evaluate the solver's equations and their exact Jacobian at x; _residual
is _rows, the equations at given letter images, on the images of x, so a
caller that holds the images evaluates the same rows on them.
_jacobian forms and sums its terms as numpy array operations in a fixed
order: numpy's complex product rounds differently from Python's in the
last bit, and the solver's trajectories are pinned bit for bit.
_det_one_on_trace_rows finds a further generator from trace rows linear
in it and det = 1, for the solver's seeds and the closed form (its
gauges: the representations module docstring), in plain complex
arithmetic: the rows' null vector is the commutator of two of their
products, and their minimum-norm solution comes from a 3x3 Gram system.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from itertools import accumulate, chain, combinations
from operator import mul

import numpy as np

from .presentations import Presentation
from .words import FreeWord

Matrix2 = tuple[object, object, object, object]

_EXACT_ID: Matrix2 = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
_COMPLEX_ID: Matrix2 = (1 + 0j, 0j, 0j, 1 + 0j)


def _mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _mat_det(a: Matrix2):
    return a[0] * a[3] - a[1] * a[2]


def _mat_adjugate(a: Matrix2) -> Matrix2:
    return (a[3], -a[1], -a[2], a[0])


def _gauge_images(x, n: int) -> list[Matrix2]:
    """The generator images in the gauge:
    A = [[a, q], [0, 1/a]] from (a, q), B = [[b, 0], [d, 1/b]] from (b, d),
    four free entries for the rest."""
    mats = []
    if n >= 1:
        a, q = x[0], x[1]
        mats.append((a, q, 0j, 1.0 / a))
    if n >= 2:
        b, d = x[2], x[3]
        mats.append((b, 0j, d, 1.0 / b))
    for i in range(4, 4 * n - 4, 4):
        mats.append(tuple(x[i:i + 4]))
    return mats


class _Equations:
    """The solver's equations f(x) = 0 in gauge coordinates x.

    Rows, in order: the four entries of image(r) - I for each relator r,
    det - 1 for each generator after the second, tr(image(w)) - v for each
    constraint.  Words are stored as their Tietze letters.  The Jacobian's
    terms are listed on first use, since _residual alone never reads them.
    """

    def __init__(self, p: Presentation, constraints: dict[FreeWord, complex]):
        n = p.num_generators
        self.n = n
        self.nfree = max(n - 2, 0)
        self.nvars = 2 * min(n, 2) + 4 * self.nfree
        self.nrel = len(p.relators)
        self.targets = tuple(map(complex, constraints.values()))
        self.words = tuple(w.tietze for w in (*p.relators, *constraints))

    @functools.cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The Jacobian's terms as the integer columns (word, coordinate,
        slot, i, j, sign, kind), and the first term of each (word,
        coordinate) group.

        There is one term for each letter, each coordinate its generator
        depends on and each matrix entry (i, j) of the letter that the
        coordinate moves, with a sign and a factor kind (0: 1, 1: d(1/a)/da,
        2: d(1/b)/db); slot is the letter's position among all letters.
        The terms are sorted by (word, coordinate), so that np.add.reduceat
        sums each Jacobian entry's terms from the group starts.
        """
        n = self.n
        # (coordinate, i, j, factor kind) for each generator
        moves = [[(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0)],
                 [(2, 0, 0, 0), (2, 1, 1, 2), (3, 1, 0, 0)]][:n]
        for f in range(self.nfree):
            moves.append([(4 + 4 * f + 2 * i + j, i, j, 0)
                          for i in (0, 1) for j in (0, 1)])
        terms = []
        slot = 0
        for wi, w in enumerate(self.words):
            for c in w:
                for k, i, j, kind in moves[abs(c) - 1]:
                    if c > 0:
                        terms.append((wi, k, slot, i, j, 1, kind))
                    else:   # the adjugate moves entry (1-j, 1-i)
                        terms.append((wi, k, slot, 1 - j, 1 - i,
                                      1 if i == j else -1, kind))
                slot += 1
        terms.sort(key=lambda t: t[:2])
        cols = np.array(terms, dtype=int).reshape(-1, 7).T
        word, var = cols[:2]
        new_group = np.ones(len(terms), dtype=bool)
        new_group[1:] = (word[1:] != word[:-1]) | (var[1:] != var[:-1])
        return cols, np.flatnonzero(new_group)


def _letter_images(gens: list[Matrix2]) -> list:
    """The images of the Tietze letters, indexed by letter: entry g is
    generator g's image, entry -g its adjugate (the inverse in SL2); entry
    0 is unused."""
    return [None, *gens, *map(_mat_adjugate, reversed(gens))]


def _mat_norm(a: Matrix2) -> float:
    return math.hypot(*map(abs, a))


def _trace_of_product(p: Matrix2, c: Matrix2):
    """tr(P C), the trace row of P applied to C."""
    return p[0] * c[0] + p[2] * c[1] + p[1] * c[2] + p[3] * c[3]


def _det_one_on_trace_rows(prods: list, traces: list) -> list[Matrix2]:
    """The matrices C with tr(P_k C) = traces[k] for each matrix P_k in
    prods, prods[0] the identity, and det C = 1.

    The trace rows are linear in C.  For the first pair of products P, P'
    that do not commute, the rows I, P, P' span three dimensions, and
    their null vector is the commutator K = PP' - P'P, since tr K = tr(PK)
    = tr(P'K) = 0.  With nv = K / |K| (a real scale, so that the root
    order below depends on no phase) and c0 the minimum-norm solution of
    those three rows, from their 3x3 Gram system, C = c0 + s nv and
    det C = 1 is a quadratic in s: the result lists C at its two roots,
    the +sqrt root first, or at its one root when the quadratic is linear.
    It is empty when an entry is not finite, when every pair of products
    commutes, or when a row misses c0 or a further row misses nv.  The
    root of smaller magnitude is q0 / (q2 s) from the larger one, because
    the textbook formula cancels when the roots differ greatly in size.
    """
    if not all(map(cmath.isfinite, chain(*prods, traces))):
        return []
    prods = [tuple(map(complex, p)) for p in prods]
    for i, j in combinations(range(1, len(prods)), 2):
        p, q = prods[i], prods[j]
        k = [x - y for x, y in zip(_mat_mul(p, q), _mat_mul(q, p))]
        norm = _mat_norm(k)
        if 1e-10 * _mat_norm(p) * _mat_norm(q) < norm < math.inf:
            break
    else:
        return []
    nv = tuple(e / norm for e in k)
    # c0 = sum_j y_j M_j^* over M = (I, P, P'), the conjugate transposes,
    # with tr(M_i c0) = traces: the Gram system G_ij = tr(M_i M_j^*),
    # solved by Cramer's rule on its columns
    mats = (prods[0], p, q)
    stars = [[complex(e.real, -e.imag) for e in (m[0], m[2], m[1], m[3])]
             for m in mats]
    cols = [[_trace_of_product(m, star) for m in mats] for star in stars]
    crosses = [_cross(cols[1], cols[2]), _cross(cols[2], cols[0]),
               _cross(cols[0], cols[1])]
    det = sum(map(mul, cols[0], crosses[0]))
    if not det:
        return []
    b = [complex(traces[m]) for m in (0, i, j)]
    y = [sum(map(mul, b, x)) / det for x in crosses]
    c0 = tuple(sum(map(mul, e, y)) for e in zip(*stars))
    miss = math.hypot(*(abs(_trace_of_product(m, c0) - t)
                        for m, t in zip(prods, traces)))
    if not miss <= 1e-9 * max(1.0, math.hypot(*map(abs, traces))) or any(
            abs(_trace_of_product(m, nv)) > 1e-10 * _mat_norm(m)
            for n, m in enumerate(prods) if n not in (0, i, j)):
        return []
    q2 = _mat_det(nv)
    q1 = c0[0] * nv[3] + nv[0] * c0[3] - c0[1] * nv[2] - nv[1] * c0[2]
    q0 = _mat_det(c0) - 1.0
    if abs(q2) > 1e-12:
        disc = cmath.sqrt(q1 * q1 - 4.0 * q2 * q0)
        roots = [(-q1 + disc) / (2 * q2), (-q1 - disc) / (2 * q2)]
        big = 0 if abs(roots[0]) >= abs(roots[1]) else 1
        if roots[big] != 0:
            roots[1 - big] = q0 / (q2 * roots[big])
    elif abs(q1) > 1e-12:
        roots = [-q0 / q1]
    else:
        return []
    return [tuple(c + s * v for c, v in zip(c0, nv)) for s in roots]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _rows(eq: _Equations, imgs: list[Matrix2]) -> list[complex]:
    """The rows described in _Equations at the letter images imgs, the
    relator rows first (4 per relator)."""
    prods = [functools.reduce(_mat_mul, [imgs[c] for c in w]) if w
             else _COMPLEX_ID for w in eq.words]
    rows = []
    for m00, m01, m10, m11 in prods[:eq.nrel]:
        rows += (m00 - 1.0, m01, m10, m11 - 1.0)
    rows += [_mat_det(m) - 1.0 for m in imgs[3:eq.n + 1]]
    rows += [m[0] + m[3] - v for m, v in zip(prods[eq.nrel:], eq.targets)]
    return rows


def _residual(eq: _Equations, x: np.ndarray) -> np.ndarray:
    """f(x): the rows at the gauge images of x.tolist()."""
    imgs = _letter_images(_gauge_images(x.tolist(), eq.n))
    return np.array(_rows(eq, imgs), dtype=complex)


def _jacobian(eq: _Equations, x: np.ndarray) -> np.ndarray:
    """The exact Jacobian of _residual at x.

    A word's derivative is the matrix analogue of the Fox prefix scan,
    d(m_1 ... m_L)/dx = sum_l (m_1 ... m_{l-1}) dm_l/dx (m_{l+1} ... m_L).
    Each of eq's terms moves one entry (i, j) of one letter, so it
    contributes column i of the letter's prefix times row j of its suffix.
    The terms are summed per (word, coordinate) into a dense
    (word, coordinate, 2, 2) buffer, and the relator and trace rows are
    cut out of it.
    """
    imgs = _letter_images(_gauge_images(x.tolist(), eq.n))
    pre, suf = [], []
    for w in filter(None, eq.words):
        ms = [imgs[c] for c in w]
        pre += [_COMPLEX_ID, *accumulate(ms[:-1], _mat_mul)]
        suf += [*accumulate(ms[:0:-1], lambda s, m: _mat_mul(m, s))][::-1]
        suf.append(_COMPLEX_ID)
    pre = np.array(pre, dtype=complex).reshape(-1, 2, 2)
    suf = np.array(suf, dtype=complex).reshape(-1, 2, 2)
    (word, var, slot, i, j, sign, kind), starts = eq.terms
    factors = np.array([1.0, -1.0 / x[0] ** 2,
                        -1.0 / x[2] ** 2 if eq.n >= 2 else 0.0])
    terms = ((sign * factors[kind])[:, None, None]
             * pre[slot, :, i][:, :, None] * suf[slot, j, :][:, None, :])
    dw = np.zeros((len(eq.words), eq.nvars, 2, 2), dtype=complex)
    dw[word[starts], var[starts]] = np.add.reduceat(terms, starts, axis=0)
    ddet = np.zeros((eq.nfree, eq.nvars), dtype=complex)
    for f, (m00, m01, m10, m11) in enumerate(imgs[3:eq.n + 1]):
        ddet[f, 4 + 4 * f: 8 + 4 * f] = (m11, -m10, -m01, m00)
    return np.concatenate((
        dw[:eq.nrel].transpose(0, 2, 3, 1).reshape(-1, eq.nvars),
        ddet,
        dw[eq.nrel:, :, 0, 0] + dw[eq.nrel:, :, 1, 1]))
