"""2x2 matrices over SL(2,C), and the equations that
representations.solve_representation solves in its gauge.

A 2x2 matrix is the flat 4-tuple (m00, m01, m10, m11), row by row, over
any ring: Fractions, ints, complex floats.  This module owns the format;
_mat_mul, _mat_det and _mat_adjugate are the package's one 2x2 product,
determinant and adjugate, and the adjugate is the inverse exactly when
the determinant is 1.  The gauge coordinates x of n generators are (a, q)
for A = [[a, q], [0, 1/a]], (b, d) for B = [[b, 0], [d, 1/b]] and four
free entries for each further generator.  _residual and _jacobian
evaluate the solver's equations and their exact Jacobian at x.
_det_one_on_trace_rows finds a further generator from trace rows linear
in it and det = 1, for the solver's seeds and the closed form (its
gauges: the representations module docstring).
"""

from __future__ import annotations

import functools
from fractions import Fraction

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
    constraint.  Words are stored as letter codes, g for generator g and
    n + g for its inverse.  The Jacobian's term table is built on first
    use, since _residual alone never reads it.
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
        self.nrows = 4 * self.nrel + self.nfree + len(self.targets)

    @functools.cached_property
    def table(self) -> "_TermTable":
        return _TermTable(self)


class _TermTable:
    """The gathers, scatters and factors _jacobian reads for one _Equations.

    The table has one term for each letter, each coordinate its generator
    depends on and each matrix entry (i, j) of the letter that the
    coordinate moves, with a sign and a factor kind (0: 1, 1: d(1/a)/da,
    2: d(1/b)/db).  Kept as terms = [(word, coordinate, slot, i, j, sign,
    kind), ...] with slot the letter's position among all letters, it is
    sorted by (word, coordinate) so that np.add.reduceat sums each
    Jacobian entry's terms.
    """

    def __init__(self, eq: _Equations):
        n = eq.n
        # (coordinate, i, j, factor kind) for each generator
        moves = [[(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0)],
                 [(2, 0, 0, 0), (2, 1, 1, 2), (3, 1, 0, 0)]][:n]
        for f in range(eq.nfree):
            moves.append([(4 + 4 * f + 2 * i + j, i, j, 0)
                          for i in (0, 1) for j in (0, 1)])
        terms = []
        slot = 0
        for wi, w in enumerate(eq.words):
            for c in w:
                for k, i, j, kind in moves[c % n]:
                    if c < n:
                        terms.append((wi, k, slot, i, j, 1.0, kind))
                    else:   # the adjugate moves entry (1-j, 1-i)
                        terms.append((wi, k, slot, 1 - j, 1 - i,
                                      1.0 if i == j else -1.0, kind))
                slot += 1
        terms.sort(key=lambda t: t[:2])
        self.terms = terms
        cols = list(zip(*terms)) or [()] * 7
        word, var, slot, row_i, col_j = (np.array(c, dtype=int)
                                         for c in cols[:5])
        self.sign = np.array(cols[5], dtype=float)
        self.kind = np.array(cols[6], dtype=int)
        new_group = np.ones(len(terms), dtype=bool)
        new_group[1:] = (word[1:] != word[:-1]) | (var[1:] != var[:-1])
        self.starts = np.flatnonzero(new_group)
        # Flat gathers from the scans' entry lists: column row_i of each
        # term's prefix, row col_j of its suffix.
        pair = np.arange(2)
        self.pre_at = 4 * slot[:, None] + 2 * pair + row_i[:, None]
        self.suf_at = 4 * slot[:, None] + 2 * col_j[:, None] + pair
        # Flat destinations in the (rows, nvars) Jacobian: the four entries
        # of each relator group, the det rows, one trace entry per
        # constraint group.  Groups are sorted by word, relators first.
        gword, gvar = word[self.starts], var[self.starts]
        self.nrel_groups = int(np.sum(gword < eq.nrel))
        rel_w, rel_v = gword[:self.nrel_groups], gvar[:self.nrel_groups]
        self.rel_to = ((4 * rel_w[:, None] + np.arange(4)) * eq.nvars
                       + rel_v[:, None]).ravel()
        free = np.arange(eq.nfree)[:, None]
        self.det_to = ((4 * eq.nrel + free) * eq.nvars + 4 + 4 * free
                       + np.arange(4)).ravel()
        tr_row = 4 * eq.nrel + eq.nfree + gword[self.nrel_groups:] - eq.nrel
        self.trace_to = tr_row * eq.nvars + gvar[self.nrel_groups:]


def _letter_images(eq: _Equations, x: np.ndarray) -> list[Matrix2]:
    """Images of the letter codes at x: generators, then their adjugates
    (inverses in SL2)."""
    gens = _gauge_images(x.tolist(), eq.n)
    return gens + [_mat_adjugate(m) for m in gens]


def _det_one_on_trace_rows(prods: list, traces: list) -> list[np.ndarray]:
    """The matrices C, as flat arrays (c00, c01, c10, c11), with
    tr(P_k C) = traces[k] for each matrix P_k in prods and det C = 1.

    The trace rows are linear in C.  When they are finite, consistent and
    leave a one-dimensional null space, C = c0 + s nv (c0 their
    minimum-norm solution, nv a null vector) and det C = 1 is a quadratic
    in s: the result lists C at its two roots, the +sqrt root first, or at
    its one root when the quadratic is linear.  Otherwise it is empty.
    The root of smaller magnitude is q0 / (q2 s) from the larger one,
    because the textbook formula cancels when the roots differ greatly in
    size.
    """
    # tr(P C) = p00 c00 + p10 c01 + p01 c10 + p11 c11
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


# _residual squares its bound and widens it by this relative margin, far
# above the rounding difference between its running sum and
# np.linalg.norm, so that a point is never rejected against its own norm.
_BOUND_MARGIN = 1e-12


def _residual(eq: _Equations, x: np.ndarray, bound: float = np.inf):
    """f(x), the rows described in _Equations, or None as soon as the
    relator rows, summed word by word, make the norm of f exceed bound."""
    imgs = _letter_images(eq, x)
    limit = bound * bound * (1.0 + _BOUND_MARGIN)
    rel, traces = [], []
    total = 0.0
    for k, w in enumerate(eq.words):
        m = (functools.reduce(_mat_mul, [imgs[c] for c in w]) if w
             else _COMPLEX_ID)
        if k >= eq.nrel:
            traces.append(m[0] + m[3])
            continue
        m00, m01, m10, m11 = m
        m00 -= 1.0
        m11 -= 1.0
        rel += (m00, m01, m10, m11)
        total += (m00.real * m00.real + m00.imag * m00.imag
                  + m01.real * m01.real + m01.imag * m01.imag
                  + m10.real * m10.real + m10.imag * m10.imag
                  + m11.real * m11.real + m11.imag * m11.imag)
        if total > limit:
            return None
    dets = [_mat_det(m) - 1.0 for m in imgs[2:eq.n]]
    f = np.array(rel + dets + traces, dtype=complex)
    f[len(f) - len(eq.targets):] -= eq.targets
    return f


def _jacobian(eq: _Equations, x: np.ndarray) -> np.ndarray:
    """The exact Jacobian of _residual at x.

    A word's derivative is the matrix analogue of the Fox prefix scan,
    d(m_1 ... m_L)/dx = sum_l (m_1 ... m_{l-1}) dm_l/dx (m_{l+1} ... m_L).
    Each term of eq's table moves one entry (i, j) of one letter, so it
    contributes column i of the prefix times row j of the suffix.  The
    scans list the entries of every prefix and suffix, four per letter.
    """
    imgs = _letter_images(eq, x)
    pre, suf = [], []
    for w in filter(None, eq.words):
        pre += _COMPLEX_ID
        # suffixes from the right, each stored backwards: reversing the
        # word's list puts them in letter order with entries in order
        tails = list(_COMPLEX_ID)
        if len(w) > 1:
            m = imgs[w[0]]
            pre += m
            for c in w[1:-1]:
                m = _mat_mul(m, imgs[c])
                pre += m
            m = imgs[w[-1]]
            tails += m[::-1]
            for c in w[-2:0:-1]:
                m = _mat_mul(imgs[c], m)
                tails += m[::-1]
        suf += reversed(tails)
    pre, suf = np.array(pre, dtype=complex), np.array(suf, dtype=complex)
    factors = np.array([1.0, -1.0 / x[0] ** 2,
                        -1.0 / x[2] ** 2 if eq.n >= 2 else 0.0])
    tab = eq.table
    coef = tab.sign * factors[tab.kind]
    terms = (coef[:, None, None] * pre[tab.pre_at][:, :, None]
             * suf[tab.suf_at][:, None, :])
    sums = np.add.reduceat(terms, tab.starts, axis=0)
    jac = np.zeros(eq.nrows * eq.nvars, dtype=complex)
    jac[tab.rel_to] = sums[:tab.nrel_groups].ravel()
    jac[tab.det_to] = [e for m00, m01, m10, m11 in imgs[2:eq.n]
                       for e in (m11, -m10, -m01, m00)]
    jac[tab.trace_to] = (sums[tab.nrel_groups:, 0, 0]
                         + sums[tab.nrel_groups:, 1, 1])
    return jac.reshape(eq.nrows, eq.nvars)
