"""Certified roots of univariate polynomials.

complex_roots accepts exact or floating Laurent polynomials.  Laurent
units t^k are stripped first (0 is never counted as a root).  Exact inputs
go through the square-free decomposition, so every companion-matrix solve
sees only simple roots and multiplicities are carried exactly; floating
inputs rely on clustering at the fixed radius _CLUSTER_RADIUS, which is
the honest resolution limit of floating multiplicity detection.

Every root r that complex_roots returns is certified against the residual
bound

    |p(r)| <= _RESIDUAL_TOL * (sum of |coefficients|) * max(1, |r|)^deg(p)

which is the attainable backward-error scale; violation raises
RootFindingError rather than returning an uncertified value.  A simple
root of a floating input is judged by the |p(r)| its Newton polish found.

unit_circle_roots decides which roots lie on the unit circle exactly.  Its
input must be exact and palindromic (c_k = c_(D-k) once the unit t^k is
stripped), with p(1) != 0 and p(-1) != 0; a palindromic polynomial of odd
degree vanishes at -1, so D = 2d is even.  Then p(t) = t^d q(t + 1/t) for
the rational polynomial q = c_d + sum_k c_(d+k) V_k of degree d, where
V_k(t + 1/t) = t^k + t^-k comes from V_0 = 2, V_1 = x and
V_k = x V_(k-1) - V_(k-2).  The map t -> t + 1/t sends the unit circle
minus +-1 two-to-one onto (-2, 2), unramified, so the roots of p on the
circle are the pairs e^(+-i theta) over the real roots x = 2 cos theta of
q in (-2, 2), with the same multiplicities.

The number of those real roots comes from an exact Sturm sequence of q in
integers (a primitive pseudo-remainder sequence, on the pseudo-division
and content of the package's Z[t] kernel _zt), read at x = -2 and 2,
where q(2) = p(1) and q(-2) = (-1)^d p(-1) are not 0.  The chain ends in
gcd(q, q'); only when that is not constant is q split by the kernel's
square-free decomposition _zt.squarefree, and each factor is then
counted and isolated on its own, with its multiplicity.

The roots are isolated and refined exactly, at dyadic points a/2^k where
2^(k deg f) f(a/2^k) is an integer Horner sum.  Sturm counts on half-open
intervals (lo, hi] bisect (-2, 2] until each interval holds one root.
Bisection by the sign of q narrows it to 2^-10 of its distance from +-2,
so that 2 -+ x keep their relative precision next to t = +-1.  Integer
Newton steps from its midpoint on the grid 2^-(k+70) give the root's
representative x if q changes sign between the two grid neighbours inside
the interval; otherwise bisection goes on to 2^-60 of that distance and
x is the midpoint.  Nearly coincident roots cost only more bisection, and
no step can fail.  The angle is theta = arccos(x/2) =
2 atan2(sqrt(2 - x), sqrt(2 + x)), with 2 -+ x rounded once from the
exact x, and the pair is (theta, 2pi - theta).
"""

from __future__ import annotations

import math

import numpy as np

from . import _zt
from .errors import AlgebraError, RootFindingError
from .laurent import LaurentPoly, squarefree_decomposition

# Floating roots this close count as one root.
_CLUSTER_RADIUS = 1e-8
# The factor of the residual bound above.
_RESIDUAL_TOL = 1e-8
# Newton steps that polish a root, at most.
_POLISH_STEPS = 20
# Unit-circle refinement in bits, and Newton steps at most; see above.
_REFINE_BITS = 10
_NEWTON_BITS = 70
_NEWTON_STEPS = 8
_FALLBACK_BITS = 60


def _as_poly(p) -> LaurentPoly:
    if isinstance(p, LaurentPoly):
        return p
    if isinstance(p, (list, tuple)):
        return LaurentPoly.from_coefficients(list(p))
    raise AlgebraError("cannot interpret %r as a polynomial" % (p,))


def _dense_desc(p: LaurentPoly) -> np.ndarray:
    """Descending coefficient array of the ordinary-polynomial part."""
    return np.array([p[k] for k in range(p.max_exp(), p.min_exp() - 1, -1)],
                    dtype=complex)


def _newton_polish(p: LaurentPoly, dp: LaurentPoly,
                   r: complex) -> tuple[complex, float]:
    """(root, |p(root)|) after Newton steps on p, with derivative dp, from
    r while |p| falls.

    p is evaluated once at the start and once per step, at the new point;
    that value is both the step's test and the next step's numerator.
    """
    pr = complex(p.evaluate(r))
    best, best_val = r, abs(pr)
    for _ in range(_POLISH_STEPS):
        d = complex(dp.evaluate(r))
        if d == 0:
            break
        r = r - pr / d
        pr = complex(p.evaluate(r))
        v = abs(pr)
        if v < best_val:
            best, best_val = r, v
        else:
            break
    return best, best_val


def _cluster(roots: list[complex]) -> list[tuple[complex, int]]:
    """Greedy merge of points within _CLUSTER_RADIUS, each at its centroid."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(r - cl[0]) <= _CLUSTER_RADIUS:
                cl.append(r)
                break
        else:
            clusters.append([r])
    out = []
    for cl in clusters:
        centroid = sum(cl) / len(cl)
        out.append((centroid, len(cl)))
    return out


def complex_roots(p) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, sorted by (real, imag)."""
    p = _as_poly(p)
    if p.is_zero():
        raise AlgebraError("the zero polynomial has every point as a root")
    if p.degree() == 0:
        return []

    found: list[tuple[complex, int, float | None]] = []   # (r, m, |p(r)|)
    if p.is_exact():
        # polished and certified on complex images, made once: the same
        # values as the exact polynomials at complex points
        for factor, mult in squarefree_decomposition(p):
            fc = factor.to_complex()
            dfc = factor.derivative().to_complex()
            for r in np.roots(_dense_desc(fc)):
                found.append((_newton_polish(fc, dfc, complex(r))[0], mult,
                              None))
        p = p.to_complex()
    else:
        raw = [complex(r) for r in np.roots(_dense_desc(p))]
        dp = p.derivative()
        for centroid, mult in _cluster(raw):
            val = None
            if mult == 1:
                centroid, val = _newton_polish(p, dp, centroid)
            found.append((centroid, mult, val))

    norm = float(sum(abs(complex(c)) for c in p.coeffs.values()))
    deg = p.degree()
    for r, _, val in found:
        bound = _RESIDUAL_TOL * norm * max(1.0, abs(r)) ** deg
        if val is None:
            val = abs(complex(p.evaluate(r)))
        if val > bound:
            raise RootFindingError(
                "root %r not certified: |p(root)| = %.3g exceeds %.3g"
                % (r, val, bound))
    total = sum(m for _, m, _ in found)
    if total != deg:
        raise RootFindingError("found %d roots (with multiplicity) for a "
                               "degree-%d polynomial" % (total, deg))
    return sorted(((r, m) for r, m, _ in found),
                  key=lambda rm: (rm[0].real, rm[0].imag))


# -- unit-circle roots through q(t + 1/t) ------------------------------------
# Polynomials below are ascending coefficient lists; integer ones carry no
# trailing zero.


def _trace_polynomial(p: LaurentPoly) -> list[int]:
    """Integer q with p(t) = t^d q(t + 1/t) up to a positive rational
    factor, for an exact palindromic p with p(+-1) != 0."""
    if not p.is_exact():
        raise AlgebraError("unit-circle roots need exact coefficients")
    p = p.shift(-p.min_exp())
    c = _zt.split(p.coeffs)[0]
    if c != c[::-1]:
        raise AlgebraError("unit-circle roots need a palindromic polynomial, "
                           "got %s" % p.to_text())
    for t in (1, -1):
        if _zt.horner(c, t, 1) == 0:
            raise AlgebraError("unit-circle roots need p(%d) != 0, got %s"
                               % (t, p.to_text()))
    d = len(c) // 2
    q = [c[d]] + [0] * d
    v_prev, v = [2], [0, 1]
    for k in range(1, d + 1):
        for i, a in enumerate(v):
            q[i] += c[d + k] * a
        nxt = [0] + v
        for i, a in enumerate(v_prev):
            nxt[i] -= a
        v_prev, v = v, nxt
    return q


def _sign_at(f: list[int], a: int, k: int) -> int:
    """Sign of f(a / 2^k)."""
    v = _zt.horner(f, a, 1 << k)
    return (v > 0) - (v < 0)


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """f, f' and the negated remainders, ending in gcd(f, f')."""
    chain = [f, _zt.derivative(f)]
    while len(chain[-1]) > 1:
        # The primitive part of a positive multiple of -rem(f_(i-1), f_i).
        r = _zt.primitive(_zt.pseudo_remainder(chain[-2], chain[-1]))[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _changes(chain: list[list[int]], a: int, k: int) -> int:
    """Sign changes of the chain at a / 2^k, zeros skipped."""
    signs = [s for s in (_sign_at(f, a, k) for f in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _isolate(chain: list[list[int]]) -> list[tuple[int, int, int]]:
    """Intervals (a/2^k, b/2^k], left to right, each holding exactly one
    root of the square-free chain[0] in (-2, 2)."""
    out = []
    todo = [(-2, 2, 0, _changes(chain, -2, 0), _changes(chain, 2, 0))]
    while todo:
        a, b, k, va, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b, k))
        elif va > vb:
            vm = _changes(chain, a + b, k + 1)
            todo += [(a + b, 2 * b, k + 1, vm, vb),
                     (2 * a, a + b, k + 1, va, vm)]
    return out


def _bisect(f: list[int], s_hi: int, a: int, b: int, k: int,
            bits: int) -> tuple[int, int, int]:
    """Halve (a/2^k, b/2^k], where the square-free f has one root and sign
    s_hi at b/2^k, by the sign of f at the midpoint, until the interval is
    no wider than 2^-bits of its distance from +-2.  Returns the last
    (a, b, k), with a == b when a midpoint is the root."""
    while (b - a) << bits > min(a + (2 << k), (2 << k) - b):
        mid = a + b
        a, b, k = 2 * a, 2 * b, k + 1
        s = _sign_at(f, mid, k)
        if s == 0:
            return mid, mid, k
        if s == s_hi:
            b = mid
        else:
            a = mid
    return a, b, k


def _newton(f: list[int], df: list[int], a: int, b: int,
            k: int) -> int | None:
    """Integer Newton steps on f, with derivative df, from the midpoint of
    (a/2^k, b/2^k] on the grid 2^-(k + _NEWTON_BITS).  The last point m,
    if f changes sign between its grid neighbours inside the interval,
    else None."""
    big = k + _NEWTON_BITS
    m = (a + b) << (_NEWTON_BITS - 1)
    for _ in range(_NEWTON_STEPS):
        slope = _zt.horner(df, m, 1 << big)
        if slope == 0:
            break
        # f / f' at m / 2^big is _zt.horner(f, m, 2^big) / (slope 2^big).
        step = _zt.horner(f, m, 1 << big) // slope
        if step == 0:
            break
        m -= step
    if (a << _NEWTON_BITS <= m - 1 and m + 1 <= b << _NEWTON_BITS
            and _sign_at(f, m - 1, big) * _sign_at(f, m + 1, big) < 0):
        return m
    return None


def _refine(chain: list[list[int]], a: int, b: int,
            k: int) -> tuple[int, int]:
    """(m, K) with m / 2^K the representative of the one root of the
    square-free f = chain[0] in (a/2^k, b/2^k]; see the module docstring."""
    f = chain[0]
    s_hi = _sign_at(f, b, k)
    if s_hi == 0:
        return b, k
    a, b, k = _bisect(f, s_hi, a, b, k, _REFINE_BITS)
    if a < b:
        m = _newton(f, chain[1], a, b, k)
        if m is not None:
            return m, k + _NEWTON_BITS
        a, b, k = _bisect(f, s_hi, a, b, k, _FALLBACK_BITS)
    return a + b, k + 1


def unit_circle_roots(p) -> list[tuple[float, int]]:
    """Roots on the unit circle as (angle in (0, 2pi), multiplicity), by
    the reduction to q(t + 1/t) of the module docstring.  p must be exact
    and palindromic with p(+-1) != 0; else AlgebraError."""
    p = _as_poly(p)
    if p.is_zero():
        raise AlgebraError("the zero polynomial has every point as a root")
    q = _trace_polynomial(p)
    if len(q) == 1:
        return []
    chain = _sturm_chain(q)
    if len(chain[-1]) == 1:
        parts = [(chain, 1)]
    else:
        # The power of x, if any, gets a chain of its own.
        zeros = next(i for i, c in enumerate(q) if c)
        parts = [(_sturm_chain([0, 1]), zeros)] if zeros else []
        parts += [(_sturm_chain(g), m) for g, m in _zt.squarefree(q[zeros:])]
    out = []
    for ch, mult in parts:
        for a, b, k in _isolate(ch):
            m, k = _refine(ch, a, b, k)
            # 2 -+ x for x = m / 2^k, each rounded once.
            two = 2 << k
            theta = 2.0 * math.atan2(math.sqrt((two - m) / (1 << k)),
                                     math.sqrt((two + m) / (1 << k)))
            out += [(theta, mult), (2.0 * math.pi - theta, mult)]
    return sorted(out)
