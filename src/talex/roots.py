"""Certified roots of univariate polynomials.

complex_roots accepts exact or floating Laurent polynomials.  Laurent
units t^k are stripped first (0 is never counted as a root).  Exact inputs
go through the square-free decomposition, so every companion-matrix solve
sees only simple roots and multiplicities are carried exactly; floating
inputs rely on clustering at a configurable radius, which is the honest
resolution limit of floating multiplicity detection.

Every root r that complex_roots returns is certified against the residual
bound

    |p(r)| <= tol * (sum of |coefficients|) * max(1, |r|)^deg(p)

which is the attainable backward-error scale; violation raises
RootFindingError rather than returning an uncertified value.

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
integers (a primitive pseudo-remainder sequence), read at x = -2 and 2,
where q(2) = p(1) and q(-2) = (-1)^d p(-1) are not 0.  The chain ends in
gcd(q, q'); only when that is not constant is q split by
squarefree_decomposition, and each factor is then counted and isolated
on its own, with its multiplicity.

The roots are isolated from float seeds: the np.roots eigenvalues of q
nearest the real axis, polished by Newton's method in floats.  Each seed
is certified by an exact sign change of q, by integer Horner, at two
dyadic rationals around it: half-width 2^-40 at first, doubled until the
sign changes, never beyond the midpoints to the neighbouring seeds or
+-2, so the brackets are disjoint.  Every root that the Sturm count asks
for must get such a bracket; otherwise RootFindingError is raised, and
there is no other path.  A bracket wider than 2^-30 of its distance from
+-2 is halved by exact bisection until it is not, so that 2 - x and
2 + x keep that relative precision even for roots next to t = +-1.  The
root's representative is the polished seed while it lies inside its
bracket, else the bracket's midpoint, moved by one exact Newton step
when that stays inside.  Its angle is
theta = arccos(x/2) = 2 atan2(sqrt(2 - x), sqrt(2 + x)), the second form
computed with 2 -+ x taken exactly, and the pair is (theta, 2pi - theta).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import AlgebraError, RootFindingError
from .laurent import LaurentPoly, squarefree_decomposition

DEFAULT_CLUSTER_RADIUS = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8
# Newton steps that polish a root, at most.
_POLISH_STEPS = 20
# A unit-circle seed's first certifying bracket has half-width 2^-this.
_BRACKET_BITS = 40
# Brackets are bisected until no wider than 2^-this of their distance
# from +-2.
_REFINE_BITS = 30


def _as_poly(p) -> LaurentPoly:
    if isinstance(p, LaurentPoly):
        return p
    if isinstance(p, (list, tuple)):
        return LaurentPoly.from_coefficients(list(p))
    raise AlgebraError("cannot interpret %r as a polynomial" % (p,))


def _dense_desc(p: LaurentPoly) -> np.ndarray:
    """Descending coefficient array of the ordinary-polynomial part."""
    p = p.shift(-p.min_exp())
    n = p.max_exp()
    out = np.zeros(n + 1, dtype=complex)
    for k, c in p.coeffs.items():
        out[n - k] = complex(c)
    return out


def _newton_polish(p: LaurentPoly, r: complex) -> complex:
    dp = p.derivative()
    best, best_val = r, abs(complex(p.evaluate(r)))
    for _ in range(_POLISH_STEPS):
        d = complex(dp.evaluate(r))
        if d == 0:
            break
        r = r - complex(p.evaluate(r)) / d
        v = abs(complex(p.evaluate(r)))
        if v < best_val:
            best, best_val = r, v
        else:
            break
    return best


def _cluster(roots: list[complex], radius: float) -> list[tuple[complex, int]]:
    """Greedy merge of points closer than the radius; centroid representative."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(r - cl[0]) <= radius:
                cl.append(r)
                break
        else:
            clusters.append([r])
    out = []
    for cl in clusters:
        centroid = sum(cl) / len(cl)
        out.append((centroid, len(cl)))
    return out


def complex_roots(p, cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
                  residual_tol: float = DEFAULT_RESIDUAL_TOL
                  ) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, sorted by (real, imag)."""
    p = _as_poly(p)
    if p.is_zero():
        raise AlgebraError("the zero polynomial has every point as a root")
    if p.degree() == 0:
        return []

    found: list[tuple[complex, int]] = []
    if p.is_exact():
        for factor, mult in squarefree_decomposition(p):
            raw = np.roots(_dense_desc(factor))
            for r in raw:
                found.append((_newton_polish(factor, complex(r)), mult))
    else:
        raw = [complex(r) for r in np.roots(_dense_desc(p))]
        for centroid, mult in _cluster(raw, cluster_radius):
            if mult == 1:
                centroid = _newton_polish(p, centroid)
            found.append((centroid, mult))

    norm = float(sum(abs(complex(c)) for c in p.coeffs.values()))
    deg = p.degree()
    for r, _ in found:
        bound = residual_tol * norm * max(1.0, abs(r)) ** deg
        val = abs(complex(p.evaluate(r)))
        if val > bound:
            raise RootFindingError(
                "root %r not certified: |p(root)| = %.3g exceeds %.3g"
                % (r, val, bound))
    total = sum(m for _, m in found)
    if total != deg:
        raise RootFindingError("found %d roots (with multiplicity) for a "
                               "degree-%d polynomial" % (total, deg))
    return sorted(found, key=lambda rm: (rm[0].real, rm[0].imag))


# -- unit-circle roots through q(t + 1/t) ------------------------------------
# Polynomials below are ascending coefficient lists; integer ones carry no
# trailing zero.


def _integral(coeffs: list[Fraction]) -> list[int]:
    """The coefficients times their common denominator."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def _trace_polynomial(p: LaurentPoly) -> list[int]:
    """Integer q with p(t) = t^d q(t + 1/t) up to a positive rational
    factor, for an exact palindromic p with p(+-1) != 0."""
    if not p.is_exact():
        raise AlgebraError("unit-circle roots need exact coefficients")
    p = p.shift(-p.min_exp())
    c = _integral([p[k] for k in range(p.max_exp() + 1)])
    if c != c[::-1]:
        raise AlgebraError("unit-circle roots need a palindromic polynomial, "
                           "got %s" % p.to_text())
    for t in (1, -1):
        if sum(a * t ** k for k, a in enumerate(c)) == 0:
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


def _scaled_value(f: list[int], x: Fraction) -> int:
    """b^deg f(a/b) for x = a/b, by integer Horner."""
    a, b = x.numerator, x.denominator
    acc, scale = f[-1], b
    for c in reversed(f[:-1]):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _sign_at(f: list[int], x: Fraction) -> int:
    v = _scaled_value(f, x)
    return (v > 0) - (v < 0)


def _exact_newton(f: list[int], x: Fraction) -> Fraction:
    """x - f(x)/f'(x) in exact arithmetic (x itself where f' vanishes)."""
    slope = _scaled_value([i * c for i, c in enumerate(f)][1:], x)
    if slope == 0:
        return x
    return x - Fraction(_scaled_value(f, x), x.denominator * slope)


def _neg_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of -(|lead b|^k a mod b), a positive multiple of
    -rem(a, b), as the next Sturm polynomial."""
    r = list(a)
    lead = b[-1]
    n = len(b) - 1
    for i in range(len(a) - len(b), -1, -1):
        top = r[n + i] * (1 if lead > 0 else -1)
        r = [abs(lead) * x for x in r]
        for j, y in enumerate(b):
            r[i + j] -= top * y
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    g = math.gcd(*r) if r else 1
    return [-x // g for x in r]


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """f, f' and the negated remainders, ending in gcd(f, f')."""
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        r = _neg_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _count_inside(chain: list[list[int]]) -> int:
    """Distinct real roots of chain[0] in (-2, 2), by Sturm's theorem."""
    def changes(x):
        signs = [s for s in (_sign_at(f, x) for f in chain) if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    return changes(Fraction(-2)) - changes(Fraction(2))


def _horner(f: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _polish(f: list[int], x: float) -> float:
    """Newton's method on f in floats, kept inside [-2, 2]."""
    fl = [float(c) for c in f]
    df = [i * c for i, c in enumerate(fl)][1:]
    best, best_val = x, math.inf
    for _ in range(_POLISH_STEPS):
        val = _horner(fl, x)
        if abs(val) >= best_val:
            break
        best, best_val = x, abs(val)
        slope = _horner(df, x)
        if val == 0 or slope == 0:
            break
        x = min(2.0, max(-2.0, x - val / slope))
    return best


def _certify(f: list[int], seeds: list[float]) -> list[Fraction]:
    """One exact root representative in (-2, 2) per sorted seed, each in
    its own bracket across which f changes sign."""
    out = []
    mids = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(seeds, seeds[1:])]
    bounds = [Fraction(-2)] + mids + [Fraction(2)]
    for s, left, right in zip(seeds, bounds, bounds[1:]):
        x = Fraction(s)
        r = Fraction(1, 1 << _BRACKET_BITS)
        while True:
            lo, hi = max(x - r, left), min(x + r, right)
            s_lo, s_hi = _sign_at(f, lo), _sign_at(f, hi)
            if s_lo * s_hi < 0:
                break
            if lo == left and hi == right:
                raise RootFindingError(
                    "no sign change certifies the root near x = %r" % s)
            r *= 2
        while hi - lo > min(lo + 2, 2 - hi) / (1 << _REFINE_BITS):
            mid = (lo + hi) / 2
            s_mid = _sign_at(f, mid)
            if s_mid == 0:
                lo = hi = mid
            elif s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        x = x if lo < x < hi else (lo + hi) / 2
        y = _exact_newton(f, x)
        out.append(y if lo < y < hi else x)
    return out


def _real_roots_inside(f: list[int], count: int) -> list[Fraction]:
    """Certified representatives of the count real roots of the
    square-free f in (-2, 2)."""
    if count == 0:
        return []
    # Nearest the real axis first, then farthest from +-2: a real root just
    # outside (-2, 2) can round onto an end.
    seeds = [(abs(r.imag), -(2 - abs(r.real)), float(r.real))
             for r in np.roots([float(c) for c in reversed(f)])
             if abs(r.real) <= 2]
    if len(seeds) < count:
        raise RootFindingError("%d real roots in (-2, 2) expected, %d seeds "
                               "found" % (count, len(seeds)))
    polished = sorted(_polish(f, x) for _, _, x in sorted(seeds)[:count])
    return _certify(f, polished)


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
        # The decomposition strips the power of x, which is a root here.
        zeros = next(i for i, c in enumerate(q) if c)
        parts = [(_sturm_chain([0, 1]), zeros)] if zeros else []
        for factor, mult in squarefree_decomposition(
                LaurentPoly.from_coefficients(q)):
            f = _integral([factor[k] for k in range(factor.max_exp() + 1)])
            parts.append((_sturm_chain(f), mult))
    out = []
    for ch, mult in parts:
        for x in _real_roots_inside(ch[0], _count_inside(ch)):
            theta = 2.0 * math.atan2(math.sqrt(2 - x), math.sqrt(2 + x))
            out += [(theta, mult), (2.0 * math.pi - theta, mult)]
    return sorted(out)
