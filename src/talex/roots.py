"""Certified numerical roots of univariate polynomials.

complex_roots accepts exact or floating Laurent polynomials.  Laurent
units t^k are stripped first (0 is never counted as a root).  Exact inputs
go through the square-free decomposition, so every companion-matrix solve
sees only simple roots and multiplicities are carried exactly; floating
inputs rely on clustering at a configurable radius, which is the honest
resolution limit of floating multiplicity detection.

Every returned root r is certified against the residual bound

    |p(r)| <= tol * (sum of |coefficients|) * max(1, |r|)^deg(p)

which is the attainable backward-error scale; violation raises
RootFindingError rather than returning an uncertified value.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError, RootFindingError
from .laurent import LaurentPoly, squarefree_decomposition

DEFAULT_CLUSTER_RADIUS = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8
# Newton steps that polish a companion-matrix root, at most.
_POLISH_STEPS = 20
# A root within this distance of |r| = 1 lies on the unit circle.
_UNIT_CIRCLE_TOL = 1e-9


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


def unit_circle_roots(p) -> list[tuple[float, int]]:
    """Roots on the unit circle as (angle in [0, 2pi), multiplicity)."""
    out = []
    for r, m in complex_roots(p):
        if abs(abs(r) - 1.0) <= _UNIT_CIRCLE_TOL:
            theta = float(np.angle(r)) % (2.0 * np.pi)
            out.append((theta, m))
    return sorted(out)


def distinct_values(values: list[complex]) -> list[complex]:
    """Representatives of the values after merging points within
    DEFAULT_CLUSTER_RADIUS."""
    return [c for c, _ in _cluster([complex(v) for v in values],
                                   DEFAULT_CLUSTER_RADIUS)]
