"""Levine-Tristram signatures from Seifert matrices.

For a 2g x 2g integer Seifert matrix V and unit-modulus omega != 1, the
form H(omega) = (1-omega)V + (1-conj(omega))V^T is Hermitian; its
signature is the Levine-Tristram signature at omega.  The function is
locally constant away from unit-circle roots of delta(t) = det(V - tV^T)
and jumps only across roots of odd multiplicity; the averaged convention
takes the mean of the two one-sided values, recovering a well-defined
number at the roots themselves.  sigma(1) = 0 always (H(1) = 0).

Loading computes delta(t) once and validates its value at t = 1,
det(V - V^T) = +-1, the fairness check that V actually is a Seifert
matrix of a knot; everything downstream is cross-checked against
delta(t), which any Seifert surface of the same knot reproduces up to
units.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import AlgebraError, CertificationError, ParseError
from .laurent import LaurentPoly
from .matrix import det
from .roots import unit_circle_roots

DEFAULT_ZERO_TOL = 1e-9


class SeifertMatrix:
    """An integer Seifert matrix, validated at construction."""

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ParseError("Seifert matrix must be square")
        if any(x != int(x) for r in rows for x in r):
            raise ParseError("Seifert matrix entries must be integers")
        self.rows = [[int(x) for x in row] for row in rows]
        self.n = len(rows)
        if self.n % 2 != 0:
            raise ParseError("Seifert matrix of a knot has even size, got %d"
                             % self.n)
        self._delta = det([[LaurentPoly({0: Fraction(self.rows[i][j]),
                                         1: -Fraction(self.rows[j][i])})
                             for j in range(self.n)] for i in range(self.n)])
        pairing = self._delta.evaluate(Fraction(1))   # det(V - V^T)
        if pairing not in (1, -1):
            raise ParseError("det(V - V^T) = %s; a knot Seifert matrix needs "
                             "+-1" % pairing)
        self._unit_roots = None

    @classmethod
    def from_text(cls, text: str) -> "SeifertMatrix":
        rows = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                raise ParseError("non-integer Seifert matrix entry in %r"
                                 % line) from None
        return cls(rows)

    def alexander(self) -> LaurentPoly:
        """det(V - t V^T), exact; equals the Alexander polynomial up to units."""
        return self._delta

    def unit_roots(self) -> list[tuple[float, int]]:
        """(angle, multiplicity) of the unit-circle roots of delta, found on
        first use and kept."""
        if self._unit_roots is None:
            self._unit_roots = unit_circle_roots(self._delta)
        return self._unit_roots

    def genus(self) -> int:
        return self.n // 2

    def __repr__(self):
        return "SeifertMatrix(%dx%d)" % (self.n, self.n)


def _hermitian_form(v: SeifertMatrix, omega: complex) -> np.ndarray:
    V = np.array(v.rows, dtype=complex) if v.n else np.zeros((0, 0), dtype=complex)
    return (1 - omega) * V + (1 - np.conj(omega)) * V.T


def lt_signature_detail(v: SeifertMatrix, omega: complex,
                        zero_tol: float = DEFAULT_ZERO_TOL) -> tuple[int, int]:
    """(signature, number of excluded near-zero eigenvalues) at omega."""
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-12:
        raise AlgebraError("omega must lie on the unit circle, got |omega| = %r"
                           % abs(omega))
    if v.n == 0:
        return 0, 0
    eig = np.linalg.eigvalsh(_hermitian_form(v, omega))
    zeros = int(np.sum(np.abs(eig) <= zero_tol))
    sig = int(np.sum(eig > zero_tol)) - int(np.sum(eig < -zero_tol))
    return sig, zeros


def lt_signature(v: SeifertMatrix, omega: complex,
                 zero_tol: float = DEFAULT_ZERO_TOL) -> int:
    """Signature of (1-omega)V + (1-conj omega)V^T, zeros excluded."""
    return lt_signature_detail(v, omega, zero_tol)[0]


def _unit_root_angles(v: SeifertMatrix, delta: LaurentPoly | None = None
                      ) -> list[tuple[float, int]]:
    """The unit-circle roots of det(V - tV^T), after cross-checking a
    supplied delta against it up to units."""
    if delta is not None:
        if not delta.is_exact():
            raise AlgebraError("cross-check polynomial must be exact")
        own = v.alexander()
        if own.unit_normal() != delta.unit_normal():
            raise CertificationError(
                "det(V - tV^T) = %s does not match the supplied polynomial "
                "%s up to units" % (own.to_text(), delta.to_text()))
    return v.unit_roots()


def _min_angular_gap(angles: list[float]) -> float:
    """Minimal gap between distinct angles (2*pi with fewer than two)."""
    if len(angles) < 2:
        return 2.0 * np.pi
    s = sorted(angles)
    gaps = [b - a for a, b in zip(s, s[1:])]
    gaps.append(2.0 * np.pi - (s[-1] - s[0]))
    return min(gaps)


def _safe_radius(angles: list[float], theta: float) -> float:
    """Largest radius around theta certified free of OTHER circle roots.

    A root within 1e-9 of theta is theta itself (the evaluation point
    sitting on a root); every other root bounds the radius.  With no
    other roots the radius is pi, the diameter of the angle metric.
    """
    d = np.pi
    for a in angles:
        diff = abs((a - theta + np.pi) % (2.0 * np.pi) - np.pi)
        if diff > 1e-9:
            d = min(d, diff)
    return d


def averaged_signature(v: SeifertMatrix, omega: complex,
                       eps: float | None = None,
                       zero_tol: float = DEFAULT_ZERO_TOL) -> Fraction:
    """Mean of the two one-sided signatures at omega.

    eps defaults to half the angular distance from omega to the nearest
    unit-circle root of delta other than omega itself, so both offset
    points stay inside the constancy arcs adjacent to omega; a supplied
    eps must stay strictly below that verified radius.  Away from the
    roots this reduces to lt_signature (both offsets share omega's arc);
    at omega = 1 it gives 0, since delta(1) = +-1 keeps roots away.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-12:
        raise AlgebraError("omega must lie on the unit circle")
    angles = [a for a, _ in v.unit_roots()]
    theta = float(np.angle(omega))
    radius = _safe_radius(angles, theta)
    if eps is None:
        eps = radius / 2.0
    elif not 0 < eps < radius:
        raise AlgebraError("eps = %g is not strictly below the certified "
                           "root-free radius %g" % (eps, radius))
    plus = lt_signature(v, np.exp(1j * (theta + eps)), zero_tol)
    minus = lt_signature(v, np.exp(1j * (theta - eps)), zero_tol)
    return Fraction(plus + minus, 2)


def signature_jumps(v: SeifertMatrix, delta: LaurentPoly | None = None,
                    zero_tol: float = DEFAULT_ZERO_TOL
                    ) -> list[tuple[float, int]]:
    """(angle, jump) at every unit-circle root of delta where sigma moves.

    delta, when supplied, is only a cross-check: it must agree with
    det(V - tV^T) up to units.  Roots of even multiplicity may leave the
    signature unchanged; those contribute no entry, so a knot whose
    signature function is identically zero reports an empty list.
    """
    roots = _unit_root_angles(v, delta)
    angles = [a for a, _ in roots]
    gap = _min_angular_gap(angles)
    eps = gap / 2.0
    out = []
    for theta, mult in roots:
        plus = lt_signature(v, np.exp(1j * (theta + eps)), zero_tol)
        minus = lt_signature(v, np.exp(1j * (theta - eps)), zero_tol)
        jump = plus - minus
        if mult % 2 == 1 and jump == 0:
            # An odd-multiplicity circle root must move the signature.
            raise CertificationError(
                "no signature jump at angle %.6f despite odd multiplicity %d"
                % (theta, mult))
        if jump != 0:
            out.append((theta, jump))
    return out


def is_identically_zero(v: SeifertMatrix, delta: LaurentPoly | None = None,
                        zero_tol: float = DEFAULT_ZERO_TOL,
                        samples: int = 16) -> bool:
    """Whether the signature function vanishes on the whole unit circle.

    True iff every jump is zero and the signature is zero on a sample of
    each constancy interval (plus a uniform sweep for robustness).
    delta, when supplied, is cross-checked against det(V - tV^T).
    """
    roots = _unit_root_angles(v, delta)
    if any(j != 0 for _, j in signature_jumps(v, delta)):
        return False
    angles = sorted(a for a, _ in roots)
    probes = []
    if angles:
        ext = angles + [angles[0] + 2.0 * np.pi]
        probes.extend((a + b) / 2.0 for a, b in zip(ext, ext[1:]))
    probes.extend(2.0 * np.pi * (k + 0.5) / samples for k in range(samples))
    for theta in probes:
        if lt_signature(v, np.exp(1j * theta), zero_tol) != 0:
            return False
    return True
