"""Levine-Tristram signatures from Seifert matrices.

For a 2g x 2g integer Seifert matrix V and unit-modulus omega != 1, the
form H(omega) = (1-omega)V + (1-conj(omega))V^T is Hermitian; its
signature is the Levine-Tristram signature at omega.  The function is
locally constant away from unit-circle roots of delta(t) = det(V - tV^T)
and jumps only across roots of odd multiplicity; the averaged convention
takes the mean of the two one-sided values, recovering a well-defined
number at the roots themselves.  sigma(1) = 0 always (H(1) = 0).

Loading computes delta(t) once, by the Bareiss kernel of _zt on the
integer rows of V - tV^T, and validates its value at t = 1,
det(V - V^T) = +-1, the fairness check that V actually is a Seifert
matrix of a knot.  delta is then exact and palindromic, and
delta(-1) = det(V + V^T) is the knot determinant, which is odd, so delta
meets the contract of roots.unit_circle_roots: its unit-circle roots are
found exactly, once per matrix, as real roots of q(t + 1/t) in (-2, 2)
isolated by Sturm counts and refined by exact bisection at dyadic
points.  They cut the circle into constancy arcs, and the jump at a root
is the difference of the arcs on either side.  V is real, so
H(conj omega) = conj H(omega) has the same eigenvalues and
sigma(conj omega) = sigma(omega) (Levine 1969; Tristram 1969); the roots
come in conjugate pairs, none at omega = -1 (delta(-1) is odd).  So one
eigvalsh call on the stacked forms reads sigma at the midpoints of the
arcs from the first root to the one across omega = -1, and of the arc
through omega = 1: m/2 + 1 forms for m roots.  Each arc in the lower half
takes the value of its mirror.  The arc through omega = 1 is read at
omega = 1 up to rounding, where H vanishes and sigma is 0.
Eigenvalues within _ZERO_TOL of 0 count as zeros of the form, not
toward its signature.

The arc table, filled on first use and kept, also answers point reads.
lt_signature(v, omega) is the value of the arc that holds omega when the
angle of omega is more than _ARC_MARGIN = 1e-6 from every root; nearer
a root, or on it, it solves H(omega) alone.  averaged_signature is the
value of omega's arc away from the roots and, within _AT_ROOT = 1e-9 of
a root, the mean of the two arcs that meet there.  With no roots sigma
is 0 on the whole circle, the value it has next to omega = 1.
lt_signature_detail always solves H(omega) alone: it also counts the
near-zero eigenvalues, which no arc records.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from . import _zt
from .errors import AlgebraError, CertificationError, ParseError
from .laurent import LaurentPoly, _from_zt
from .roots import unit_circle_roots

_ZERO_TOL = 1e-9
_ARC_MARGIN = 1e-6
_AT_ROOT = 1e-9


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
        # V - tV^T as dense Z[t] lists: a - bt, a or 0.
        pivot, sign = _zt.bareiss([[[a, -b] if b else [a] if a else []
                                    for a, b in zip(row, col)]
                                   for row, col in zip(self.rows,
                                                       zip(*self.rows))])
        self._delta = _from_zt(pivot, 0, Fraction(sign))
        pairing = sign * sum(pivot)     # delta(1) = det(V - V^T)
        if pairing not in (1, -1):
            raise ParseError("det(V - V^T) = %s; a knot Seifert matrix needs "
                             "+-1" % pairing)
        self._form = np.array(self.rows, dtype=complex).reshape(self.n, self.n)
        self._unit_roots = None
        self._arc_sigs: list[int] | None = None

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


def _signatures(v: SeifertMatrix, omegas: list[complex]
                ) -> list[tuple[int, int]]:
    """(signature, near-zero eigenvalue count) of H(omega) per omega, all
    from one eigvalsh call on the stacked forms."""
    w = np.array(omegas, dtype=complex).reshape(-1, 1, 1)
    eig = np.linalg.eigvalsh((1 - w) * v._form + (1 - w.conj()) * v._form.T)
    pos = np.sum(eig > _ZERO_TOL, axis=1)
    neg = np.sum(eig < -_ZERO_TOL, axis=1)
    zeros = np.sum(np.abs(eig) <= _ZERO_TOL, axis=1)
    return [(int(p - q), int(z)) for p, q, z in zip(pos, neg, zeros)]


def _on_circle(omega) -> complex:
    """omega as a complex number; AlgebraError off the unit circle."""
    omega = complex(omega)
    if not abs(abs(omega) - 1.0) <= 1e-12:    # also refuses nan
        raise AlgebraError("omega must lie on the unit circle, got |omega| = %r"
                           % abs(omega))
    return omega


def lt_signature_detail(v: SeifertMatrix, omega: complex) -> tuple[int, int]:
    """(signature, number of excluded near-zero eigenvalues) at omega."""
    return _signatures(v, [_on_circle(omega)])[0]


def _arc_reading(v: SeifertMatrix, omega: complex) -> tuple[float, int, int]:
    """(d, here, there): the angular distance d from omega to the nearest
    unit-circle root of delta, sigma on the arc that holds omega, and sigma
    on the arc across that root; (pi, 0, 0) with no roots."""
    arcs = _arc_signatures(v)
    if not arcs:
        return math.pi, 0, 0
    theta = cmath.phase(omega)
    i, s = min(((i, (theta - a + math.pi) % (2.0 * math.pi) - math.pi)
                for i, (a, _) in enumerate(v.unit_roots())),
               key=lambda r: abs(r[1]))
    # arc i follows root i, arc i - 1 precedes it
    return (s, arcs[i], arcs[i - 1]) if s > 0 else (-s, arcs[i - 1], arcs[i])


def lt_signature(v: SeifertMatrix, omega: complex) -> int:
    """Signature of (1-omega)V + (1-conj omega)V^T, zeros excluded: the
    value of omega's arc, or one solve within _ARC_MARGIN of a root."""
    omega = _on_circle(omega)
    d, here, _ = _arc_reading(v, omega)
    return here if d > _ARC_MARGIN else _signatures(v, [omega])[0][0]


def averaged_signature(v: SeifertMatrix, omega: complex) -> Fraction:
    """Mean of the two one-sided signatures at omega.

    Away from the roots both sides lie on omega's arc and the mean is its
    value; within _AT_ROOT of a root it is the mean of the two arcs that
    meet there.  At omega = 1 it gives 0, since delta(1) = +-1 keeps roots
    away.
    """
    d, here, there = _arc_reading(v, _on_circle(omega))
    return Fraction(here + there, 2) if d <= _AT_ROOT else Fraction(here)


def _arc_signatures(v: SeifertMatrix) -> list[int]:
    """sigma on each constancy arc, found once and kept.

    Arc i runs from the i-th unit-circle root of delta to the next, the
    last one around through omega = 1 back to the first.  Of m roots, arcs
    0 to m/2 - 1 and m - 1 are read at their midpoints; arc m/2 + j
    mirrors arc m/2 - 2 - j (see the module docstring).
    """
    if v._arc_sigs is None:
        angles = [a for a, _ in v.unit_roots()]
        half = len(angles) // 2
        read = [np.exp(0.5j * (a + b))
                for a, b in zip(angles[:half], angles[1:half + 1])]
        read += [np.exp(0.5j * (a + (b + 2.0 * np.pi)))
                 for a, b in zip(angles[-1:], angles[:1])]
        sigs = [sig for sig, _ in _signatures(v, read)]
        v._arc_sigs = sigs[:half] + sigs[:half - 1][::-1] + sigs[half:]
    return v._arc_sigs


def signature_jumps(v: SeifertMatrix) -> list[tuple[float, int]]:
    """(angle, jump) at every unit-circle root of delta where sigma moves.

    The jump at a root is sigma on the arc after it minus sigma on the arc
    before it, one signature per arc.  Roots of even multiplicity may leave
    the signature unchanged; those contribute no entry, so a knot whose
    signature function is identically zero reports an empty list.  The
    jumps are read off the kept arc table, with no further solve.
    """
    arcs = _arc_signatures(v)
    out = []
    for i, (theta, mult) in enumerate(v.unit_roots()):
        jump = arcs[i] - arcs[i - 1]
        if mult % 2 == 1 and jump == 0:
            # An odd-multiplicity circle root must move the signature.
            raise CertificationError(
                "no signature jump at angle %.6f despite odd multiplicity %d"
                % (theta, mult))
        if jump != 0:
            out.append((theta, jump))
    return out


def is_identically_zero(v: SeifertMatrix) -> bool:
    """Whether the signature function vanishes on the whole unit circle.

    True iff every jump is zero and the signature is zero on each constancy
    arc (the values signature_jumps read).  The circle roots come from
    exact Sturm isolation, so sigma is constant on each arc, and with no
    roots the one arc holds omega = 1, where sigma = 0: no further point
    can change the verdict.
    """
    return not signature_jumps(v) and not any(_arc_signatures(v))
