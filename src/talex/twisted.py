"""Twisted Alexander polynomials of deficiency-one presentations.

The construction: extend a representation rho and the abelianization
g -> t^1 to a ring map Phi from the group ring to 2x2 matrices over
Laurent polynomials, apply Phi to the Fox derivative matrix of the
relators with one generator column removed, and form

    det(Phi Fox-matrix) / det(Phi(gamma_k) - I).

For special linear rho the quotient is well defined up to powers t^(2i),
so the leading coefficient is an invariant on the nose; for nonabelian
special linear rho it is a genuine Laurent polynomial.  The rank-one
specialization (rho trivial, 1x1 blocks) recovers the classical Alexander
polynomial, which deficiency-one meridional presentations yield directly
as the removed-column determinant.

Degrees here are exponent spans (top minus bottom of the support), the
right notion for quantities defined up to units: for an irreducible
representation of a genus-g knot the span is at most 4g-2, with equality
exactly when the polynomial detects the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraError, CertificationError
from .laurent import DEFAULT_CLEAN_EPS, LaurentPoly, LaurentRational
from .matrix import det
from .presentations import Presentation
from .representations import Representation
from .words import FreeWord, abelianization_exponent, fox_derivative

DEFAULT_POLY_TOL = 1e-8
DEFAULT_MONIC_TOL = 1e-5


_RANK_ONE = ((Fraction(1),),)


def _phi(elem, image, size: int) -> list[list[LaurentPoly]]:
    """Apply t^abelianization tensor image to a group ring element, where
    image sends a word to a size x size matrix."""
    entries: list[list[dict]] = [[{} for _ in range(size)] for _ in range(size)]
    for w, c in elem.terms.items():
        k = abelianization_exponent(w)
        m = image(w)
        for i in range(size):
            for j in range(size):
                d = entries[i][j]
                d[k] = d.get(k, 0) + c * m[i][j]
    return [[LaurentPoly(d) for d in row] for row in entries]


def _fox_matrix(p: Presentation, removed: int, image,
                size: int) -> list[list[LaurentPoly]]:
    """The Fox matrix with one generator column removed, each entry
    expanded into its size x size Phi-block."""
    p.require_deficiency_one()
    n = p.num_generators
    if not 0 <= removed < n:
        raise AlgebraError("removed column %d out of range" % removed)
    rows: list[list[LaurentPoly]] = []
    for r in p.relators:
        block_rows: list[list[LaurentPoly]] = [[] for _ in range(size)]
        for j in range(n):
            if j == removed:
                continue
            block = _phi(fox_derivative(r, j), image, size)
            for out, row in zip(block_rows, block):
                out.extend(row)
        rows.extend(block_rows)
    return rows


def phi_evaluate(elem, rho: Representation) -> list[list[LaurentPoly]]:
    """Apply Phi = (t^abelianization tensor rho) to a group ring element.

    Returns a 2x2 matrix of Laurent polynomials, exact when rho is exact.
    """
    return _phi(elem, rho.image, 2)


def fox_matrix_laurent(p: Presentation, rho: Representation,
                       removed: int) -> list[list[LaurentPoly]]:
    """The Phi-image of the Fox matrix with one generator column removed,
    assembled as a 2(n-1) x 2(n-1) matrix of Laurent polynomial entries."""
    return _fox_matrix(p, removed, rho.image, 2)


@dataclass
class TwistedAlex:
    """A computed twisted Alexander value.

    value is always the raw quotient as a rational function.  When the
    quotient is (numerically) an exact division, polynomial holds the
    quotient normalized to lowest exponent 0, degree its exponent span,
    leading its top coefficient (invariant under the residual t^(2i)
    ambiguity), and monic whether the leading coefficient is 1 to the
    stated tolerance.  Nonpolynomial values leave those fields as None.
    """

    value: LaurentRational
    polynomial: LaurentPoly | None
    degree: int | None
    leading: object | None
    monic: bool | None
    monic_tol: float = DEFAULT_MONIC_TOL

    def is_polynomial(self) -> bool:
        return self.polynomial is not None

    def is_monic(self, tol: float | None = None) -> bool:
        if self.leading is None:
            raise AlgebraError("nonpolynomial value has no leading coefficient")
        if isinstance(self.leading, Fraction):
            return self.leading == 1
        tol = self.monic_tol if tol is None else tol
        return abs(complex(self.leading) - 1.0) <= tol

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.polynomial is not None:
            lead = complex(self.leading)
            out["polynomial"] = self.polynomial.to_json_dict()
            out["degree"] = self.degree
            out["leading"] = [lead.real, lead.imag]
            out["monic"] = bool(self.monic)
            out["genus_lower_bound"] = genus_lower_bound(self, nontrivial=True)
        else:
            out["polynomial"] = None
            out["value"] = self.value.to_json_dict()
        return out


def make_twisted(value: LaurentRational, clean_eps: float = DEFAULT_CLEAN_EPS,
                 poly_tol: float = DEFAULT_POLY_TOL,
                 monic_tol: float = DEFAULT_MONIC_TOL) -> TwistedAlex:
    """Classify a quotient and normalize its polynomial representative."""
    poly = value.attempt_polynomial(poly_tol)
    if poly is None:
        return TwistedAlex(value, None, None, None, None, monic_tol)
    poly = poly.cleanup(clean_eps)
    if poly.is_zero():
        return TwistedAlex(value, poly, 0, poly[0], False, monic_tol)
    poly = poly.shift(-poly.min_exp())
    lead = poly.leading()
    ta = TwistedAlex(value, poly, poly.degree(), lead, None, monic_tol)
    ta.monic = ta.is_monic()
    return ta


def wada_invariant(p: Presentation, rho: Representation,
                   removed: int | None = None,
                   clean_eps: float = DEFAULT_CLEAN_EPS,
                   poly_tol: float = DEFAULT_POLY_TOL,
                   monic_tol: float = DEFAULT_MONIC_TOL) -> TwistedAlex:
    """The twisted Alexander value det(Phi M_k) / det(Phi(gamma_k) - 1).

    The removed column defaults to the last generator.  The denominator
    det(t*rho(gamma_k) - I) = t^2 - trace*t + det is nonzero for any
    2x2 rho, but a denominator that vanishes identically (malformed rho)
    is rejected rather than divided by.
    """
    p.require_deficiency_one()
    n = p.num_generators
    k = n - 1 if removed is None else removed
    num = det(fox_matrix_laurent(p, rho, k)).cleanup(clean_eps)

    g = rho.image(FreeWord([k + 1]))
    tr, dt = g[0][0] + g[1][1], g[0][0] * g[1][1] - g[0][1] * g[1][0]
    den = LaurentPoly({2: dt, 1: -tr, 0: 1})
    if den.is_zero():
        raise AlgebraError("denominator det(Phi(gamma_k) - 1) vanishes")
    if num.is_zero():
        raise AlgebraError("numerator determinant vanishes; representation "
                           "does not define a twisted polynomial")
    return make_twisted(LaurentRational(num, den), clean_eps, poly_tol, monic_tol)


def alexander(p: Presentation, removed: int | None = None) -> LaurentPoly:
    """Classical Alexander polynomial from the rank-one specialization.

    Exact throughout.  The result is normalized to lowest exponent 0 with
    positive leading coefficient, and the knot-polynomial sign condition
    delta(1) = +-1 is enforced as a cross-check that the input presents a
    knot group with meridional abelianization.
    """
    k = p.num_generators - 1 if removed is None else removed
    d = det(_fox_matrix(p, k, lambda w: _RANK_ONE, 1))
    if d.is_zero():
        raise AlgebraError("Fox determinant vanishes; input does not present "
                           "a knot group at deficiency one")
    d = d.unit_normal()
    if d.evaluate(Fraction(1)) not in (1, -1):
        raise CertificationError(
            "delta(1) = %s violates the knot condition delta(1) = +-1"
            % d.evaluate(Fraction(1)))
    return d


def genus_lower_bound(ta: TwistedAlex, nontrivial: bool = False) -> int:
    """Least g with 4g - 2 >= degree span; 0 for span 0 unless the caller
    asserts the knot is nontrivial."""
    if ta.polynomial is None:
        raise AlgebraError("genus bound needs a polynomial value")
    d = ta.degree
    if d == 0:
        return 1 if nontrivial else 0
    if d % 2 == 1:
        raise CertificationError("odd exponent span %d contradicts the "
                                 "duality of special linear twists" % d)
    return (d + 2 + 3) // 4


def determines_genus(ta: TwistedAlex, g: int) -> bool:
    """Whether the degree span meets the sharp bound 4g - 2."""
    if ta.polynomial is None:
        raise AlgebraError("genus detection needs a polynomial value")
    if g < 1:
        raise AlgebraError("genus must be at least 1 for a nontrivial knot")
    return ta.degree == 4 * g - 2


def coefficient_profile(ta: TwistedAlex, g: int,
                        sym_tol: float = 1e-6) -> list:
    """Coefficients psi_0..psi_(4g-2) of the representative centered in the
    window [0, 4g-2], zero-padded symmetrically.

    The palindromic symmetry psi_k = psi_(4g-2-k) is verified (exactly in
    the exact domain, to sym_tol relative otherwise); violation means the
    input is not the twist of a genus-g knot representation and is an error.
    """
    if ta.polynomial is None:
        raise AlgebraError("coefficient profile needs a polynomial value")
    if g < 1:
        raise AlgebraError("genus must be at least 1")
    width = 4 * g - 2
    d = ta.degree
    if d > width:
        raise CertificationError("degree span %d exceeds 4g-2 = %d" % (d, width))
    if (width - d) % 2 != 0:
        raise CertificationError("span %d cannot be centered in [0, %d]"
                                 % (d, width))
    off = (width - d) // 2
    poly = ta.polynomial
    exact = poly.is_exact()
    zero = Fraction(0) if exact else 0j
    psi = [zero] * (width + 1)
    for k, c in poly.coeffs.items():
        psi[k + off] = c
    scale = max(1.0, poly.max_abs())
    for k in range(width + 1):
        a, b = psi[k], psi[width - k]
        if exact:
            ok = a == b
        else:
            ok = abs(complex(a) - complex(b)) <= sym_tol * scale
        if not ok:
            raise CertificationError(
                "coefficient symmetry psi_%d = psi_%d fails: %r vs %r"
                % (k, width - k, a, b))
    return psi


def normalized_close(p1: LaurentPoly, p2: LaurentPoly, tol: float = 1e-8) -> bool:
    """Equality of normalized representatives: both shifted to lowest
    exponent 0, compared coefficientwise (exactly when both exact)."""
    if p1.is_zero() or p2.is_zero():
        return p1.is_zero() and p2.is_zero()
    a = p1.shift(-p1.min_exp())
    b = p2.shift(-p2.min_exp())
    if a.is_exact() and b.is_exact():
        return a == b
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    keys = set(a.coeffs) | set(b.coeffs)
    return all(abs(complex(a[k]) - complex(b[k])) <= tol * scale for k in keys)
