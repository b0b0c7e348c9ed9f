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

Phi of the Fox matrix comes from one left-to-right scan per relator that
carries the prefix u and its image t^ab(u) rho(u), one matrix product per
letter: x_g adds +Phi(u) to column g, and x_g^-1 first extends u by itself,
then adds -Phi(u).  These are the terms words.fox_derivative lists, in its
order, and each is added as old + c*s with the int c = +-1, onto int zeros
at a new exponent, so the sums equal those through the group ring to the
last bit.  The scan holds rho(u) as four locals and writes the 2x2 product
out inline, with no call per letter, and each column keeps one
{exponent: (s00, s01, s10, s11)} dict of block sums, one update per letter.
An exact rho is scanned in ints.  With D the lcm of the denominators of
its generator matrices, a relator of length m carries D^m rho(u) in place
of rho(u): an integer matrix for every prefix u, updated by the integer
matrix D rho(x) and one exact division by D per letter.  Each entry is
summed over D^m and made a Fraction once.  Any other rho is scanned in
plain Python complex numbers, its images converted first (numpy scalars
among them), so fox_matrix_laurent takes its sums as they stand.  Rank
one scans the identity in ints.  The scan (_fox_scan) returns those raw
blocks, and two readers share it: fox_matrix_laurent expands them into
Laurent entries, and charcurves.leading_determinant_sample reads the
exponent-1 blocks alone, as rows of A by _block_rows.

Both determinants are taken on presentations.simplify(p, k): Tietze moves
eliminate generators other than the removed one, so a Wirtinger
presentation of T(2, n) on n generators becomes one on 2, and the Fox
matrix shrinks from 2(n-1) to 2 rows.  For a representation of the group
the two determinants differ by the unit t^E that simplify returns (Wada
1994), and the numerator is shifted back by it, so exact values are those
of the unreduced matrix.

Degrees here are exponent spans (top minus bottom of the support), the
right notion for quantities defined up to units: for an irreducible
representation of a genus-g knot the span is at most 4g-2, with equality
exactly when the polynomial detects the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import AlgebraError, CertificationError
from .laurent import LaurentPoly, LaurentRational, _built
from .matrix import det
from .presentations import Presentation, simplify
from .representations import Representation
from ._sl2 import _COMPLEX_ID, _letter_images, _mat_det
from .words import FreeWord

# A floating quotient q = num / den is a polynomial when num - q den has
# no coefficient above _POLY_TOL max(|num|, 1); it is monic when its
# leading coefficient is within _MONIC_TOL of 1; its coefficients are
# symmetric when psi_k and psi_(4g-2-k) agree to _SYM_TOL relative.
_POLY_TOL = 1e-8
_MONIC_TOL = 1e-5
_SYM_TOL = 1e-6

# The sums at an exponent not seen before.  A term is added as old + c*s
# with the int c = +-1, as the group ring adds it, also onto these zeros:
# s or -s in its place would round signed zeros differently.
_ZEROS = (0, 0, 0, 0)


def fox_matrix_laurent(p: Presentation, rho: Representation | None,
                       removed: int) -> list[list[LaurentPoly]]:
    """The Phi-image of the Fox matrix with one generator column removed,
    by the prefix scan of the module docstring: 2x2 blocks, a
    2(n-1) x 2(n-1) matrix of Laurent polynomials, or 1x1 blocks when rho
    is None (rank one)."""
    exact = rho is None or rho.is_exact()
    size = 1 if rho is None else 2
    return [[_entry(blocks, 2 * i + j, exact, top)
             for blocks in row for j in range(size)]
            for row, top in _fox_scan(p, rho, removed) for i in range(size)]


def _fox_scan(p: Presentation, rho: Representation | None, removed: int
              ) -> list[tuple[list[dict], int]]:
    """The prefix scan of the module docstring: for each relator, the
    blocks of its kept columns, each an {exponent: (s00, s01, s10, s11)}
    dict of the 2x2 sums, and the scale top by which the sums exceed the
    entries (D^m for an exact rho, else 1).  Rank one scans the identity
    in ints, so its sums are entry s00 of each block."""
    p.require_deficiency_one()
    n = p.num_generators
    if not 0 <= removed < n:
        raise AlgebraError("removed column %d out of range" % removed)
    den = 1
    if rho is None:
        start, mats = (1, 0, 0, 1), [(1, 0, 0, 1)] * n
    elif rho.is_exact():
        mats = rho.matrices
        den = lcm(*(Fraction(e).denominator for m in mats for e in m))
        start, mats = (1, 0, 0, 1), [tuple(int(e * den) for e in m)
                                     for m in mats]
    else:       # numpy scalars too: every sum is then a plain complex
        start, mats = _COMPLEX_ID, [tuple(map(complex, m))
                                    for m in rho.matrices]
    letters = _letter_images(mats)
    rows: list[tuple[list[dict], int]] = []
    for r in p.relators:
        top = den ** len(r)
        cols = [{} for _ in range(n)]
        at = [None, *cols, *reversed(cols)]     # indexed as letters is
        u00, u01, u10, u11 = start if top == 1 else (top, 0, 0, top)
        e = 0
        for x in r:
            l00, l01, l10, l11 = letters[x]
            v00, v01, v10, v11 = (
                u00 * l00 + u01 * l10, u00 * l01 + u01 * l11,
                u10 * l00 + u11 * l10, u10 * l01 + u11 * l11)
            if den != 1:
                v00, v01, v10, v11 = (v00 // den, v01 // den,
                                      v10 // den, v11 // den)
            d = at[x]
            if x > 0:
                o00, o01, o10, o11 = d.get(e, _ZEROS)
                d[e] = (o00 + 1 * u00, o01 + 1 * u01,
                        o10 + 1 * u10, o11 + 1 * u11)
                e += 1
            else:   # x^-1 extends the prefix by itself first
                e -= 1
                o00, o01, o10, o11 = d.get(e, _ZEROS)
                d[e] = (o00 + -1 * v00, o01 + -1 * v01,
                        o10 + -1 * v10, o11 + -1 * v11)
            u00, u01, u10, u11 = v00, v01, v10, v11
        del cols[removed]
        rows.append((cols, top))
    return rows


def _entry(blocks: dict, k: int, exact: bool, den: int) -> LaurentPoly:
    """The Laurent entry k of blocks of scan sums: integers over den when
    exact, else plain complex numbers, which _built takes as they stand."""
    if exact:
        return LaurentPoly._clean({e: Fraction(b[k], den)
                                   for e, b in blocks.items() if b[k]}, True)
    return _built({e: b[k] for e, b in blocks.items()})


def _block_rows(blocks: list[dict], e: int) -> list[list]:
    """The two rows of the t^e sums of a relator's 2x2 blocks, side by
    side: row i holds entries (i, 0) and (i, 1) of each block."""
    at = [d.get(e, _ZEROS) for d in blocks]
    return [[s for b in at for s in b[i:i + 2]] for i in (0, 2)]


def _reduced(p: Presentation, removed: int | None
             ) -> tuple[Presentation, int, list[int], int]:
    """p Tietze-reduced around its removed column: the reduced presentation,
    the column's new index, the kept generators and the shift E."""
    p.require_deficiency_one()
    n = p.num_generators
    k = n - 1 if removed is None else removed
    if not 0 <= k < n:
        raise AlgebraError("removed column %d out of range" % k)
    q, kept, shift = simplify(p, k)
    return q, kept.index(k), kept, shift


@dataclass
class TwistedAlex:
    """A computed twisted Alexander value.

    value is always the raw quotient as a rational function.  When the
    quotient is (numerically) an exact division, polynomial holds the
    quotient normalized to lowest exponent 0, degree its exponent span,
    leading its top coefficient (invariant under the residual t^(2i)
    ambiguity), and monic whether the leading coefficient is 1, exactly
    or to _MONIC_TOL.  Nonpolynomial values leave those fields as None.
    """

    value: LaurentRational
    polynomial: LaurentPoly | None
    degree: int | None
    leading: object | None
    monic: bool | None

    def is_monic(self) -> bool:
        if self.leading is None:
            raise AlgebraError("nonpolynomial value has no leading coefficient")
        if isinstance(self.leading, Fraction):
            return self.leading == 1
        return abs(complex(self.leading) - 1.0) <= _MONIC_TOL

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.polynomial is not None:
            lead = complex(self.leading)
            out["polynomial"] = self.polynomial.to_json_dict()
            out["degree"] = self.degree
            out["leading"] = [lead.real, lead.imag]
            out["monic"] = bool(self.monic)
            out["genus_lower_bound"] = genus_lower_bound(self)
        else:
            out["polynomial"] = None
            out["value"] = self.value.to_json_dict()
        return out


def make_twisted(value: LaurentRational) -> TwistedAlex:
    """Classify a quotient and normalize its polynomial representative."""
    poly = value.attempt_polynomial(_POLY_TOL)
    if poly is None:
        return TwistedAlex(value, None, None, None, None)
    poly = poly.cleanup()
    if poly.is_zero():
        return TwistedAlex(value, poly, 0, poly[0], False)
    poly = poly.shift(-poly.min_exp())
    lead = poly.leading()
    ta = TwistedAlex(value, poly, poly.degree(), lead, None)
    ta.monic = ta.is_monic()
    return ta


def wada_invariant(p: Presentation, rho: Representation,
                   removed: int | None = None) -> TwistedAlex:
    """The twisted Alexander value det(Phi M_k) / det(Phi(gamma_k) - 1).

    The removed column defaults to the last generator.  The numerator is
    computed on the Tietze-reduced presentation, with rho restricted to
    its generators, and shifted by t^E back to the value on p; this holds
    when rho satisfies the relators.  The denominator
    det(t*rho(gamma_k) - I) = t^2 - trace*t + det is nonzero for any
    2x2 rho, but a denominator that vanishes identically (malformed rho)
    is rejected rather than divided by.
    """
    q, k, kept, shift = _reduced(p, removed)
    rho_q = Representation(q, [rho.matrices[i] for i in kept], rho.residual)
    num = det(fox_matrix_laurent(q, rho_q, k)).shift(shift).cleanup()

    g = rho_q.image(FreeWord([k + 1]))
    den = LaurentPoly({2: _mat_det(g), 1: -(g[0] + g[3]), 0: 1})
    if den.is_zero():
        raise AlgebraError("denominator det(Phi(gamma_k) - 1) vanishes")
    if num.is_zero():
        raise AlgebraError("numerator determinant vanishes; representation "
                           "does not define a twisted polynomial")
    return make_twisted(LaurentRational(num, den))


def alexander(p: Presentation, removed: int | None = None) -> LaurentPoly:
    """Classical Alexander polynomial from the rank-one specialization.

    Exact throughout.  The result is normalized to lowest exponent 0 with
    positive leading coefficient, and the knot-polynomial sign condition
    delta(1) = +-1 is enforced as a cross-check that the input presents a
    knot group with meridional abelianization.
    """
    q, k, _, _ = _reduced(p, removed)
    d = det(fox_matrix_laurent(q, None, k))
    if d.is_zero():
        raise AlgebraError("Fox determinant vanishes; input does not present "
                           "a knot group at deficiency one")
    d = d.unit_normal()
    at_one = d.evaluate(Fraction(1))
    if at_one not in (1, -1):
        raise CertificationError(
            "delta(1) = %s violates the knot condition delta(1) = +-1"
            % at_one)
    return d


def genus_lower_bound(ta: TwistedAlex) -> int:
    """Least g with 4g - 2 >= degree span, so 1 for span 0."""
    if ta.polynomial is None:
        raise AlgebraError("genus bound needs a polynomial value")
    d = ta.degree
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


def coefficient_profile(ta: TwistedAlex, g: int) -> list:
    """Coefficients psi_0..psi_(4g-2) of the representative centered in the
    window [0, 4g-2], zero-padded symmetrically.

    The palindromic symmetry psi_k = psi_(4g-2-k) is verified (exactly in
    the exact domain, to _SYM_TOL relative otherwise); violation means the
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
            ok = abs(complex(a) - complex(b)) <= _SYM_TOL * scale
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
