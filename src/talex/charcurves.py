"""Character curves of the (-3,-3,-3) pretzel knot.

The knot group of the pretzel knot P(-3,-3,-3) (9_35 in standard tables)
carries a 3-bridge structure with meridional generators a, b, c.  An
irreducible SL(2,C) character is determined by the six traces

    x = tr(a) = tr(b) = tr(c)   (all meridians are conjugate),
    y1 = tr(ab), y2 = tr(bc), y3 = tr(ca),

and for this knot the defining equations force y1 = y2 = y3 =: z with
tr(a) = tr(b) = tr(c) =: y on the components of interest.  The trace
field is generated by (y, z), and the irreducible character variety is
cut out by a single plane curve obtained by eliminating auxiliary
variables from a recursively defined family r_m(y1, y2, v):

    r_0 = 0,  r_1 = 1,  r_2 = v,
    r_m = -y1^{-1} y2 t_{m-1} r_{m-3}(y2, y1, v)
          + (1/2)(y2^2 - 2 + y1^{-1} y2 t_{m-1} (2v - y1 y2)) r_{m-2}(y1, y2, v)
          + (1/2)((y1 - 2 y1^{-1}) y2 t_{m-1} + 2v - y1 y2) r_{m-1}(y2, y1, v)

with sign pattern (t_1, ..., t_5) = (1, -1, 1, -1, 1).  The recursion
lives in the localization Z[y1^{-1}]; y1^5 r_6 is an honest polynomial.
In the coordinates

    y = y2,   b = y1^2 - 2,   w = y1 v

the slice b = -1 is y1^2 = 1.  There a monomial y1^a y2^beta v^gamma
equals y^beta w^gamma y1^(a - gamma), and y1^(a - gamma) = 1 because
every monomial of y1^5 r_6 has a - gamma even; so the slice is the ring
map y1 -> 1, y2 -> y, v -> w, taken straight into (y, z, w).  (The other
branch y1 = -1, w = -v gives the same polynomial, for the same reason.)
Together with the second defining equation w^2 - w y + z - 1 = 0 the
slice eliminates to a plane curve in (y, z) that factors as
(y^2 - z - 1)^2 times an irreducible quartic-cubic C'.  The two factors
C : y^2 - z - 1 and C' are the two curves of irreducible characters this
module exposes.

On either curve the leading coefficient of the twisted Alexander
polynomial is a single trace polynomial psi_2(x) = x^3 + 6x^2 + 6x + 5
in x = y^2 - z, certified here by sampling representations on the curve
and comparing against the determinant it abbreviates: det(A), with A
the t^1 sums of the Fox scan.  Every Fox entry of this presentation is
linear in t, so det(A) is the t^4 coefficient of the twisted numerator,
read without forming the determinant over Laurent polynomials.  The
samples are built in closed form from curve_constraints by
representations.representation_from_traces, not solved for.  Monicness
of the twisted polynomial at a character is then the root count census
of psi_2(x) = c intersected with the curve.  Two of its steps are exact
for a rational c: the test that the condition holds identically on the
curve (an exact division), and the roots x0 of psi_2(x) - c, split by
the square-free decomposition so that their multiplicities are exact.
The slices x = x0 of the curve and their roots y0 are floating, as are
the x0 themselves; every root carries complex_roots' residual
certificate.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (AlgebraError, CertificationError, RootFindingError,
                     SolveError)
from .fixtures import fixture_path
from .laurent import LaurentPoly, _pow_any
from .multipoly import MultiPoly, exact_divide, resultant
from .presentations import Presentation, parse_presentation
from .representations import (Representation, _worse,
                              representation_from_traces)
from .roots import _CLUSTER_RADIUS, complex_roots
from .twisted import _fox_scan, wada_invariant
from .words import FreeWord

RV_VARS = ("y1", "y2", "v")
YZ_VARS = ("y", "z")
YZW_VARS = ("y", "z", "w")

# Sign pattern t_1 .. t_5 entering the trace recursion.
T_SIGNS = (1, -1, 1, -1, 1)

#: Trace-identity table on the curves: word -> polynomial in x = y^2 - z.
#: Each entry is (word over the presentation's generators, coefficients of
#: the trace as a polynomial in x, ascending).
TRACE_TABLE = (
    ("aB", (0, 1)),             # tr = x
    ("aBaB", (-2, 0, 1)),       # tr = x^2 - 2
    ("aBaC", (0, -1, 1)),       # tr = x^2 - x
    ("aBcAbC", (-2, 0, 3, -1)),  # tr = -x^3 + 3x^2 - 2
)


@lru_cache(maxsize=None)
def pretzel935_presentation() -> Presentation:
    """The standard two-relator, three-meridian presentation (the packaged
    fixture 9_35.pres), parsed once.  Every call returns the same
    Presentation, which is never mutated, so the representations built on
    it share one Tietze reduction (Presentation._reductions)."""
    with open(fixture_path("9_35.pres"), encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _mono(var: str) -> MultiPoly:
    return MultiPoly.var(RV_VARS, var)


def _const(c) -> MultiPoly:
    return MultiPoly.constant(RV_VARS, c)


@lru_cache(maxsize=None)
def hlm_r(m: int) -> MultiPoly:
    """The m-th trace recursion polynomial in Z[y1, y1^{-1}, y2, v].

    r_6 is an honest polynomial (no negative powers survive) and factors
    into the product of a degree-2 and a degree-3 factor in v.
    """
    if m < 0:
        raise AlgebraError("recursion index must be nonnegative")
    if m == 0:
        return MultiPoly.zero(RV_VARS)
    if m == 1:
        return _const(1)
    if m == 2:
        return _mono("v")
    if m > len(T_SIGNS) + 1:
        raise AlgebraError("sign pattern defined only up to index %d"
                           % (len(T_SIGNS) + 1))
    t = _const(T_SIGNS[m - 2])
    y1 = _mono("y1")
    y1_inv = MultiPoly(RV_VARS, {(-1, 0, 0): Fraction(1)})
    y2 = _mono("y2")
    v = _mono("v")
    half = Fraction(1, 2)
    swap_prev = hlm_r(m - 1).swap_vars("y1", "y2")
    swap_back3 = hlm_r(m - 3).swap_vars("y1", "y2")
    term3 = -(y1_inv * y2 * t) * swap_back3
    term2 = ((y2 * y2 - _const(2)) + y1_inv * y2 * t * (_const(2) * v - y1 * y2)
             ).scale(half) * hlm_r(m - 2)
    term1 = ((y1 - _const(2) * y1_inv) * y2 * t + _const(2) * v - y1 * y2
             ).scale(half) * swap_prev
    return term3 + term2 + term1


def hlm_r6_cleared() -> MultiPoly:
    """y1^5 * r_6, the polynomial whose vanishing cuts the curve."""
    y1_5 = MultiPoly(RV_VARS, {(5, 0, 0): Fraction(1)})
    p = y1_5 * hlm_r(6)
    if p.has_negative_exponents():
        raise AlgebraError("y1^5 r_6 still has negative exponents")
    return p


def r6_factors() -> tuple[MultiPoly, MultiPoly]:
    """The two factors of r_6: (quadratic in v, cubic in v).

    quadratic = v^2 - v y1 y2 + y1^2 + y2^2 - 3
    cubic     = v^3 - v^2 y1 y2 + v (y1^2 + y2^2 - 1) - y1 y2
    """
    y1 = _mono("y1")
    y2 = _mono("y2")
    v = _mono("v")
    quad = v * v - v * y1 * y2 + y1 * y1 + y2 * y2 - _const(3)
    cubic = (v ** 3 - v * v * y1 * y2 + v * (y1 * y1 + y2 * y2 - _const(1))
             - y1 * y2)
    return quad, cubic


def slice_b_minus_one() -> MultiPoly:
    """y1^5 r_6 on the slice b = y1^2 - 2 = -1, over (y, z, w)."""
    return hlm_r6_cleared().compose(
        {"y1": 1, "y2": MultiPoly.var(YZW_VARS, "y"),
         "v": MultiPoly.var(YZW_VARS, "w")}, MultiPoly.zero(YZW_VARS))


def second_equation() -> MultiPoly:
    """The companion defining equation w^2 - w y + z - 1 in (y, z, w)."""
    w = MultiPoly.var(YZW_VARS, "w")
    yy = MultiPoly.var(YZW_VARS, "y")
    zz = MultiPoly.var(YZW_VARS, "z")
    return w * w - w * yy + zz - MultiPoly.constant(YZW_VARS, 1)


def eliminate_w(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Resultant in w of two polynomials over (y, z, w), returned over (y, z)."""
    if tuple(p.vars) != YZW_VARS or tuple(q.vars) != YZW_VARS:
        raise AlgebraError("eliminate_w needs polynomials over %s"
                           % (YZW_VARS,))
    res = resultant(p, q, "w")
    if res.degree_in("w") > 0:
        raise AlgebraError("resultant still involves w")
    return MultiPoly(YZ_VARS, {ex[:2]: c for ex, c in res.terms.items()})


@dataclasses.dataclass(frozen=True)
class PlaneCurve:
    """A content-normalized plane curve in the trace coordinates (y, z)."""

    poly: MultiPoly
    name: str = ""
    # poly.to_complex(), built once for the float slices
    poly_c: MultiPoly = dataclasses.field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if tuple(self.poly.vars) != YZ_VARS:
            raise AlgebraError("plane curve must live in variables %s"
                               % (YZ_VARS,))
        object.__setattr__(self, "poly", self.poly.primitive_normalized())
        object.__setattr__(self, "poly_c", self.poly.to_complex())

    def evaluate(self, y, z):
        return self.poly.evaluate({"y": y, "z": z})

    def z_values(self, y0: complex) -> list[complex]:
        """The roots z of the univariate polynomial z -> curve(y0, z).

        The slice sums complex(c) * y0^i over the terms c y^i z^j of each
        z^j, in term order from 0, on the complex image poly_c, which is
        what poly.compose({"y": y0, "z": t}, LaurentPoly.zero()) computes,
        bit for bit (a test holds the two together).
        """
        y0 = complex(y0)
        powers: dict[int, complex] = {}
        grouped: dict[int, complex] = {}
        for (i, j), c in self.poly_c.terms.items():
            if i not in powers:
                powers[i] = _pow_any(y0, i)
            grouped[j] = grouped.get(j, 0) + c * powers[i]
        slice_ = LaurentPoly(grouped).cleanup()
        if slice_.is_zero():
            raise AlgebraError("curve is identically zero along y = %r" % y0)
        if slice_.degree() == 0:
            return []
        return [r for r, _ in complex_roots(slice_)]

    def to_text(self) -> str:
        return self.poly.to_text()


def resultant_curve() -> MultiPoly:
    """Res_w of (y1^5 r_6)|_{b=-1} with w^2 - wy + z - 1, over (y, z)."""
    return eliminate_w(slice_b_minus_one(), second_equation())


@lru_cache(maxsize=None)
def curve_components() -> tuple[PlaneCurve, PlaneCurve]:
    """The two irreducible-character curves (C, C'), computed once; the
    curves are frozen and never mutated, so every call shares them.

    The eliminated polynomial factors exactly as (y^2 - z - 1)^2 times a
    primitive quartic-cubic; failure of that exact division certifies a
    pipeline defect, so it raises rather than returning junk.
    """
    total = resultant_curve()
    y = MultiPoly.var(YZ_VARS, "y")
    z = MultiPoly.var(YZ_VARS, "z")
    c_poly = y * y - z - MultiPoly.constant(YZ_VARS, 1)
    rest = exact_divide(total, c_poly * c_poly)
    if rest is None:
        raise CertificationError(
            "eliminated curve is not divisible by (y^2 - z - 1)^2")
    return (PlaneCurve(c_poly, name="C"),
            PlaneCurve(rest, name="Cprime"))


@lru_cache(maxsize=None)
def psi2_polynomial() -> MultiPoly:
    """Leading-coefficient trace polynomial psi_2(x) = x^3 + 6x^2 + 6x + 5,
    built once; like the curves it is never mutated, so calls share it."""
    x = MultiPoly.var(("x",), "x")
    one = MultiPoly.constant(("x",), 1)
    return x ** 3 + x * x * 6 + x * 6 + one * 5


@lru_cache(maxsize=None)
def _psi2_of_trace() -> MultiPoly:
    """psi_2(y^2 - z) over (y, z), built once, for census's exact test."""
    y = MultiPoly.var(YZ_VARS, "y")
    z = MultiPoly.var(YZ_VARS, "z")
    return psi2_polynomial().compose({"x": y * y - z}, MultiPoly.zero(YZ_VARS))


@dataclasses.dataclass
class CensusResult:
    """Outcome of counting curve characters with a given leading value.

    count is None exactly when the condition holds identically on the
    curve (infinitely many characters); degenerate_roots lists values x0
    of x whose locus misses the curve entirely.
    """

    curve: str
    c: complex | Fraction
    count: int | None
    witnesses: list[tuple[complex, complex]]
    degenerate_roots: list[complex]

    @property
    def identically_satisfied(self) -> bool:
        return self.count is None

    def to_json_dict(self) -> dict:
        def _c2(zv):
            return [float(complex(zv).real), float(complex(zv).imag)]
        return {
            "curve": self.curve,
            "c": _c2(self.c),
            "identically_satisfied": self.identically_satisfied,
            "count": self.count,
            "witnesses": [[_c2(a), _c2(b)] for a, b in self.witnesses],
            "degenerate_roots": [_c2(r) for r in self.degenerate_roots],
        }


def census(curve: PlaneCurve, c) -> CensusResult:
    """Count characters on the curve where psi_2(y^2 - z) equals c.

    Exact rational c first gets an exact divisibility test: when the
    curve polynomial divides psi_2(y^2 - z) - c the condition holds
    identically and the census is infinite (count None).  Otherwise the
    values x0 with psi_2(x0) = c are found (exactly when c is rational),
    each slice x = y^2 - z = x0 is intersected with the curve, and the
    distinct intersection points are the witnesses.  Roots at 0 count, both
    x0 = 0 and y0 = 0; a slice is degenerate only when it is a nonzero
    constant, so y^2 is the root y0 = 0 twice, not a miss.

    The slices run all-complex: the curve's complex image poly_c under
    y -> t and z -> t^2 - x0 with coefficients 1+0j, so no Fraction meets
    a complex.  They equal bit for bit the exact curve under the mixed
    images (curve.poly.compose with the exact t), because the exact
    intermediates of that composition are integers: a curve coefficient
    times a binomial coefficient of (t^2 - x0)^j (only the leading 1 stays
    exact for a complex x0 != 0), and sums of such products.  On 1+0j
    coefficients every such product (a binomial is positive) and sum is
    exact, with imaginary part +0.0 as in complex(Fraction), while it
    stays below 2^53.  A primitive PlaneCurve has integer coefficients,
    so the rule holds while coefficient * binomial < 2^53.
    """
    if isinstance(c, complex) and c.imag == 0:
        c = c.real
    if isinstance(c, float) and c.is_integer():
        c = int(c)
    psi = psi2_polynomial()
    t = LaurentPoly.t()
    if isinstance(c, (int, Fraction)):
        c_val = Fraction(c)
        if exact_divide(_psi2_of_trace() - c_val, curve.poly) is not None:
            return CensusResult(curve.name, c_val, None, [], [])
    else:
        c_val = complex(c)
    x_roots = _roots_with_zero(psi.compose({"x": t}, LaurentPoly.zero())
                               - c_val)
    witnesses: list[tuple[complex, complex]] = []
    degenerate: list[complex] = []
    for x0, _ in x_roots:
        slice_poly = _x_slice(curve, x0).cleanup()
        if slice_poly.is_zero():
            # The whole slice lies on the curve: infinitely many points.
            return CensusResult(curve.name, c, None, [], [])
        if slice_poly.max_exp() == 0:
            degenerate.append(x0)
            continue
        for y0, _ in _roots_with_zero(slice_poly):
            witnesses.append((complex(y0), complex(y0) ** 2 - complex(x0)))
    witnesses = _dedupe_pairs(witnesses)
    return CensusResult(curve.name, c, len(witnesses), witnesses, degenerate)


# t with coefficient 1+0j, census's image of y
_T_COMPLEX = LaurentPoly({1: 1 + 0j})


def _x_slice(curve: PlaneCurve, x0: complex) -> LaurentPoly:
    """The curve on the slice x = x0, where z = y^2 - x0 turns it into a
    univariate polynomial in y: poly_c under y -> t, z -> t^2 - x0, all
    complex (census docstring)."""
    t = _T_COMPLEX
    return curve.poly_c.compose({"y": t, "z": t * t - x0}, LaurentPoly.zero())


def _roots_with_zero(p: LaurentPoly) -> list[tuple[complex, int]]:
    """The roots of a polynomial p: complex_roots, which takes t as a unit,
    and the root 0 counted min_exp() times."""
    return [(0j, p.min_exp())] * (p.min_exp() > 0) + complex_roots(p)


def _dedupe_pairs(pairs: list[tuple[complex, complex]]
                  ) -> list[tuple[complex, complex]]:
    out: list[tuple[complex, complex]] = []
    for y0, z0 in sorted(pairs, key=lambda p: (p[0].real, p[0].imag,
                                               p[1].real, p[1].imag)):
        if all(abs(y0 - a) + abs(z0 - b) > _CLUSTER_RADIUS for a, b in out):
            out.append((y0, z0))
    return out


# ---------------------------------------------------------------------------
# Representation sampling on the curves and certification of psi_2.
# ---------------------------------------------------------------------------

def curve_constraints(y0: complex, z0: complex) -> dict[str, complex]:
    """Trace targets pinning a character with tr(a)=y0 and tr(ab)=z0."""
    y0, z0 = complex(y0), complex(z0)
    return {"a": y0, "b": y0, "c": y0, "ab": z0, "bc": z0, "ca": z0}


def solve_on_curve(y0: complex, z0: complex) -> Representation:
    """The irreducible representation with the curve character (y0, z0),
    built in closed form: on C' one root of det C = 1 is a representation,
    on C (a double factor of the eliminant) both are and the first is
    kept.  SolveError says why a point has none."""
    return representation_from_traces(pretzel935_presentation(),
                                      curve_constraints(y0, z0))


def leading_determinant_sample(rho: Representation) -> complex:
    """Coefficient of t^4 in the twisted numerator determinant.

    For the three-meridian presentation every Fox-matrix entry is linear
    in t, so the numerator determinant of the 4x4 block matrix has the
    form det(A t + B); its t^4 coefficient is det(A), the quantity the
    closed form psi_2 abbreviates.  A is read from the t^1 sums of the
    Fox scan (twisted._fox_scan), and det(A) is one LU factorization; an
    entry with a nonzero sum at any other exponent than 0 or 1 is an
    AlgebraError.
    """
    pres = rho.presentation
    a = []
    for row, top in _fox_scan(pres, rho, pres.num_generators - 1):
        for d in row:
            if any(s != 0 and e not in (0, 1) for e, s in d.items()):
                raise AlgebraError("Fox matrix entry is not linear in t")
        a.append([d.get(1, 0) / top for d in row])
    return complex(np.linalg.det(np.array(a, dtype=complex)))


# The trace table as (word over the meridians a, b, c, complex image of
# the polynomial in x), parsed and built once.
_TRACE_POLYS = tuple((FreeWord.from_string(w, ["a", "b", "c"]),
                      LaurentPoly.from_coefficients(coeffs).to_complex())
                     for w, coeffs in TRACE_TABLE)


def trace_table_residual(rho: Representation, x_value: complex) -> float:
    """Largest deviation of the sampled traces from the table in x (inf if
    one is NaN)."""
    worst = 0.0
    x_value = complex(x_value)
    for w, poly in _TRACE_POLYS:
        worst = _worse(worst, abs(complex(rho.trace(w))
                                  - poly.evaluate(x_value)))
    return worst


@dataclasses.dataclass
class Psi2Certificate:
    """Sampled evidence that psi_2 matches the numerator's t^4 coefficient."""

    samples: int
    max_det_error: float
    max_trace_error: float
    tol: float

    @property
    def ok(self) -> bool:
        return (self.max_det_error <= self.tol
                and self.max_trace_error <= self.tol)

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_det_error": self.max_det_error,
            "max_trace_error": self.max_trace_error,
            "tol": self.tol,
            "ok": self.ok,
        }


# certify_psi2 compares psi_2 and the trace table at this many samples,
# to this absolute tolerance.
_PSI2_SAMPLES = 20
_PSI2_TOL = 1e-6


def _curve_sample_points(curve: PlaneCurve, rng: np.random.Generator,
                         budget: int) -> Iterator[tuple[complex, complex]]:
    """Points (y0, z0) on the curve, slicing it at y0 only on demand.

    All budget values of y0 are drawn up front, so the generator's state
    afterwards does not depend on how many points the caller takes.
    """
    # one call draws the same stream as 2 * budget scalar calls
    normals = rng.standard_normal(2 * budget).tolist()
    ys = [complex(2.2 + 0.8 * re, 0.8 * im)
          for re, im in zip(normals[::2], normals[1::2])]
    for y0 in ys:
        try:
            zs = curve.z_values(y0)
        except (AlgebraError, RootFindingError):
            continue
        for z0 in zs:
            yield y0, z0


def certify_psi2(curves: tuple[PlaneCurve, PlaneCurve],
                 seed: int = 0) -> Psi2Certificate:
    """Sample _PSI2_SAMPLES characters, half on each curve (C, C'), and
    compare psi_2 to det(A).

    Raises CertificationError if either comparison exceeds _PSI2_TOL at
    any sample, or if no representation on a curve can be solved.
    """
    rng = np.random.default_rng(seed)
    psi = psi2_polynomial().to_complex()
    collected = 0
    max_det = 0.0
    max_tr = 0.0
    per_curve = _PSI2_SAMPLES // 2
    for curve in curves:
        got = 0
        for y0, z0 in _curve_sample_points(curve, rng, budget=8 * per_curve):
            if got >= per_curve:
                break
            try:
                rho = solve_on_curve(y0, z0)
            except SolveError:
                continue
            x_val = complex(y0) ** 2 - complex(z0)
            predicted = complex(psi.evaluate({"x": x_val}))
            sampled = leading_determinant_sample(rho)
            max_det = _worse(max_det, abs(sampled - predicted))
            max_tr = _worse(max_tr, trace_table_residual(rho, x_val))
            got += 1
            collected += 1
        if got == 0:
            raise CertificationError(
                "could not solve any representation on curve %s" % curve.name)
    cert = Psi2Certificate(samples=collected, max_det_error=max_det,
                           max_trace_error=max_tr, tol=_PSI2_TOL)
    if not cert.ok:
        raise CertificationError(
            "sampled certification failed: det error %.3g, trace error %.3g "
            "exceed tol %.3g" % (max_det, max_tr, _PSI2_TOL))
    return cert


# monic_witness_report refuses a witness whose relators miss by more.
_WITNESS_RESIDUAL_TOL = 1e-8


def monic_witness_report(monic: CensusResult) -> list[dict]:
    """Close the loop on a monic census (C' at 1): every witness of it is
    built into a representation and its twisted leading coefficient is
    reported; construction failure or a residual above
    _WITNESS_RESIDUAL_TOL is an error (the census and the invariant engine
    must agree)."""
    out = []
    for y0, z0 in monic.witnesses:
        try:
            rho = solve_on_curve(y0, z0)
        except SolveError as exc:
            raise CertificationError(
                "monic witness (%r, %r) did not solve: %s" % (y0, z0, exc)
            ) from exc
        if rho.residual > _WITNESS_RESIDUAL_TOL:
            raise CertificationError(
                "monic witness residual %.3g exceeds %.3g"
                % (rho.residual, _WITNESS_RESIDUAL_TOL))
        ta = wada_invariant(rho.presentation, rho)
        out.append({
            "y": [y0.real, y0.imag],
            "z": [z0.real, z0.imag],
            "residual": rho.residual,
            "leading": [complex(ta.leading).real, complex(ta.leading).imag],
            "monic": bool(ta.monic),
        })
    return out
