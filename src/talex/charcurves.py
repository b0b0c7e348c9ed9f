"""Character curves of the (-3,-3,-3) pretzel knot.

The knot group of the pretzel knot P(-3,-3,-3) (9_35 in standard tables)
carries a 3-bridge structure with meridional generators a, b, c.  On the
components of interest an irreducible SL(2,C) character is determined by
the two traces

    y = tr(a) = tr(b) = tr(c)   (all meridians are conjugate),
    z = tr(ab) = tr(bc) = tr(ca),

and the irreducible characters there lie on two plane curves in (y, z):

    C  : y^2 - z - 1,
    C' : y^4 z - 2y^4 - 2y^2 z^2 + 5y^2 z - 2y^2 + z^3 - 3z^2 + 3z - 1.

curve_components carries them as term tables, the data of the paper's
9_35 example; no elimination runs in the package.  The tests prove them.
tests/test_charcurves.py::TestCurvesFromThePresentation derives them from
the knot group: with a = (m, 1; 0, 1/m), b = (m, 0; u, 1/m) and c fixed
by its traces up to one entry s, the resultant in s of every entry of
every relator of 9_35.pres with det(c) - 1 is divisible by C, by C' and
by the reducible locus z = 2, and the cofactors meet nowhere else.  The
paper's own derivation, the HLM trace-polynomial recursion eliminated on
the slice b = -1 (tests/hlm_recursion.py), gives (C^2)(C') up to a
scalar, which acceptance criteria 02 and 03 check.

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
certificate.  A slice is expanded densely on the curve's complex image,
and it equals bit for bit the exact curve composed with the mixed images
y -> t, z -> t^2 - x0 (census states the rule;
TestCensus::test_slices_are_the_mixed_slices_bit_for_bit holds it), as a
y-slice of PlaneCurve.z_values equals its composition.
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
from .multipoly import MultiPoly, exact_divide
from .presentations import Presentation, parse_presentation
from .representations import (Representation, _worse,
                              representation_from_traces)
from .roots import _CLUSTER_RADIUS, complex_roots
from .twisted import _block_rows, _fox_scan, wada_invariant
from .words import FreeWord

YZ_VARS = ("y", "z")

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


@lru_cache(maxsize=None)
def curve_components() -> tuple[PlaneCurve, PlaneCurve]:
    """The two irreducible-character curves (C, C'), built once from their
    term tables; the curves are frozen and never mutated, so every call
    shares them.  The terms are listed lex-descending, the order in which
    the float slices of PlaneCurve.z_values sum them.
    """
    c_poly = MultiPoly(YZ_VARS, {(2, 0): 1, (0, 1): -1, (0, 0): -1})
    cprime_poly = MultiPoly(YZ_VARS, {
        (4, 1): 1, (4, 0): -2, (2, 2): -2, (2, 1): 5, (2, 0): -2,
        (0, 3): 1, (0, 2): -3, (0, 1): 3, (0, 0): -1})
    return (PlaneCurve(c_poly, name="C"),
            PlaneCurve(cprime_poly, name="Cprime"))


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


@lru_cache(maxsize=None)
def _psi2_univariate() -> LaurentPoly:
    """psi_2 as a LaurentPoly in t = x, built once, with its terms in
    psi2_polynomial()'s order (x^3 first): census subtracts c from it, and
    certify_psi2 evaluates its complex image."""
    return psi2_polynomial().compose({"x": LaurentPoly.t()},
                                     LaurentPoly.zero())


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

    The slices run all-complex: _x_slice expands the curve's complex image
    poly_c under y -> t and z -> t^2 - x0 with coefficients 1+0j, so no
    Fraction meets a complex, densely into one coefficient dict with the
    operations of poly_c.compose (its docstring).  They equal bit for bit
    the exact curve under the mixed images (curve.poly.compose with the
    exact t), because the exact intermediates of that composition are
    integers: a curve coefficient times a binomial coefficient of
    (t^2 - x0)^j (only the leading 1 stays exact for a complex x0 != 0),
    and sums of such products.  On 1+0j coefficients every such product
    (a binomial is positive) and sum is exact, with imaginary part +0.0 as
    in complex(Fraction), while it stays below 2^53.  A primitive
    PlaneCurve has integer coefficients, so the rule holds while
    coefficient * binomial < 2^53;
    TestCensus::test_slices_are_the_mixed_slices_bit_for_bit holds it.
    """
    if isinstance(c, complex) and c.imag == 0:
        c = c.real
    if isinstance(c, float) and c.is_integer():
        c = int(c)
    if isinstance(c, (int, Fraction)):
        c_val = Fraction(c)
        if exact_divide(_psi2_of_trace() - c_val, curve.poly) is not None:
            return CensusResult(curve.name, c_val, None, [], [])
    else:
        c_val = complex(c)
    x_roots = _roots_with_zero(_psi2_univariate() - c_val)
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


# t^2 with coefficient 1+0j: census's image t of y, squared
_T2_COMPLEX = LaurentPoly({2: 1 + 0j})


def _x_slice(curve: PlaneCurve, x0: complex) -> LaurentPoly:
    """The curve on the slice x = x0, where z = y^2 - x0 turns it into a
    univariate polynomial in y: poly_c under y -> t, z -> t^2 - x0, all
    complex (census docstring).

    The expansion is dense: each term c y^i z^j adds c t^i (t^2 - x0)^j
    into one coefficient dict, with each power (t^2 - x0)^j formed once per
    slice.  It makes the products, sums and zero-drops of
    poly_c.compose({"y": t, "z": t * t - x0}, LaurentPoly.zero()) in the
    same order, so its coefficients and their order are that composition's
    bit for bit.  There c t^i is c itself at t^i (compose forms
    0 + (1+0j) * (0 + c), which is c for the nonzero complex(Fraction)
    values of poly_c, imaginary part +0.0); each coefficient p of
    (t^2 - x0)^j, the exact one at j = 0 as 1+0j, gives 0 + c * p, dropped
    when zero; and the running sum drops a coefficient that cancels to
    zero.  TestCensus::test_slices_are_the_mixed_slices_bit_for_bit holds
    it to the mixed composition.
    """
    base = _T2_COMPLEX - x0
    z_powers: dict[int, dict[int, complex]] = {}
    acc: dict[int, complex] = {}
    for (i, j), c in curve.poly_c.terms.items():
        if j not in z_powers:
            z_powers[j] = (base ** j).to_complex().coeffs
        for k, p in z_powers[j].items():
            v = 0 + c * p
            if v:
                e = i + k
                s = acc.get(e, 0) + v
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return LaurentPoly._clean(acc, False)


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
    closed form psi_2 abbreviates.  A is read from the exponent-1 blocks
    of the Fox scan (twisted._fox_scan, twisted._block_rows), and det(A)
    is one LU factorization; a block with a nonzero sum at any other
    exponent than 0 or 1 is an AlgebraError.
    """
    pres = rho.presentation
    a = []
    for blocks, top in _fox_scan(pres, rho, pres.num_generators - 1):
        for d in blocks:
            if not d.keys() <= {0, 1} and any(
                    any(b) and e not in (0, 1) for e, b in d.items()):
                raise AlgebraError("Fox matrix entry is not linear in t")
        a += ([s / top for s in row] for row in _block_rows(blocks, 1))
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
    psi = _psi2_univariate().to_complex()
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
            predicted = complex(psi.evaluate(x_val))
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
