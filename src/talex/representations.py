"""SL(2,C) representations of knot group presentations.

A Representation stores one 2x2 matrix per generator as the flat 4-tuple
(m00, m01, m10, m11), row by row (the _sl2 format, also that of the
representation JSON), either with exact rational entries (diagonal
abelian representations) or complex floating entries (solved irreducible
representations).  Inverses use the adjugate, the true inverse when
det = 1; a valid representation has every generator determinant within
tolerance of 1 and every relator image within tolerance of the identity.

solve_representation is a damped Gauss-Newton iteration in the gauge
x = (a, q, b', d), A = [[a, q], [0, 1/a]], B = [[b', 0], [d, 1/b']], with
four free entries and a soft det-1 row for each further generator and
trace targets as rows of weight 1.  Any irreducible pair of images can be
conjugated into it.  The Jacobian is exact: a word's derivative is the
sum over its letters of prefix * (derivative of the letter) * suffix, the
matrix form of the Fox prefix scan.  Two fixed rules end a restart early.
At the rounding floor (residual norm <= 1e-12) a Newton step that does not
halve the norm means rounding limits the residual, so the restart stops.
A restart whose norm has not fallen below 0.95 times its value 10
iterations earlier sits at a least-squares minimum that is no solution
and is abandoned, and so is one whose residual or Jacobian is not
finite.  The residual test then judges the restart's last point.

When the constrained words pin every generator no search is needed
(closed_form_representation).  The one- and two-letter traces fix an
irreducible pair up to conjugacy (Riley), and a triple up to the two
values of tr(abc), the roots of a quadratic in them (Fricke).  A and B
are built in the gauge from a + 1/a = tr a and b + 1/b = tr b with
|a|, |b| >= 1 and qd = tr ab - ab' - 1/(ab'); a third image C solves the
trace rows linear in it (_trace_rows) with det C = 1, a quadratic whose
roots are the two values of tr(abc), in plain complex arithmetic
(_sl2._det_one_on_trace_rows), and the solver's equations decide each
candidate.  No one gauge serves both cases.  Misses of 1e-10 at 400
on-curve trefoil points (|Re y| <= 40, |Im y| <= 20) and 1,200 points of
9_35's curve C' (y in [-5, 5] x [-3, 3]i; C itself, 400 points, has
none):

    x                 trefoil   C'
    (a, s, 1/b, s)       0      269    two generators
    (a, 1, b, d)       302       12    three generators
    (a, 1, 1/b, d)       0      308
    (a, s, b, s)       158       32

Equal couplings keep the relator products balanced at large |tr a|; a
pair with 1/b on top makes the rows linear in C nearly dependent near
tr ab = 2.  representation_from_traces is the one place that picks
between the closed form and the solver.

Both solvers judge a point by the images they return, at numpy's 1/a
and 1/b (_at_gauge_point); Newton's iterates run on _sl2._residual, whose
Python 1/a can differ in the last bit, and never accept a restart.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from numbers import Number, Rational

import numpy as np

from .errors import AlgebraError, ParseError, SolveError
from .laurent import LaurentPoly, LaurentRational
from ._sl2 import (_COMPLEX_ID, _EXACT_ID, Matrix2, _Equations,
                   _det_one_on_trace_rows, _gauge_images, _jacobian,
                   _letter_images, _mat_adjugate, _mat_det, _mat_mul,
                   _residual, _rows, _word_product)
from .presentations import Presentation
from .words import FreeWord

# Images whose commutator trace is within _REDUCIBLE_TOL of 2 share an
# eigenvector (Representation.is_reducible).
_REDUCIBLE_TOL = 1e-6
# The relative bound on |delta(lam^2)| of burde_derham_check.
_BURDE_DE_RHAM_TOL = 1e-8


class Representation:
    """Images of the generators of a presentation in SL(2,C), each the
    flat 4-tuple (m00, m01, m10, m11).  The constructor takes any
    4-sequences of numbers, exact when every entry is a numbers.Rational,
    and refuses other shapes."""

    def __init__(self, presentation: Presentation, matrices, residual: float = 0.0):
        if len(matrices) != presentation.num_generators:
            raise AlgebraError("need one matrix per generator")
        mats = [tuple(m) if np.iterable(m) else () for m in matrices]
        # The numbers ABCs decide by type: check one entry of each.
        kinds = {type(e): e for m in mats for e in m}.values()
        if any(len(m) != 4 for m in mats) or not all(
                isinstance(e, Number) for e in kinds):
            raise AlgebraError("a generator image must be four numbers "
                               "(m00, m01, m10, m11)")
        self.presentation = presentation
        self.matrices: list[Matrix2] = mats
        self.residual = float(residual)
        self._exact = all(isinstance(e, Rational) for e in kinds)

    def is_exact(self) -> bool:
        return self._exact

    @cached_property
    def _letters(self) -> list:
        return _letter_images(self.matrices)

    def image(self, w: FreeWord) -> Matrix2:
        """The product of w's letter images, folded from the identity.  A
        letter beyond the generators is an AlgebraError."""
        if max(map(abs, w.tietze), default=0) > len(self.matrices):
            raise AlgebraError("word letter beyond the %d generators"
                               % len(self.matrices))
        return _word_product(self._letters, w.tietze,
                             _EXACT_ID if self._exact else _COMPLEX_ID)

    def trace(self, w: FreeWord):
        m = self.image(w)
        return m[0] + m[3]

    def relator_residual(self) -> float:
        """Largest entry of image(r) - I over the relators r (inf if one is
        NaN)."""
        worst = 0.0
        for r in self.presentation.relators:
            for e, target in zip(self.image(r), _COMPLEX_ID):
                worst = _worse(worst, abs(complex(e) - target))
        return worst

    def is_reducible(self) -> bool:
        """Whether the images share an eigenvector: for two, tr[A, B] = 2
        within _REDUCIBLE_TOL.  Three or more can share one pairwise and
        none in all, so they go to _share_an_eigenvector with the bound
        sqrt(_REDUCIBLE_TOL), since tr[A, B] - 2 is a product of two such
        sines."""
        if len(self.matrices) != 2:
            return _share_an_eigenvector(self.matrices,
                                         math.sqrt(_REDUCIBLE_TOL))
        return _pair_is_reducible(*self.matrices)

    def conjugate(self, g: Matrix2) -> "Representation":
        ginv = _mat_adjugate(g)
        dg = _mat_det(g)
        mats = [[e / dg for e in _mat_mul(_mat_mul(g, m), ginv)]
                for m in self.matrices]
        return Representation(self.presentation, mats, self.residual)

    def to_json_dict(self) -> dict:
        gens = [[[z.real, z.imag] for z in map(complex, m)]
                for m in self.matrices]
        return {"generators": gens, "residual": self.residual}

    @classmethod
    def from_json_dict(cls, data: dict, presentation: Presentation) -> "Representation":
        try:
            gens = data["generators"]
            mats = []
            for flat in gens:
                pairs = [(re, im) for re, im in flat]
                if any(isinstance(v, bool) for pair in pairs for v in pair):
                    raise ParseError("bad representation JSON: boolean entry")
                e = [complex(float(re), float(im)) for re, im in pairs]
                if len(e) != 4 or not all(map(cmath.isfinite, e)):
                    raise ParseError("bad representation JSON: a generator "
                                     "needs four finite entries")
                mats.append(e)
            residual = data.get("residual", 0.0)
            if isinstance(residual, bool) or not math.isfinite(float(residual)):
                raise ParseError("bad representation JSON: the residual "
                                 "must be a finite number")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad representation JSON: %s" % exc) from None
        if len(mats) != presentation.num_generators:
            raise ParseError("bad representation JSON: wrong generator count")
        return cls(presentation, mats, residual)


def _worse(worst: float, err: float) -> float:
    """max(worst, err), with a NaN err, which max() would drop, as inf: an
    error above every tolerance."""
    return max(worst, err) if err == err else math.inf


def _pair_is_reducible(a: Matrix2, b: Matrix2) -> bool:
    """Whether tr[A, B] is within _REDUCIBLE_TOL of 2 for A, B in SL(2, C)."""
    comm = _mat_mul(_mat_mul(a, b),
                    _mat_mul(_mat_adjugate(a), _mat_adjugate(b)))
    return abs(complex(comm[0] + comm[3]) - 2.0) <= _REDUCIBLE_TOL


def _share_an_eigenvector(mats: list[Matrix2], bound: float) -> bool:
    """Whether an eigenvector v of the matrix farthest from scalar (largest
    |m01| + |m10| + |m00 - m11|) has |v x Mv| <= bound |v| |Mv|, the sine
    of the angle from v to Mv, for every matrix M."""
    flat = [list(map(complex, m)) for m in mats]
    spread = [abs(q) + abs(r) + abs(p - w) for p, q, r, w in flat]
    if not any(spread):
        return True     # scalars: every vector is an eigenvector
    p, q, r, w = flat[spread.index(max(spread))]
    disc = cmath.sqrt((p - w) ** 2 + 4 * q * r)
    for lam in ((p + w + disc) / 2, (p + w - disc) / 2):
        v0, v1 = max((q, lam - p), (lam - w, r),
                     key=lambda u: abs(u[0]) + abs(u[1]))
        scale = bound * math.hypot(abs(v0), abs(v1))
        if all(abs(v0 * (c * v0 + d * v1) - v1 * (a * v0 + b * v1)) <= scale
               * math.hypot(abs(a * v0 + b * v1), abs(c * v0 + d * v1))
               for a, b, c, d in flat):
            return True
    return False


def _nonzero_scalar(lam):
    """lam as a Fraction when rational, otherwise as a complex number."""
    lam = Fraction(lam) if isinstance(lam, (int, Rational)) else complex(lam)
    if lam == 0:
        raise AlgebraError("lambda must be nonzero")
    return lam


def abelian_rep(p: Presentation, lam) -> Representation:
    """The diagonal representation sending every generator to diag(lam, 1/lam).

    Only valid for Wirtinger-style presentations; the relators must have
    zero total exponent sum, which makes the relator residual exactly zero.
    """
    lam = _nonzero_scalar(lam)
    zero = Fraction(0) if isinstance(lam, Fraction) else 0j
    bad = [r for r in p.relators if r.exponent_sum() != 0]
    if bad:
        raise AlgebraError("presentation is not Wirtinger-style: relator "
                           "with nonzero exponent sum")
    m = (lam, zero, zero, 1 / lam)
    return Representation(p, [m] * p.num_generators, residual=0.0)


def reducible_formula(delta: LaurentPoly, lam) -> LaurentRational:
    """The twisted value of the diagonal abelian representation:

        delta(lam*t) * delta(lam^-1 t) / ((t - lam)(t - lam^-1))

    Exact when both inputs are exact.  The result reduces to a polynomial
    exactly when lam^2 is a root of delta (and then, by the reciprocal
    symmetry of knot polynomials, lam^-2 is one too).
    """
    lam = _nonzero_scalar(lam)
    inv = 1 / lam
    num = delta.compose_scale(lam) * delta.compose_scale(inv)
    t = LaurentPoly.t()
    den = (t - LaurentPoly.constant(lam)) * (t - LaurentPoly.constant(inv))
    return LaurentRational(num, den)


def burde_derham_check(delta: LaurentPoly, lam) -> bool:
    """Whether lam^2 is a root of delta, i.e. whether a reducible nonabelian
    representation with diagonal eigenvalue lam exists.

    Exact inputs are decided exactly; otherwise |delta(lam^2)| is compared
    against _BURDE_DE_RHAM_TOL times the coefficient l1-norm scaled by
    max(1,|lam^2|)^deg.
    """
    if delta.is_zero():
        raise AlgebraError("zero polynomial")
    if isinstance(lam, (int, Rational)) and delta.is_exact():
        return delta.evaluate(Fraction(lam) ** 2) == 0
    z = complex(lam) ** 2
    norm = sum(abs(complex(c)) for c in delta.coeffs.values())
    bound = _BURDE_DE_RHAM_TOL * norm * max(1.0, abs(z)) ** delta.degree()
    return abs(complex(delta.evaluate(z))) <= bound


def satellite_alexander(pattern: LaurentPoly, companion: LaurentPoly,
                        winding: int) -> LaurentPoly:
    """Alexander polynomial of a satellite: pattern(t) * companion(t^n).

    Winding number 0 substitutes the constant companion(1) = +-1, which
    normalizes away, leaving the pattern polynomial itself.
    """
    for q in (pattern, companion):
        if q.is_zero() or not q.is_exact():
            raise AlgebraError("satellite formula needs exact nonzero inputs")
        if q.evaluate(Fraction(1)) not in (1, -1):
            raise AlgebraError("input does not satisfy delta(1) = +-1")
    if winding == 0:
        prod = pattern
    else:
        prod = pattern * companion.substitute_power(winding)
    return prod.unit_normal()


def parse_constraints(text: str, p: Presentation) -> dict[FreeWord, complex]:
    """Parse trace-constraint lines: 'trace <word> = <re> <im>'."""
    out: dict[FreeWord, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5 or parts[0] != "trace" or parts[2] != "=":
            raise ParseError("line %d: expected 'trace <word> = <re> <im>'"
                             % lineno)
        w = p.word(parts[1])
        try:
            val = complex(float(parts[3]), float(parts[4]))
        except ValueError:
            raise ParseError("line %d: bad numeric value" % lineno) from None
        if not cmath.isfinite(val):
            raise ParseError("line %d: non-finite value" % lineno)
        out[w] = val
    return out


# The stopping rules of the module docstring, and the iteration cap of
# a restart.
_ROUNDING_FLOOR = 1e-12
_STAGNATION_WINDOW = 10
_STAGNATION_FACTOR = 0.95
_MAX_ITER = 60
# Relative singular-value cutoff of the Newton least-squares step.  The
# gauge leaves one conjugation (by diagonal matrices) unfixed, which the
# exact Jacobian resolves as a singular value of the order of the residual;
# without a cutoff near a solution the step runs along that direction.
_RCOND = 1e-10


# The residual bound max|f| <= _SOLVE_TOL that every constructed or
# solved representation meets.
_SOLVE_TOL = 1e-10
_REDUCIBLE_ONLY = ("only reducible representations found (commutator traces "
                   "all within 1e-6 of 2) where an irreducible one was "
                   "requested")


def _as_words(p: Presentation, constraints: dict) -> dict[FreeWord, complex]:
    return {w if isinstance(w, FreeWord) else p.word(w): complex(v)
            for w, v in constraints.items()}


def solve_representation(p: Presentation, constraints: dict[FreeWord, complex],
                         seed: int = 0, restarts: int = 50,
                         require_irreducible: bool = True) -> Representation:
    """Find an SL(2,C) representation matching the trace constraints.

    Deterministic for a fixed (presentation, constraints, seed): restarts
    draw their starting points from one seeded generator and the first
    success (residual <= _SOLVE_TOL, irreducible if required) is returned.
    """
    p.require_deficiency_one()
    n = p.num_generators
    constraints = _as_words(p, constraints)

    gen_trace: dict[int, complex] = {}
    for w, v in constraints.items():
        if len(w) == 1 and next(iter(w)) > 0:
            gen_trace[next(iter(w)) - 1] = v
    if p.wirtinger:
        vals = list(gen_trace.values())
        for v in vals[1:]:
            if abs(v - vals[0]) > 1e-9:
                raise SolveError("Wirtinger generators are conjugate, so their "
                                 "trace targets must agree; got %r" % (vals,))
    y0 = gen_trace.get(0, gen_trace.get(1, 2.5 + 0j))

    eq = _Equations(p, constraints)
    nfree, nvars = eq.nfree, eq.nvars

    def eigen_guess(tr: complex, rng) -> complex:
        disc = np.sqrt(complex(tr * tr - 4.0))
        root = (tr + disc) / 2.0 if rng.integers(2) else (tr - disc) / 2.0
        if abs(root) < 1e-3:
            # the other root, from the sum that does not cancel
            root = (tr + disc if abs(tr + disc) >= abs(tr - disc)
                    else tr - disc) / 2.0
        return root * (1.0 + 0.05 * (rng.standard_normal() +
                                     1j * rng.standard_normal()))

    def spread(rng) -> complex:
        # Log-uniform magnitude with random phase: restarts must reach
        # solution branches whose off-diagonal couplings differ by orders
        # of magnitude, not jitter around one template.
        mag = np.exp(rng.uniform(np.log(0.1), np.log(3.0)))
        return mag * np.exp(2j * np.pi * rng.uniform())

    # A constrained trace of the product of the first two generators pins
    # the seed for the lower-triangular coupling: with A = [[a,q],[0,1/a]],
    # B = [[b,0],[d,1/b]], tr(AB) = ab + 1/(ab) + qd, so d can start on the
    # constraint slice exactly instead of hoping a restart wanders onto it.
    z_ab = constraints.get(FreeWord([1, 2]))

    rng = np.random.default_rng(seed)
    best_reducible = None
    iterations = halvings = 0
    best = np.inf
    rejected = {"floor": 0, "stagnant": 0}
    for _ in range(restarts):
        x = np.zeros(nvars, dtype=complex)
        jit = 0.15 * (rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars))
        if n >= 1:
            x[0] = eigen_guess(y0, rng)
            x[1] = spread(rng)
        if n >= 2:
            x[2] = eigen_guess(gen_trace.get(1, y0), rng)
            x[3] = spread(rng)
            if z_ab is not None:
                prod = x[0] * x[2]
                x[3] = (z_ab - prod - 1.0 / prod) / x[1]
        for i in range(nfree):
            # A det-1 point of the rows linear in the new generator starts
            # Newton on the trace slice, leaving only the relators to solve.
            prods, traces = _trace_rows(3 + i, gen_trace.get(2 + i, y0),
                                        constraints, _gauge_images(x, 2 + i))
            cands = _det_one_on_trace_rows(prods, traces)
            entries = None
            if cands:
                c = cands[0] if len(cands) == 1 or rng.integers(2) else cands[1]
                entries = c if np.all(np.isfinite(c)) else None
            if entries is None:
                tr_i = gen_trace.get(2 + i, y0)
                g = np.array([[1.0 + jit[4 + 4 * i], jit[5 + 4 * i]],
                              [jit[6 + 4 * i], 1.0 + jit[7 + 4 * i]]])
                g /= np.sqrt(np.linalg.det(g))
                root = eigen_guess(tr_i, rng)
                base = (g @ np.array([[root, 1.0], [0.0, 1.0 / root]])
                        @ np.linalg.inv(g))
                entries = base.reshape(-1)
            x[4 + 4 * i: 8 + 4 * i] = entries

        f = _residual(eq, x)
        norm = np.linalg.norm(f)
        history = [norm]
        stop = None
        for _ in range(_MAX_ITER):
            if norm < 1e-14:
                break
            jac = _jacobian(eq, x)
            if not (np.all(np.isfinite(f)) and np.all(np.isfinite(jac))):
                break           # overflow: no least-squares step exists
            iterations += 1
            step, *_ = np.linalg.lstsq(jac, -f, rcond=_RCOND)
            at_floor = norm <= _ROUNDING_FLOOR
            lam, nn = 1.0, np.inf
            for _ in range(25):
                xn = x + lam * step
                if abs(xn[0]) >= 1e-8 and (n < 2 or abs(xn[2]) >= 1e-8):
                    fn = _residual(eq, xn)
                    nn = np.linalg.norm(fn)
                    # at the floor only the full step is worth trying
                    if nn < norm or at_floor:
                        break
                lam *= 0.5
                halvings += 1
            converging = nn < 0.5 * norm
            if nn < norm:
                x, f, norm = xn, fn, nn
            elif not at_floor:
                break           # no step length lowered the norm
            if at_floor and not converging:
                stop = "floor"
                break
            history.append(norm)
            if (len(history) > _STAGNATION_WINDOW and not
                    norm < _STAGNATION_FACTOR * history[-1 - _STAGNATION_WINDOW]):
                stop = "stagnant"
                break

        gens, residual, worst = _at_gauge_point(eq, x)
        best = min(best, worst)
        if worst <= _SOLVE_TOL:
            rho = Representation(p, gens, residual)
            if require_irreducible and rho.is_reducible():
                best_reducible = rho
                continue
            return rho
        if stop in rejected:
            rejected[stop] += 1

    counters = {"restarts": restarts, "iterations": iterations,
                "halvings": halvings, "best_residual": best,
                "rejected_at_floor": rejected["floor"],
                "rejected_stagnant": rejected["stagnant"]}
    if best_reducible is not None:
        raise SolveError(_REDUCIBLE_ONLY, **counters)
    raise SolveError("Newton iteration failed to reach residual %.1e within "
                     "%d restarts" % (_SOLVE_TOL, restarts), **counters)


def _at_gauge_point(eq: _Equations, x: np.ndarray
                    ) -> tuple[list[Matrix2], float, float]:
    """The generator images at gauge coordinates x, their relator residual
    and their largest row of eq, NaN read as inf (0 with no rows).  The
    entries are complex() of the images numpy computes from x: Python
    arithmetic on them is faster than numpy's scalar arithmetic and rounds
    +, - and * alike, but Python's 1.0/a can differ from numpy's in the
    last bit, so the rows are taken on the images that are returned."""
    gens = [tuple(map(complex, m)) for m in _gauge_images(x, eq.n)]
    rows = _rows(eq, _letter_images(gens))
    residual = reduce(_worse, map(abs, rows[:4 * eq.nrel]), 0.0)
    return gens, residual, reduce(_worse, map(abs, rows[4 * eq.nrel:]),
                                  residual)


@lru_cache(maxsize=64)
def _linear_rows(gi: int, words: tuple[FreeWord, ...]
                 ) -> tuple[tuple[tuple, FreeWord], ...]:
    """(rest, w) for each word w linear in generator gi (1-based): gi
    occurs once in w, at exponent +1, and only earlier generators
    elsewhere, so tr(w) = tr(P C) by cyclic invariance, with C the image of
    gi and P that of rest, w's letters after gi then before.  It reads the
    words alone, so each word tuple is scanned once."""
    rows = []
    for w in words:
        t = w.tietze
        if (len(t) > 1 and t.count(gi) == 1
                and all(abs(l) < gi for l in t if l != gi)):
            k = t.index(gi)
            rows.append((t[k + 1:] + t[:k], w))
    return tuple(rows)


def _trace_rows(gi: int, trace_gi: complex, constraints: dict,
                images: list) -> tuple[list, list]:
    """(prods, traces) for _det_one_on_trace_rows: tr C = trace_gi, then the
    _linear_rows of C, the image of generator gi, given the images before."""
    prods, traces = [_COMPLEX_ID], [trace_gi]
    letters = _letter_images(images)
    for rest, w in _linear_rows(gi, tuple(constraints)):
        prods.append(_word_product(letters, rest[1:], letters[rest[0]]))
        traces.append(constraints[w])
    return prods, traces


# The words whose constrained traces pin A and B: a, b and ab.
_PAIR_WORDS = (FreeWord([1]), FreeWord([2]), FreeWord([1, 2]))


@lru_cache(maxsize=64)
def _pins_every_generator(n: int, words: tuple[FreeWord, ...]) -> bool:
    """Whether the constrained words (never their values) admit the closed
    form: 2 or 3 generators, a, b, ab, and for 3 c and two words linear in c
    whose products P do not commute in the free group on a and b.  The
    rows I, P, P' then span three dimensions for generic A and B, since
    commuting non-scalar matrices span two with I; rows such as ca and cA
    never do, because A^-1 = (tr A) I - A.  It reads the words alone, so
    each word tuple is decided once."""
    if n not in (2, 3) or not all(w in words for w in _PAIR_WORDS):
        return False
    if n == 2:
        return True
    rests = [FreeWord(rest) for rest, _ in _linear_rows(3, words)]
    return FreeWord([3]) in words and any(
        not (u * v * u.inverse() * v.inverse()).is_identity()
        for i, u in enumerate(rests) for v in rests[:i])


def _meridian_eigenvalue(y: complex) -> complex:
    """The root a of a + 1/a = y with |a| >= 1, (y +- sqrt(y^2 - 4)) / 2 with
    the sign whose sum does not cancel; the other root is 1/a."""
    r = cmath.sqrt(y * y - 4.0)
    return (y + r) / 2.0 if abs(y + r) >= abs(y - r) else (y - r) / 2.0


def closed_form_representation(p: Presentation,
                               constraints: dict) -> Representation:
    """The irreducible representation with the given traces when the
    constrained words pin every generator, built in closed form (module
    docstring) and decided by the solver's equations: within _SOLVE_TOL and
    irreducible it is returned, else SolveError says whether it was
    reducible, as at a Burde-de Rham point, or missed by best_residual."""
    cons = _as_words(p, constraints)
    if not _pins_every_generator(p.num_generators, tuple(cons)):
        raise AlgebraError("the closed form needs 2 or 3 generators, traces of "
                           "a, b, ab and, for 3, of c and two words linear in "
                           "c with products that do not commute")
    return _closed_form(p, cons)


def _closed_form(p: Presentation, cons: dict) -> Representation:
    """closed_form_representation once the words are known to pin every
    generator."""
    p.require_deficiency_one()
    n = p.num_generators
    if not all(map(cmath.isfinite, cons.values())):
        raise SolveError("trace constraints must be finite")
    ya, yb, z = (cons[w] for w in _PAIR_WORDS)
    a, b = _meridian_eigenvalue(ya), _meridian_eigenvalue(yb)
    if n == 2:
        s = cmath.sqrt(z - a / b - b / a)
        points = [[a, s, 1.0 / b, s]]
    else:
        pair = [a, 1.0 + 0j, b, z - a * b - 1.0 / (a * b)]
        ab = _gauge_images(pair, 2)
        cands = _det_one_on_trace_rows(*_trace_rows(
            3, cons[FreeWord([3])], cons, ab))
        if not cands:
            # At a reducible pair a, b, as at a Burde-de Rham character, the
            # rows linear in C drop rank, so no finite set of C solves them.
            reason = ("the traces do not cut det C = 1 down to one or two "
                      "matrices C")
            if _pair_is_reducible(*ab):
                reason = ("the pair a, b is reducible (tr[a, b] within %.0e "
                          "of 2), so %s" % (_REDUCIBLE_TOL, reason))
            raise SolveError(reason)
        points = [pair + list(c) for c in cands]
    eq = _Equations(p, cons)
    best, reducible = math.inf, False
    for x in points:
        gens, residual, worst = _at_gauge_point(eq, np.array(x))
        best = min(best, worst)
        if worst <= _SOLVE_TOL:
            rho = Representation(p, gens, residual)
            if not rho.is_reducible():
                return rho
            reducible = True
    if reducible:
        raise SolveError(_REDUCIBLE_ONLY, best_residual=best)
    raise SolveError("no irreducible representation has these traces: the "
                     "closed form misses them by max|f| %.1e > %.0e"
                     % (best, _SOLVE_TOL), best_residual=best)


def representation_from_traces(p: Presentation, constraints: dict,
                               seed: int = 0) -> Representation:
    """The irreducible representation with these trace constraints: the
    closed form if their words pin every generator, else the seeded solver.
    Both test their floats for overflow and raise SolveError, so numpy's
    floating-point warnings are silenced here."""
    cons = _as_words(p, constraints)
    with np.errstate(all="ignore"):
        if _pins_every_generator(p.num_generators, tuple(cons)):
            return _closed_form(p, cons)
        return solve_representation(p, cons, seed=seed)
