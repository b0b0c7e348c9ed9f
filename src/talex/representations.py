"""SL(2,C) representations of knot group presentations.

A Representation stores one 2x2 matrix per generator, either with exact
rational entries (diagonal abelian representations) or complex floating
entries (solved irreducible representations).  Inverses use the adjugate,
which is the true inverse precisely when det = 1; validity therefore means
all generator determinants lie within tolerance of 1 and all relators map
within tolerance of the identity.

solve_representation is a damped Gauss-Newton iteration in an explicit
gauge: the first generator is upper-triangular, the second lower-
triangular (both with determinant 1 built in), remaining generators carry
four free entries plus a soft det-1 constraint.  Trace targets enter the
residual with weight 1 alongside the relator entries.  Any irreducible
pair of images can be conjugated into this gauge, so the gauge costs no
generality for the representations of interest.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import AlgebraError, ParseError, SolveError
from .laurent import LaurentPoly, LaurentRational
from .presentations import Presentation
from .words import FreeWord

Matrix2 = tuple[tuple[object, object], tuple[object, object]]

_EXACT_ID: Matrix2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
_COMPLEX_ID: Matrix2 = ((1 + 0j, 0j), (0j, 1 + 0j))


def _mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def _mat_det(a: Matrix2):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _mat_adjugate(a: Matrix2) -> Matrix2:
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


class Representation:
    """Images of the generators of a presentation in SL(2,C)."""

    def __init__(self, presentation: Presentation, matrices, residual: float = 0.0):
        if len(matrices) != presentation.num_generators:
            raise AlgebraError("need one matrix per generator")
        self.presentation = presentation
        self.matrices: list[Matrix2] = [
            ((m[0][0], m[0][1]), (m[1][0], m[1][1])) for m in matrices]
        self.residual = float(residual)
        self._exact = all(isinstance(e, Rational)
                          for m in self.matrices for row in m for e in row)

    def is_exact(self) -> bool:
        return self._exact

    def image(self, w: FreeWord) -> Matrix2:
        out = _EXACT_ID if self._exact else _COMPLEX_ID
        for x in w:
            m = self.matrices[abs(x) - 1]
            if x < 0:
                m = _mat_adjugate(m)   # inverse in SL2
            out = _mat_mul(out, m)
        return out

    def trace(self, w: FreeWord):
        m = self.image(w)
        return m[0][0] + m[1][1]

    def determinant_drift(self) -> float:
        return max(abs(complex(_mat_det(m)) - 1.0) for m in self.matrices)

    def relator_residual(self) -> float:
        worst = 0.0
        for r in self.presentation.relators:
            m = self.image(r)
            for i in (0, 1):
                for j in (0, 1):
                    target = 1.0 if i == j else 0.0
                    worst = max(worst, abs(complex(m[i][j]) - target))
        return worst

    def is_reducible(self, tol: float = 1e-6) -> bool:
        """All pairwise commutator traces within tol of 2."""
        n = self.presentation.num_generators
        for i in range(n):
            for j in range(i + 1, n):
                a, b = self.matrices[i], self.matrices[j]
                comm = _mat_mul(_mat_mul(a, b),
                                _mat_mul(_mat_adjugate(a), _mat_adjugate(b)))
                if abs(complex(comm[0][0] + comm[1][1]) - 2.0) > tol:
                    return False
        return True

    def conjugate(self, g: Matrix2) -> "Representation":
        ginv = _mat_adjugate(g)
        dg = _mat_det(g)
        mats = []
        for m in self.matrices:
            c = _mat_mul(_mat_mul(g, m), ginv)
            mats.append(((c[0][0] / dg, c[0][1] / dg), (c[1][0] / dg, c[1][1] / dg)))
        return Representation(self.presentation, mats, self.residual)

    def to_json_dict(self) -> dict:
        gens = []
        for m in self.matrices:
            flat = []
            for i in (0, 1):
                for j in (0, 1):
                    z = complex(m[i][j])
                    flat.append([z.real, z.imag])
            gens.append(flat)
        return {"generators": gens, "residual": self.residual}

    @classmethod
    def from_json_dict(cls, data: dict, presentation: Presentation) -> "Representation":
        try:
            gens = data["generators"]
            mats = []
            for flat in gens:
                e = [complex(float(re), float(im)) for re, im in flat]
                mats.append(((e[0], e[1]), (e[2], e[3])))
            residual = float(data.get("residual", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad representation JSON: %s" % exc) from None
        return cls(presentation, mats, residual)


def character_of(rho: Representation,
                 words: list[FreeWord]) -> dict[FreeWord, object]:
    """The trace function recorded on finitely many words."""
    return {w: rho.trace(w) for w in words}


def abelian_rep(p: Presentation, lam) -> Representation:
    """The diagonal representation sending every generator to diag(lam, 1/lam).

    Only valid for Wirtinger-style presentations; the relators must have
    zero total exponent sum, which makes the relator residual exactly zero.
    """
    if isinstance(lam, (int, Rational)):
        lam = Fraction(lam)
        if lam == 0:
            raise AlgebraError("lambda must be nonzero")
        inv = 1 / lam
        zero = Fraction(0)
    else:
        lam = complex(lam)
        if lam == 0:
            raise AlgebraError("lambda must be nonzero")
        inv = 1.0 / lam
        zero = 0j
    bad = [r for r in p.relators if r.exponent_sum() != 0]
    if bad:
        raise AlgebraError("presentation is not Wirtinger-style: relator "
                           "with nonzero exponent sum")
    m = ((lam, zero), (zero, inv))
    return Representation(p, [m] * p.num_generators, residual=0.0)


def reducible_formula(delta: LaurentPoly, lam) -> LaurentRational:
    """The twisted value of the diagonal abelian representation:

        delta(lam*t) * delta(lam^-1 t) / ((t - lam)(t - lam^-1))

    Exact when both inputs are exact.  The result reduces to a polynomial
    exactly when lam^2 is a root of delta (and then, by the reciprocal
    symmetry of knot polynomials, lam^-2 is one too).
    """
    if isinstance(lam, (int, Rational)):
        lam = Fraction(lam)
    else:
        lam = complex(lam)
    if lam == 0:
        raise AlgebraError("lambda must be nonzero")
    one = Fraction(1) if isinstance(lam, Fraction) else 1.0
    inv = one / lam
    num = delta.compose_scale(lam) * delta.compose_scale(inv)
    t = LaurentPoly.t()
    den = (t - LaurentPoly.constant(lam)) * (t - LaurentPoly.constant(inv))
    return LaurentRational(num, den)


def burde_derham_check(delta: LaurentPoly, lam, tol: float = 1e-8) -> bool:
    """Whether lam^2 is a root of delta, i.e. whether a reducible nonabelian
    representation with diagonal eigenvalue lam exists.

    Exact inputs are decided exactly; otherwise |delta(lam^2)| is compared
    against tol times the coefficient l1-norm scaled by max(1,|lam^2|)^deg.
    """
    if delta.is_zero():
        raise AlgebraError("zero polynomial")
    if isinstance(lam, (int, Rational)) and delta.is_exact():
        return delta.evaluate(Fraction(lam) ** 2) == 0
    z = complex(lam) ** 2
    norm = sum(abs(complex(c)) for c in delta.coeffs.values())
    bound = tol * norm * max(1.0, abs(z)) ** delta.degree()
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
        out[w] = val
    return out


def solve_representation(p: Presentation, constraints: dict[FreeWord, complex],
                         seed: int = 0, restarts: int = 50,
                         tol: float = 1e-10, max_iter: int = 60,
                         require_irreducible: bool = True) -> Representation:
    """Find an SL(2,C) representation matching the trace constraints.

    Deterministic for a fixed (presentation, constraints, seed): restarts
    draw their starting points from one seeded generator and the first
    success (residual <= tol, irreducible if required) is returned.
    """
    p.require_deficiency_one()
    n = p.num_generators
    constraints = {w if isinstance(w, FreeWord) else p.word(w): complex(v)
                   for w, v in constraints.items()}

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

    nfree = max(n - 2, 0)
    nvars = (2 if n >= 1 else 0) + (2 if n >= 2 else 0) + 4 * nfree

    def unpack(x: np.ndarray) -> list[Matrix2]:
        mats: list[Matrix2] = []
        if n >= 1:
            a, q = x[0], x[1]
            mats.append(((a, q), (0j, 1.0 / a)))
        if n >= 2:
            b, d = x[2], x[3]
            mats.append(((b, 0j), (d, 1.0 / b)))
        for i in range(nfree):
            e = x[4 + 4 * i: 8 + 4 * i]
            mats.append(((e[0], e[1]), (e[2], e[3])))
        return mats

    def residual_vec(x: np.ndarray) -> np.ndarray:
        mats = unpack(x)
        rho = Representation(p, mats)
        out = []
        for r in p.relators:
            m = rho.image(r)
            out.extend([m[0][0] - 1.0, m[0][1], m[1][0], m[1][1] - 1.0])
        for i in range(nfree):
            out.append(_mat_det(mats[2 + i]) - 1.0)
        for w, v in constraints.items():
            out.append(rho.trace(w) - v)
        return np.array(out, dtype=complex)

    def jacobian(x: np.ndarray, f0: np.ndarray) -> np.ndarray:
        h = 1e-7
        cols = []
        for k in range(nvars):
            xk = x.copy()
            xk[k] += h
            cols.append((residual_vec(xk) - f0) / h)
        return np.array(cols).T

    def eigen_guess(tr: complex, rng) -> complex:
        disc = np.sqrt(complex(tr * tr - 4.0))
        root = (tr + disc) / 2.0 if rng.integers(2) else (tr - disc) / 2.0
        if abs(root) < 1e-3:
            root = (tr + disc) / 2.0
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

    def seed_on_trace_slice(gi: int, seeded: list, rng) -> np.ndarray | None:
        """Entries for generator index gi (1-based) solving every constraint
        that is linear in it, det-corrected to 1.

        A constraint tr(w) with gi occurring exactly once at exponent +1 and
        only earlier generators elsewhere is linear in the new matrix C:
        cyclic invariance gives tr(w) = tr(P C) with P a product of already
        seeded images.  The minimum-norm solution of those rows plus a null
        direction scaled to reach det = 1 starts Newton on the entire trace
        slice, leaving only the relators to satisfy.
        """
        rows = [[1.0 + 0j, 0j, 0j, 1.0 + 0j]]
        rhs = [gen_trace.get(gi - 1, y0)]
        for w, v in constraints.items():
            letters = list(w)
            if len(letters) < 2 or letters.count(gi) != 1:
                continue
            if any(abs(l) >= gi for l in letters if l != gi):
                continue
            k = letters.index(gi)
            rest = letters[k + 1:] + letters[:k]
            pm = np.eye(2, dtype=complex)
            for l in rest:
                m = np.array(seeded[l - 1] if l > 0 else
                             _mat_adjugate(seeded[-l - 1]), dtype=complex)
                pm = pm @ m
            rows.append([pm[0, 0], pm[1, 0], pm[0, 1], pm[1, 1]])
            rhs.append(v)
        if len(rows) < 3:
            return None
        mat = np.array(rows, dtype=complex)
        b = np.array(rhs, dtype=complex)
        c0, *_ = np.linalg.lstsq(mat, b, rcond=None)
        if np.linalg.norm(mat @ c0 - b) > 1e-9 * max(1.0, np.linalg.norm(b)):
            return None
        _, sv, vh = np.linalg.svd(mat)
        null = vh[np.sum(sv > 1e-10 * sv[0]):].conj().T
        if null.shape[1] != 1:
            return None
        nv = null[:, 0]

        def det4(u):
            return u[0] * u[3] - u[1] * u[2]

        q2 = det4(nv)
        q1 = c0[0] * nv[3] + nv[0] * c0[3] - c0[1] * nv[2] - nv[1] * c0[2]
        q0 = det4(c0) - 1.0
        if abs(q2) > 1e-12:
            disc = np.sqrt(q1 * q1 - 4.0 * q2 * q0)
            s = (-q1 + disc) / (2 * q2) if rng.integers(2) \
                else (-q1 - disc) / (2 * q2)
        elif abs(q1) > 1e-12:
            s = -q0 / q1
        else:
            return None
        c = c0 + s * nv
        return c if np.all(np.isfinite(c)) else None

    rng = np.random.default_rng(seed)
    best_reducible = None
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
        seeded = [((x[0], x[1]), (0j, 1.0 / x[0])),
                  ((x[2], 0j), (x[3], 1.0 / x[2]))][:n]
        for i in range(nfree):
            entries = seed_on_trace_slice(3 + i, seeded, rng)
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
            e = x[4 + 4 * i: 8 + 4 * i]
            seeded.append(((e[0], e[1]), (e[2], e[3])))

        f = residual_vec(x)
        norm = np.linalg.norm(f)
        for _ in range(max_iter):
            if norm < 1e-14:
                break
            J = jacobian(x, f)
            step, *_ = np.linalg.lstsq(J, -f, rcond=None)
            lam, improved = 1.0, False
            for _ in range(25):
                xn = x + lam * step
                if abs(xn[0]) < 1e-8 or (n >= 2 and abs(xn[2]) < 1e-8):
                    lam *= 0.5
                    continue
                fn = residual_vec(xn)
                nn = np.linalg.norm(fn)
                if nn < norm:
                    x, f, norm, improved = xn, fn, nn, True
                    break
                lam *= 0.5
            if not improved:
                break

        if np.max(np.abs(f)) <= tol:
            rho = Representation(p, unpack(x))
            rho.residual = rho.relator_residual()
            if require_irreducible and rho.is_reducible():
                best_reducible = rho
                continue
            return rho

    if best_reducible is not None:
        raise SolveError("only reducible representations found (commutator "
                         "traces all within 1e-6 of 2) where an irreducible "
                         "one was requested")
    raise SolveError("Newton iteration failed to reach residual %.1e within "
                     "%d restarts" % (tol, restarts))
