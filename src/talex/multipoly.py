"""Sparse multivariate polynomials with exact rational coefficients.

A MultiPoly carries an ordered variable tuple and a term map from integer
exponent vectors to nonzero Fractions.  Exponents may be negative: the
ring is really a localization (Laurent in selected variables), as the
entries of a matrix such as (m, 1; 0, 1/m) need.
exact_divide needs honest polynomials and checks for nonnegative
exponents first; resultant needs them only in the eliminated variable.

Evaluation and substitution are one operation, compose(images, zero):
the ring map sending each variable to a number, a LaurentPoly or a
MultiPoly.  A negative power needs a nonzero number or a monomial image.
It follows the mixed-domain rule of the laurent module: a Fraction
coefficient that meets a complex power is converted once by
complex(Fraction), the value Fraction's own operators use, and the term
goes on in complex numbers alone.  to_complex() converts every
coefficient once, for a polynomial evaluated at many complex points; the
image holds complex terms and serves compose and evaluate only.

The monomial order used throughout is lex in the stored variable order;
Python's tuple comparison on exponent vectors implements it directly.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number, Rational

from .errors import AlgebraError
from .laurent import _binary_power, _pow_any


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple, Fraction] | None = None):
        self.vars = tuple(vars)
        clean: dict[tuple, Fraction] = {}
        if terms:
            nv = len(self.vars)
            for ex, c in terms.items():
                if len(ex) != nv:
                    raise AlgebraError("exponent vector %r does not match "
                                       "variables %r" % (ex, self.vars))
                c = Fraction(c)
                if c != 0:
                    clean[tuple(int(e) for e in ex)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "MultiPoly":
        return cls(tuple(vars))

    @classmethod
    def constant(cls, vars, c) -> "MultiPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def var(cls, vars, name) -> "MultiPoly":
        vars = tuple(vars)
        if name not in vars:
            raise AlgebraError("unknown variable %r (have %r)" % (name, vars))
        ex = [0] * len(vars)
        ex[vars.index(name)] = 1
        return cls(vars, {tuple(ex): Fraction(1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in ex) for ex in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def has_negative_exponents(self) -> bool:
        return any(e < 0 for ex in self.terms for e in ex)

    def lex_leading(self) -> tuple[tuple, Fraction]:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no leading term")
        ex = max(self.terms)
        return ex, self.terms[ex]

    def degree_in(self, name: str) -> int:
        """Highest exponent of the named variable (-1 for the zero poly)."""
        i = self.vars.index(name)
        return max((ex[i] for ex in self.terms), default=-1)

    def min_exponent_in(self, name: str) -> int:
        i = self.vars.index(name)
        return min((ex[i] for ex in self.terms), default=0)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise AlgebraError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other) -> "MultiPoly":
        other = self._as_poly(other)
        self._check(other)
        terms = dict(self.terms)
        for ex, c in other.terms.items():
            s = terms.get(ex, Fraction(0)) + c
            if s:
                terms[ex] = s
            else:
                terms.pop(ex, None)
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly(self.vars)
        out.terms = {ex: -c for ex, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._as_poly(other))

    def __mul__(self, other) -> "MultiPoly":
        other = self._as_poly(other)
        self._check(other)
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                ex = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(ex, Fraction(0)) + c1 * c2
                if s:
                    terms[ex] = s
                else:
                    terms.pop(ex, None)
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    def __rmul__(self, other) -> "MultiPoly":
        return self * other

    def __pow__(self, n: int) -> "MultiPoly":
        """n-th power; a negative n needs a monomial."""
        if n and len(self.terms) == 1:
            (ex, c), = self.terms.items()
            return MultiPoly(self.vars, {tuple(e * n for e in ex): c ** n})
        if n < 0:
            raise AlgebraError("negative polynomial power")
        return _binary_power(MultiPoly.constant(self.vars, 1), self, n)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        out = MultiPoly(self.vars)
        if c:
            out.terms = {ex: c * t for ex, t in self.terms.items()}
        return out

    def _as_poly(self, x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, (int, Rational)):
            return MultiPoly.constant(self.vars, x)
        raise TypeError("cannot coerce %r into MultiPoly" % (x,))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Rational)):
                other = MultiPoly.constant(self.vars, other)
            else:
                return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def to_complex(self) -> "MultiPoly":
        """The complex image, for compose and evaluate only: the same
        terms, each coefficient through complex(c).  By the mixed-domain
        rule its values at complex points are those of the polynomial
        itself."""
        out = MultiPoly(self.vars)
        out.terms = {ex: complex(c) for ex, c in self.terms.items()}
        return out

    # -- substitution -----------------------------------------------------------

    def compose(self, images: dict, zero):
        """The ring map sending each variable v to images[v]: the sum over
        terms of c * prod images[v]**e, started from zero.

        An image is a number, a LaurentPoly or a MultiPoly.  Variables with
        numeric images are evaluated first, term by term in stored variable
        order, into one coefficient per exponent vector of the others; each
        such coefficient then multiplies the matching product of powers.
        Each power images[v]**e is computed once per call.  A negative
        power needs a nonzero number or a monomial image.
        """
        num = [i for i, v in enumerate(self.vars) if isinstance(images[v], Number)]
        rest = [i for i in range(len(self.vars)) if i not in num]
        powers: dict[tuple[int, int], object] = {}

        def power(i: int, e: int):
            if (i, e) not in powers:
                powers[i, e] = _pow_any(images[self.vars[i]], e)
            return powers[i, e]

        grouped: dict[tuple, object] = {}
        for ex, c in self.terms.items():
            for i in num:
                x = power(i, ex[i])
                if type(c) is Fraction and isinstance(x, complex):
                    c = complex(c)
                c = c * x
            key = tuple(ex[i] for i in rest)
            grouped[key] = grouped.get(key, 0) + c
        total = zero
        for key, c in grouped.items():
            for i, e in zip(rest, key):
                c = c * power(i, e)
            total = total + c
        return total

    def evaluate(self, assignment: dict[str, object]):
        """Numeric value at a full assignment (complex or Fraction entries)."""
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise AlgebraError("no value for variables %r" % missing)
        exact = all(isinstance(assignment[v], (int, Rational)) for v in self.vars)
        return self.compose(assignment, Fraction(0) if exact else 0j)

    # -- normalization ------------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content (gcd of numerators over lcm of denominators)."""
        if self.is_zero():
            return Fraction(0)
        from math import gcd, lcm
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive_normalized(self) -> "MultiPoly":
        """Divide out the content and make the lex-leading coefficient positive."""
        if self.is_zero():
            return self
        c = self.content()
        if self.lex_leading()[1] < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    # -- presentation ----------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for ex in sorted(self.terms, reverse=True):
            c = self.terms[ex]
            mono = "*".join(
                (v if e == 1 else "%s^%d" % (v, e))
                for v, e in zip(self.vars, ex) if e != 0)
            mag = str(abs(c))
            if mono:
                body = mono if mag == "1" else "%s*%s" % (mag, mono)
            else:
                body = mag
            if not bits:
                bits.append("-" + body if c < 0 else body)
            else:
                bits.append(("- " if c < 0 else "+ ") + body)
        return " ".join(bits)

    def __repr__(self) -> str:
        return "MultiPoly(%s)" % self.to_text()


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """The s with p = q*s exactly, or None if no such polynomial exists.

    Lex-leading term recursion: each step must clear the current leading
    term of the running remainder, so the first failure certifies that q
    does not divide p.  Inputs must have nonnegative exponents.
    """
    if p.vars != q.vars:
        raise AlgebraError("variable mismatch in exact_divide")
    if q.is_zero():
        raise AlgebraError("division by the zero polynomial")
    if p.has_negative_exponents() or q.has_negative_exponents():
        raise AlgebraError("exact_divide needs honest polynomials")
    quot = MultiPoly.zero(p.vars)
    rem = p
    qex, qc = q.lex_leading()
    while not rem.is_zero():
        rex, rc = rem.lex_leading()
        dex = tuple(a - b for a, b in zip(rex, qex))
        if any(e < 0 for e in dex):
            return None
        t = MultiPoly(p.vars, {dex: rc / qc})
        quot = quot + t
        rem = rem - q * t
    return quot


def sylvester_matrix(p: MultiPoly, q: MultiPoly, name: str) -> list[list[MultiPoly]]:
    """Sylvester matrix of p, q as univariate polynomials in the named
    variable; entries are MultiPolys in the remaining variables (stored
    over the same variable tuple, with the eliminated variable absent)."""
    i = p.vars.index(name)
    m, n = p.degree_in(name), q.degree_in(name)
    if m < 0 or n < 0:
        raise AlgebraError("resultant with a zero polynomial")
    if p.min_exponent_in(name) < 0 or q.min_exponent_in(name) < 0:
        raise AlgebraError("resultant needs nonnegative exponents in %r" % name)

    def coeff(poly: MultiPoly, k: int) -> MultiPoly:
        out = MultiPoly.zero(poly.vars)
        terms = {}
        for ex, c in poly.terms.items():
            if ex[i] == k:
                rest = list(ex)
                rest[i] = 0
                terms[tuple(rest)] = c
        out.terms = terms
        return out

    pc = [coeff(p, k) for k in range(m, -1, -1)]   # descending
    qc = [coeff(q, k) for k in range(n, -1, -1)]
    size = m + n
    zero = MultiPoly.zero(p.vars)
    rows = []
    for r in range(n):
        rows.append([zero] * r + pc + [zero] * (size - r - m - 1))
    for r in range(m):
        rows.append([zero] * r + qc + [zero] * (size - r - n - 1))
    return rows


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant eliminating the named variable, as a polynomial in the rest.

    Computed as the Sylvester determinant by det(), whose entries may carry
    negative powers of the remaining variables.
    Degenerate degrees: if either input is constant in the variable, the
    resultant is that constant raised to the other's degree.
    """
    m, n = p.degree_in(name), q.degree_in(name)
    if m < 0 or n < 0:
        raise AlgebraError("resultant with a zero polynomial")
    if m == 0:
        return p ** n
    if n == 0:
        return q ** m
    from .matrix import det
    return det(sylvester_matrix(p, q, name))
