"""Sparse univariate Laurent polynomials over Q or C.

Coefficients live in one of two domains: exact rationals
(fractions.Fraction, into which ints are coerced) or complex floats
(plain Python complex, into which floats and numpy scalars are coerced).
A polynomial is "exact" when every coefficient is a Fraction; mixing an
exact polynomial with a complex one silently promotes to the complex
domain.  The domain is decided once, when the polynomial is constructed,
and kept with it: polynomials are not mutated after construction, so
is_exact() costs no scan of the coefficients.  Zeros, exact or complex,
are dropped on construction; other floating coefficients are only pruned
by an explicit cleanup(), which drops entries whose magnitude is at
most _CLEAN_EPS = 1e-10 times the largest magnitude present.

The mixed-domain rule: where a Fraction meets a complex, the result is
that of complex(Fraction) meeting it, the conversion Fraction's own
operators make.  So when one operand of * is exact and the other
all-complex, the exact coefficients are converted once and the product
runs on complex numbers alone, and evaluate at a complex point converts
each coefficient once; the bits are those of the pairwise Fraction
fallback.  to_complex() is the one complex image of a polynomial, for
loops that meet the same exact polynomial many times.  A polynomial that
holds both Fractions and complex numbers (such as t^2 - x0 for a complex
x0) keeps the pairwise loop, as does +, whose coefficients found in one
operand only keep their type.  Results are built on already-clean dicts
(_clean), never re-coerced.

The zero polynomial has empty support.  degree() is the span from lowest
to highest exponent, the natural degree notion for quantities defined up
to units t^k.

The reduction of LaurentRational and the square-free decomposition clear
denominators and content and run in Z[t] (the _zt kernel): a primitive
pseudo-remainder gcd, exact trial division and Yun's algorithm
(_zt.squarefree), with the same results as over Q and no Fraction per
step; an exact polynomial at an exact point is one integer Horner sum
(_zt.horner).  Exact division (/) reads that reduction: an exact
LaurentRational is a polynomial exactly when its reduced denominator is
1.  A complex quotient is divided at samples on the unit circle
(_sampled_quotient).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Number, Rational

import numpy as np

from . import _zt
from .errors import AlgebraError, NonPolynomialError

_CLEAN_EPS = 1e-10


def _is_exact(c) -> bool:
    return isinstance(c, Rational)


def _coerce(c):
    if type(c) is Fraction or type(c) is complex:
        return c
    if isinstance(c, Fraction):
        return c
    # numpy complex scalars come here; the Rational ABC check is slow, and
    # no type is both a float or complex and a Rational
    if isinstance(c, (float, complex)):
        return complex(c)
    if isinstance(c, Rational) or isinstance(c, int):
        return Fraction(c)
    raise TypeError("unsupported coefficient type %r" % type(c))


class LaurentPoly:
    """A Laurent polynomial sum c_k t^k, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs", "_exact")

    def __init__(self, coeffs: dict[int, object] | None = None):
        clean: dict[int, object] = {}
        exact = True
        if coeffs:
            for k, c in coeffs.items():
                c = _coerce(c)
                if c != 0:
                    clean[int(k)] = c
                    # _coerce returns a Fraction or a plain complex
                    if type(c) is complex:
                        exact = False
        self.coeffs = clean
        self._exact = exact

    @classmethod
    def _clean(cls, coeffs: dict[int, object], exact: bool) -> "LaurentPoly":
        """A polynomial on coeffs as they stand: int exponents, no zero
        coefficient, and every coefficient a Fraction when exact, else a
        complex.  Nothing is coerced or checked."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        p._exact = exact
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls, k: int = 1) -> "LaurentPoly":
        return cls({k: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_coefficients(cls, coeffs, min_exp: int = 0) -> "LaurentPoly":
        """Dense coefficient list [c0, c1, ...] starting at exponent min_exp."""
        return cls({min_exp + i: c for i, c in enumerate(coeffs)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return self._exact

    def min_exp(self) -> int:
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no exponent range")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no exponent range")
        return max(self.coeffs)

    def degree(self) -> int:
        """Span from lowest to highest exponent (0 for monomials)."""
        return self.max_exp() - self.min_exp()

    def leading(self):
        """Coefficient of the highest exponent."""
        return self.coeffs[self.max_exp()]

    def __getitem__(self, k: int):
        c = self.coeffs.get(k, 0)
        return c if c else (Fraction(0) if self.is_exact() else 0j)

    def to_complex(self) -> "LaurentPoly":
        """The complex image: each coefficient through complex(c).  A loop
        that evaluates one exact polynomial at many complex points, or
        multiplies it by complex ones, builds this once; by the
        mixed-domain rule its values are those of the polynomial itself."""
        return _built({k: complex(c) for k, c in self.coeffs.items()})

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def cleanup(self) -> "LaurentPoly":
        """Drop coefficients of relative magnitude <= _CLEAN_EPS (floating
        domain).  Exact polynomials are returned unchanged: exact zeros
        never appear."""
        if self.is_exact() or not self.coeffs:
            return self
        cut = _CLEAN_EPS * self.max_abs()
        return _built({k: c for k, c in self.coeffs.items()
                       if abs(complex(c)) > cut})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._as_poly(other)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return _built(coeffs)

    def __radd__(self, other) -> "LaurentPoly":
        return self + other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._clean({k: -c for k, c in self.coeffs.items()},
                                  self._exact)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._as_poly(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._as_poly(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._as_poly(other)
        a, b = self.coeffs, other.coeffs
        if self._exact != other._exact:
            a, b = _complex_pair(self, other)
        coeffs: dict[int, object] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                coeffs[k] = coeffs.get(k, 0) + c1 * c2
        return _built(coeffs)

    def __rmul__(self, other) -> "LaurentPoly":
        return self * other

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise AlgebraError("negative power of a Laurent polynomial")
        if n and len(self.coeffs) == 1:
            (k, c), = self.coeffs.items()
            return LaurentPoly({k * n: c ** n})
        return _binary_power(LaurentPoly.one(), self, n)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._clean({e + k: c for e, c in self.coeffs.items()},
                                  self._exact)

    def unit_normal(self) -> "LaurentPoly":
        """The representative up to units +-t^k: lowest exponent 0 and a
        positive leading coefficient.  Exact coefficients only."""
        if not self.is_exact():
            raise AlgebraError("unit normal form needs exact coefficients")
        p = self.shift(-self.min_exp())
        return -p if p.leading() < 0 else p

    def scale(self, c) -> "LaurentPoly":
        return self * LaurentPoly.constant(c)

    @staticmethod
    def _as_poly(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.constant(x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, Number):
                return NotImplemented
            other = LaurentPoly.constant(other)
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    def __hash__(self):
        return hash(frozenset((k, complex(c)) for k, c in self.coeffs.items()))

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, x):
        """Value at x; exact when both the polynomial and x are exact.

        At an exact x = p/q an exact polynomial t^low f(t) / den (_zt.split)
        is valued in integers, q^deg f f(p/q) by _zt.horner, and made one
        Fraction at the end.  Other points run the loop term by term, a
        coefficient made complex first when x is complex.
        """
        if self._exact and type(x) is not complex and _is_exact(_coerce(x)):
            f, low, den = _zt.split(self.coeffs)
            if not f:
                return Fraction(0)
            p, q = x.numerator, x.denominator
            if low < 0 and not p:
                raise AlgebraError("substituting 0 into a negative power")
            # f(x) / den = horner / (q^deg f den), then times (p/q)^low
            num, den = _zt.horner(f, p, q), den * q ** (len(f) - 1)
            if low >= 0:
                return Fraction(num * p ** low, den * q ** low)
            return Fraction(num * q ** -low, den * p ** -low)
        cast = isinstance(x, complex)
        total = 0j
        for k, c in self.coeffs.items():
            if cast and type(c) is not complex:
                c = complex(c)
            total = total + c * _pow_any(x, k)
        return total

    def derivative(self) -> "LaurentPoly":
        return _built({k - 1: k * c for k, c in self.coeffs.items() if k != 0})

    def substitute_power(self, n: int) -> "LaurentPoly":
        """t -> t^n for n != 0 (exponent dilation)."""
        if n == 0:
            raise AlgebraError("t -> t^0 collapses the variable; handle separately")
        return LaurentPoly({k * n: c for k, c in self.coeffs.items()})

    def compose_scale(self, a) -> "LaurentPoly":
        """t -> a*t for a != 0."""
        if _coerce(a) == 0:
            raise AlgebraError("t -> 0*t is not a Laurent substitution")
        return LaurentPoly({k: c * _pow_any(a, k) for k, c in self.coeffs.items()})

    # -- division ----------------------------------------------------------

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact division; raises if the division leaves a nonzero remainder.

        The quotient is LaurentRational(self, other).attempt_polynomial()
        at _CLEAN_EPS: exact operands are decided by the reduction in Z[t],
        floating ones by _sampled_quotient.
        """
        other = self._as_poly(other)
        if other.is_zero():
            raise AlgebraError("division by the zero polynomial")
        q = LaurentRational(self, other).attempt_polynomial()
        if q is None:
            raise NonPolynomialError("inexact Laurent division of %s by %s"
                                     % (self.to_text(), other.to_text()))
        return q

    # -- presentation ------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {}
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if _is_exact(c):
                f = Fraction(c)
                out[str(k)] = "%d/%d" % (f.numerator, f.denominator) \
                    if f.denominator != 1 else str(f.numerator)
            else:
                z = complex(c)
                out[str(k)] = [z.real, z.imag]
        return {"coeffs": out}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentPoly":
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), dict):
            raise AlgebraError("bad Laurent JSON: needs a 'coeffs' mapping")
        coeffs: dict[int, object] = {}
        try:
            for k, v in data["coeffs"].items():
                # bool is an int subclass, so true would read as 1
                if isinstance(v, bool) or (isinstance(v, (list, tuple)) and
                                           any(isinstance(e, bool) for e in v)):
                    raise AlgebraError("bad Laurent JSON: boolean coefficient "
                                       "%r" % (v,))
                if isinstance(v, str):
                    coeffs[int(k)] = Fraction(v)
                elif isinstance(v, (list, tuple)) and len(v) == 2:
                    coeffs[int(k)] = complex(float(v[0]), float(v[1]))
                elif isinstance(v, (int, float)):
                    coeffs[int(k)] = (Fraction(v) if isinstance(v, int)
                                      else complex(v))
                else:
                    raise AlgebraError("bad Laurent JSON: coefficient entry %r"
                                       % (v,))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise AlgebraError("bad Laurent JSON: %s" % exc) from None
        if not all(cmath.isfinite(c) for c in coeffs.values()
                   if isinstance(c, complex)):
            raise AlgebraError("bad Laurent JSON: non-finite coefficient")
        return cls(coeffs)

    def to_text(self) -> str:
        """Conventional descending rendering, e.g. '7*t^2 - 13*t + 7'."""
        if self.is_zero():
            return "0"
        bits = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            cs = _coeff_text(c)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            if k == 0:
                body = mag
            else:
                tpart = "t" if k == 1 else "t^%d" % k
                body = tpart if mag == "1" else "%s*%s" % (mag, tpart)
            if not bits:
                bits.append("-" + body if neg else body)
            else:
                bits.append(("- " if neg else "+ ") + body)
        return " ".join(bits)

    def __repr__(self) -> str:
        return "LaurentPoly(%s)" % self.to_text()


def _built(coeffs: dict[int, object]) -> LaurentPoly:
    """The polynomial on arithmetic results: int exponents, each coefficient
    a Fraction or a complex, zeros (exact or complex) dropped."""
    out = {k: c for k, c in coeffs.items() if c}
    return LaurentPoly._clean(out, all(type(c) is not complex
                                       for c in out.values()))


def _complex_pair(p: LaurentPoly, q: LaurentPoly) -> tuple[dict, dict]:
    """The coefficients of p and q, one exact and the other not, for a
    pairwise product: the exact ones converted by complex(Fraction) when
    the other polynomial is all-complex, both as they stand when it mixes
    the domains."""
    exact, other = (p, q) if p._exact else (q, p)
    for c in other.coeffs.values():
        if type(c) is not complex:
            return p.coeffs, q.coeffs
    floated = {k: complex(c) for k, c in exact.coeffs.items()}
    return (floated, q.coeffs) if p._exact else (p.coeffs, floated)


def _pow_any(x, k: int):
    """x**k for a number or a polynomial; a negative power of a number is
    exact for rationals and refused for 0."""
    if k >= 0 or not isinstance(x, Number):
        return x ** k
    if x == 0:
        raise AlgebraError("substituting 0 into a negative power")
    return (Fraction(x) if isinstance(x, Rational) else x) ** k


def _binary_power(one, base, n: int):
    """base**n for n >= 0 by square-and-multiply from one (the ring's
    unit), low bit first.  The loop stops at the highest bit, so it forms
    no square it does not use.  LaurentPoly and MultiPoly powers share it."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _coeff_text(c) -> str:
    if _is_exact(c):
        return str(Fraction(c))
    z = complex(c)
    if z.imag == 0:
        return "%.12g" % z.real
    return "(%.12g%+.12gj)" % (z.real, z.imag)


def _sampled_quotient(num: LaurentPoly, den: LaurentPoly,
                      eps: float) -> LaurentPoly | None:
    """num / den by division at the samples, or None if den does not
    divide num to within eps.

    Samples: with N = span(num) + 1 and d = span(den), the N points
    t_j = r w^j, w = e^(2 pi i/N), for the one of the d + 1 rotations
    r = w^(s/(d+1)) whose smallest |den(t_j)| is largest; one inverse DFT
    gives den at all N(d+1) points.  Each root of den spoils at most one
    rotation, so den never vanishes at a sample, even at roots on the unit
    circle.  Quotient: one inverse DFT evaluates num at the samples, and
    one DFT of num(t_j) / den(t_j) gives q_k r^k; q is its low N - d
    outputs.  Certificate: q is accepted when |num - q den|_inf <=
    eps max(|num|_inf, 1).  The top d DFT outputs alone would not do: for
    a root of den far outside the circle they shrink like |root|^-N and
    pass numerators that den does not divide.
    """
    low, dlow = num.min_exp(), den.min_exp()
    n, d = num.max_exp() - low + 1, den.max_exp() - dlow
    m = n * (d + 1)
    b = [complex(den[dlow + k]) for k in range(d + 1)]
    # den at the m-th roots of unity; rotation s holds every (d+1)-th from s
    at = np.fft.ifft(b, m, norm="forward").tolist()
    s = max(range(d + 1), key=lambda s: min(map(abs, at[s::d + 1])))
    rk = [cmath.exp(2j * cmath.pi * s * k / m) for k in range(n)]
    rest = [complex(num[low + k]) for k in range(n)]  # num, then num - q den
    values = np.fft.ifft([c * r for c, r in zip(rest, rk)], norm="forward")
    values = [v / t for v, t in zip(values.tolist(), at[s::d + 1])]
    q = np.fft.fft(values, norm="forward")[:max(n - d, 0)].tolist()
    q = [c / r for c, r in zip(q, rk)]
    for i, c in enumerate(q):
        for j, e in enumerate(b, i):
            rest[j] -= c * e
    if not max(map(abs, rest)) <= eps * max(num.max_abs(), 1.0):
        return None
    return _built({low - dlow + k: c for k, c in enumerate(q)})


# -- exact division, gcd and square-free structure, through Z[t] -------------


def _from_zt(f: list[int], low: int, scale: Fraction) -> LaurentPoly:
    """scale * t^low * f for f in Z[t]."""
    return LaurentPoly._clean(_zt.coefficients(f, low, scale), True)


def squarefree_decomposition(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """Yun decomposition p = unit * prod f_i^i with f_i square-free, coprime.

    Input must be exact and nonzero; the unit t^min_exp and the leading
    rational scale are discarded.  Only nonconstant factors are returned,
    monic at exponent 0, by ascending multiplicity (_zt.squarefree).
    """
    if p.is_zero():
        raise AlgebraError("square-free decomposition of zero")
    if not p.is_exact():
        raise AlgebraError("square-free decomposition requires exact input")
    return [(_from_zt(g, 0, Fraction(1, g[-1])), m)
            for g, m in _zt.squarefree(_zt.split(p.coeffs)[0])]


def has_simple_root(p: LaurentPoly) -> bool:
    """Whether the exact p has at least one root of multiplicity exactly
    one, decided through the square-free decomposition (whether its
    multiplicity-one factor is nonconstant); AlgebraError otherwise."""
    if p.is_zero():
        raise AlgebraError("the zero polynomial has no well-defined roots")
    return any(m == 1 for _, m in squarefree_decomposition(p))


class LaurentRational:
    """A ratio of Laurent polynomials.

    Exact instances are reduced on construction: gcd(num, den) is a unit
    and the denominator is monic with exponent range starting at 0.  The
    reduction runs in Z[t]: with num = t^a f / m and den = t^b g / n, f and
    g in Z[t], and G their gcd, the reduced pair is
    t^(a-b) (f/G) n / (m l) over (g/G) / l, l the leading coefficient of
    g/G.  Floating instances are stored as given; attempt_polynomial
    divides them at the samples (_sampled_quotient).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise AlgebraError("zero denominator")
        if num.is_exact() and den.is_exact() and not num.is_zero():
            f, a, m = _zt.split(num.coeffs)
            g, b, n = _zt.split(den.coeffs)
            common = _zt.gcd(f, g)
            if len(common) > 1:
                f, g = _zt.exact_div(f, common), _zt.exact_div(g, common)
            lead = g[-1]
            num = _from_zt(f, a - b, Fraction(n, m * lead))
            den = _from_zt(g, 0, Fraction(1, lead))
        self.num = num
        self.den = den

    def is_exact(self) -> bool:
        return self.num.is_exact() and self.den.is_exact()

    def attempt_polynomial(self, eps: float = _CLEAN_EPS) -> LaurentPoly | None:
        """The quotient as a Laurent polynomial, or None if division fails."""
        if self.num.is_zero():
            return LaurentPoly.zero()
        if self.is_exact():
            # reduced on construction: den is 1 exactly when it divides num
            return self.num if self.den.degree() == 0 else None
        return _sampled_quotient(self.num, self.den, eps)

    def evaluate(self, x):
        return self.num.evaluate(x) / self.den.evaluate(x)

    def to_json_dict(self) -> dict:
        return {"numerator": self.num.to_json_dict(),
                "denominator": self.den.to_json_dict()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentRational):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self) -> str:
        return "LaurentRational((%s) / (%s))" % (self.num.to_text(), self.den.to_text())
