"""Sparse univariate Laurent polynomials over Q or C.

Coefficients live in one of two domains: exact rationals
(fractions.Fraction, into which ints are coerced) or complex floats.
A polynomial is "exact" when every coefficient is a Fraction; mixing an
exact polynomial with a complex one silently promotes to the complex
domain.  Exact zeros are dropped on construction; floating coefficients
are only pruned by an explicit cleanup(eps), which drops entries whose
magnitude is at most eps times the largest magnitude present.

The zero polynomial has empty support.  degree() is the span from lowest
to highest exponent, the natural degree notion for quantities defined up
to units t^k.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .errors import AlgebraError, NonPolynomialError

DEFAULT_CLEAN_EPS = 1e-10


def _is_exact(c) -> bool:
    return isinstance(c, Rational)


def _coerce(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, Rational) or isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (float, complex)):
        return complex(c)
    raise TypeError("unsupported coefficient type %r" % type(c))


class LaurentPoly:
    """A Laurent polynomial sum c_k t^k, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, object] | None = None):
        clean: dict[int, object] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _coerce(c)
                if c != 0:
                    clean[int(k)] = c
        self.coeffs = clean

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
        return all(_is_exact(c) for c in self.coeffs.values())

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

    def trailing(self):
        return self.coeffs[self.min_exp()]

    def __getitem__(self, k: int):
        c = self.coeffs.get(k, 0)
        return c if c else (Fraction(0) if self.is_exact() else 0j)

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def cleanup(self, eps: float = DEFAULT_CLEAN_EPS) -> "LaurentPoly":
        """Drop coefficients of relative magnitude <= eps (floating domain).

        Exact polynomials are returned unchanged: exact zeros never appear.
        """
        if self.is_exact() or not self.coeffs:
            return self
        cut = eps * self.max_abs()
        return LaurentPoly({k: c for k, c in self.coeffs.items()
                            if abs(complex(c)) > cut})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._as_poly(other)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = coeffs.get(k, 0) + c
            if s == 0 and _is_exact(s):
                coeffs.pop(k, None)
            else:
                coeffs[k] = s
        return LaurentPoly(coeffs)

    def __radd__(self, other) -> "LaurentPoly":
        return self + other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._as_poly(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._as_poly(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._as_poly(other)
        coeffs: dict[int, object] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                coeffs[k] = coeffs.get(k, 0) + c1 * c2
        return LaurentPoly(coeffs)

    def __rmul__(self, other) -> "LaurentPoly":
        return self * other

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise AlgebraError("negative power of a Laurent polynomial")
        out, base = LaurentPoly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

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
            other = LaurentPoly.constant(other)
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    def __hash__(self):
        return hash(frozenset((k, complex(c)) for k, c in self.coeffs.items()))

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, x):
        """Value at x; exact when both the polynomial and x are exact."""
        total = Fraction(0) if (self.is_exact() and _is_exact(_coerce(x))) else 0j
        for k, c in self.coeffs.items():
            total = total + c * _pow_any(x, k)
        return total

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({k - 1: k * c for k, c in self.coeffs.items() if k != 0})

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

    def reversed_variable(self) -> "LaurentPoly":
        """t -> 1/t."""
        return LaurentPoly({-k: c for k, c in self.coeffs.items()})

    # -- division ----------------------------------------------------------

    def divmod_poly(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Quotient and remainder with deg(rem as ordinary poly) < deg(other).

        Both operands are shifted to ordinary polynomials first; the result
        is shifted back, so this is division in the Laurent ring (remainders
        carry the dividend's unit).  Exactness follows the coefficients.
        """
        if other.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(), LaurentPoly.zero()
        sh_n, sh_d = self.min_exp(), other.min_exp()
        num = _dense(self.shift(-sh_n))
        den = _dense(other.shift(-sh_d))
        q, r = _dense_divmod(num, den)
        quot = LaurentPoly.from_coefficients(q).shift(sh_n - sh_d)
        rem = LaurentPoly.from_coefficients(r).shift(sh_n)
        return quot, rem

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact division; raises if the division leaves a nonzero remainder.

        Floating operands are divided synthetically and the remainder is
        required to vanish to relative tolerance DEFAULT_CLEAN_EPS.
        """
        other = self._as_poly(other)
        q, r = self.divmod_poly(other)
        if r.is_zero():
            return q
        if not (self.is_exact() and other.is_exact()):
            if r.max_abs() <= DEFAULT_CLEAN_EPS * max(self.max_abs(), 1.0):
                return q
        raise NonPolynomialError("inexact Laurent division (remainder %r)" % r)

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
        if "coeffs" not in data or not isinstance(data["coeffs"], dict):
            raise AlgebraError("Laurent JSON needs a 'coeffs' mapping")
        coeffs: dict[int, object] = {}
        for k, v in data["coeffs"].items():
            if isinstance(v, str):
                coeffs[int(k)] = Fraction(v)
            elif isinstance(v, (list, tuple)) and len(v) == 2:
                coeffs[int(k)] = complex(float(v[0]), float(v[1]))
            elif isinstance(v, (int, float)):
                coeffs[int(k)] = Fraction(v) if isinstance(v, int) else complex(v)
            else:
                raise AlgebraError("bad coefficient entry %r" % (v,))
        return cls(coeffs)

    def to_text(self, var: str = "t") -> str:
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
                tpart = var if k == 1 else "%s^%d" % (var, k)
                body = tpart if mag == "1" else "%s*%s" % (mag, tpart)
            if not bits:
                bits.append("-" + body if neg else body)
            else:
                bits.append(("- " if neg else "+ ") + body)
        return " ".join(bits)

    def __repr__(self) -> str:
        return "LaurentPoly(%s)" % self.to_text()


def _pow_any(x, k: int):
    if k >= 0:
        return x ** k
    return (Fraction(1) if _is_exact(_coerce(x)) else 1.0) / (x ** (-k))


def _coeff_text(c) -> str:
    if _is_exact(c):
        return str(Fraction(c))
    z = complex(c)
    if z.imag == 0:
        return "%.12g" % z.real
    return "(%.12g%+.12gj)" % (z.real, z.imag)


def _dense(p: LaurentPoly) -> list:
    n = p.max_exp()
    assert p.min_exp() >= 0
    exact = p.is_exact()
    zero = Fraction(0) if exact else 0j
    out = [zero] * (n + 1)
    for k, c in p.coeffs.items():
        out[k] = c
    return out


def _dense_divmod(num: list, den: list) -> tuple[list, list]:
    while den and den[-1] == 0:
        den = den[:-1]
    assert den, "zero divisor"
    lead = den[-1]
    rem = list(num)
    qlen = max(len(num) - len(den) + 1, 0)
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + len(den) - 1] / lead
        quot[i] = c
        if c != 0:
            for j, d in enumerate(den):
                rem[i + j] = rem[i + j] - c * d
    return quot, rem[:len(den) - 1]


# -- exact univariate gcd and square-free structure --------------------------


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic gcd over Q of the ordinary-polynomial parts (units discarded).

    Both inputs must be exact.  gcd(p, 0) is p made monic at exponent 0.
    """
    if not (p.is_exact() and q.is_exact()):
        raise AlgebraError("gcd requires exact coefficients")

    def normal(x: LaurentPoly) -> LaurentPoly:
        if x.is_zero():
            return x
        x = x.shift(-x.min_exp())
        return x.scale(Fraction(1) / Fraction(x.leading()))

    a, b = normal(p), normal(q)
    while not b.is_zero():
        _, r = a.divmod_poly(b)
        a, b = b, normal(r)
    return a


def squarefree_decomposition(p: LaurentPoly) -> list[tuple[LaurentPoly, int]]:
    """Yun decomposition p = unit * prod f_i^i with f_i square-free, coprime.

    Input must be exact and nonzero; the unit t^min_exp and the leading
    rational scale are discarded.  Only nonconstant factors are returned.
    """
    if p.is_zero():
        raise AlgebraError("square-free decomposition of zero")
    if not p.is_exact():
        raise AlgebraError("square-free decomposition requires exact input")
    p = p.shift(-p.min_exp()).scale(Fraction(1) / Fraction(p.leading()))
    if p.degree() == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    w = p / g
    y = dp / g
    out = []
    i = 1
    while w.degree() > 0:
        z = y - w.derivative()
        f = poly_gcd(w, z)
        if f.degree() > 0:
            out.append((f, i))
        w = w / f
        y = z / f
        i += 1
    return out


def has_simple_root(p: LaurentPoly, cluster_radius: float = 1e-8) -> bool:
    """Whether p has at least one root of multiplicity exactly one.

    Exact inputs are decided exactly through the square-free decomposition
    (the answer is whether the multiplicity-one factor is nonconstant).
    Floating inputs fall back on clustered numerical roots, reliable only
    down to the clustering radius.
    """
    if p.is_zero():
        raise AlgebraError("the zero polynomial has no well-defined roots")
    if p.is_exact():
        return any(m == 1 for _, m in squarefree_decomposition(p))
    from .roots import complex_roots
    return any(m == 1 for _, m in complex_roots(p, cluster_radius=cluster_radius))


class LaurentRational:
    """A ratio of Laurent polynomials.

    Exact instances are reduced on construction: gcd(num, den) is a unit
    and the denominator is monic with exponent range starting at 0.
    Floating instances are stored as given; attempt_polynomial tries the
    division at a stated tolerance.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, reduce: bool = True):
        if den.is_zero():
            raise AlgebraError("zero denominator")
        if reduce and num.is_exact() and den.is_exact() and not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num / g
                den = den / g
            sh = den.min_exp()
            lc = Fraction(den.leading())
            den = den.shift(-sh).scale(1 / lc)
            num = num.shift(-sh).scale(1 / lc)
        self.num = num
        self.den = den

    def is_exact(self) -> bool:
        return self.num.is_exact() and self.den.is_exact()

    def is_polynomial(self, eps: float = DEFAULT_CLEAN_EPS) -> bool:
        return self.attempt_polynomial(eps) is not None

    def attempt_polynomial(self, eps: float = DEFAULT_CLEAN_EPS) -> LaurentPoly | None:
        """The quotient as a Laurent polynomial, or None if division fails."""
        if self.num.is_zero():
            return LaurentPoly.zero()
        q, r = self.num.divmod_poly(self.den)
        if r.is_zero():
            return q
        if not self.is_exact() and r.max_abs() <= eps * max(self.num.max_abs(), 1.0):
            return q
        return None

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
