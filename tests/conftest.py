"""Shared fixtures and helpers for the talex test suite."""

import math
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest

import talex
from talex._sl2 import _COMPLEX_ID, _EXACT_ID, _mat_adjugate, _mat_mul
from talex.fixtures import fixture_path
from talex.laurent import LaurentPoly, LaurentRational


def P(*coeffs, min_exp=0):
    """Exact Laurent polynomial from ascending coefficients.

    P(7, -13, 7) is 7 - 13t + 7t^2.
    """
    return LaurentPoly({min_exp + k: Fraction(c) for k, c in enumerate(coeffs)})


def CP(*coeffs, min_exp=0):
    """Complex-coefficient Laurent polynomial from ascending coefficients."""
    return LaurentPoly({min_exp + k: complex(c) for k, c in enumerate(coeffs)})


# -- reference Laurent arithmetic ------------------------------------------
# LaurentPoly's arithmetic as plain pairwise loops in which every Fraction
# meets a complex through Fraction's own fallback operators: the reference
# that the paths converting exact coefficients once must match bit for
# bit.  Polynomials are {exponent: coefficient} dicts, as
# LaurentPoly(...).coeffs holds them.


def ref_built(coeffs: dict) -> dict:
    """LaurentPoly.__init__ on arithmetic results: zeros dropped."""
    return {int(k): c for k, c in coeffs.items() if c != 0}


def ref_add(p: dict, q: dict) -> dict:
    coeffs = dict(p)
    for k, c in q.items():
        s = coeffs.get(k, 0) + c
        if s == 0 and isinstance(s, Rational):
            coeffs.pop(k, None)
        else:
            coeffs[k] = s
    return ref_built(coeffs)


def ref_neg(p: dict) -> dict:
    return {k: -c for k, c in p.items()}


def ref_mul(p: dict, q: dict) -> dict:
    coeffs: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            coeffs[k] = coeffs.get(k, 0) + c1 * c2
    return ref_built(coeffs)


def ref_pow(p: dict, n: int) -> dict:
    if n and len(p) == 1:
        (k, c), = p.items()
        return ref_built({k * n: c ** n})
    out, base = {0: Fraction(1)}, p
    while n:
        if n & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        n >>= 1
    return out


def square_and_multiply(one, p, n: int):
    """p**n for n = 0..6 as the products square-and-multiply forms from
    the unit one, written out: no square beyond the highest bit of n."""
    p2 = p * p
    p4 = p2 * p2
    return {0: one, 1: one * p, 2: one * p2, 3: (one * p) * p2,
            4: one * p4, 5: (one * p) * p4, 6: (one * p2) * p4}[n]


def ref_evaluate(p: dict, x):
    exact = all(isinstance(c, Fraction) for c in p.values())
    total = Fraction(0) if exact and isinstance(x, Rational) else 0j
    for k, c in p.items():
        total = total + c * x ** k
    return total


def same_number(a, b) -> bool:
    """a and b of one type and, for floats, bit for bit (signed zeros)."""
    if type(a) is not type(b):
        return False
    if not isinstance(a, complex):
        return a == b
    return all(math.copysign(1.0, u) == math.copysign(1.0, v) and u == v
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


def reference_image(rho, w):
    """rho(w) by one _mat_mul per letter, from the identity, with the
    adjugate for an inverse letter."""
    out = _EXACT_ID if rho.is_exact() else _COMPLEX_ID
    for x in w.tietze:
        m = rho.matrices[abs(x) - 1]
        out = _mat_mul(out, m if x > 0 else _mat_adjugate(m))
    return out


def same_coefficients(p: LaurentPoly, ref: dict) -> bool:
    """The keys of p in ref's order, each coefficient same_number."""
    return (list(p.coeffs) == list(ref)
            and all(same_number(p.coeffs[k], ref[k]) for k in ref))


def load_fixture_text(name):
    with open(fixture_path(name)) as fh:
        return fh.read()


def normalized(p):
    """Shift a Laurent polynomial so its lowest exponent is zero."""
    return p.shift(-p.min_exp()) if not p.is_zero() else p


def torus_pd(n):
    """PD code of T(2, n): X[2k+1, 2k+1+n, 2k+2, 2k+2+n], edges mod 2n."""
    def edge(e):
        return (e - 1) % (2 * n) + 1
    return [(edge(2 * k + 1), edge(2 * k + 1 + n), edge(2 * k + 2),
             edge(2 * k + 2 + n)) for k in range(n)]


def torus_seifert(n):
    """Seifert matrix of T(2, n): -I plus ones on the superdiagonal."""
    return [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(n - 1)]
            for i in range(n - 1)]


def block_sum(a, b):
    """V1 (+) V2, a Seifert matrix of the connected sum."""
    return ([row + [0] * len(b) for row in a]
            + [[0] * len(a) + row for row in b])


def equal_up_to_even_shift(a: LaurentRational, b: LaurentRational) -> bool:
    """Equality of rational functions up to multiplication by t^{2i}."""
    lhs = a.num * b.den
    rhs = b.num * a.den
    if lhs.is_zero() or rhs.is_zero():
        return lhs.is_zero() and rhs.is_zero()
    offset = lhs.min_exp() - rhs.min_exp()
    return offset % 2 == 0 and lhs.shift(-offset) == rhs


def random_det1_matrix(rng):
    """A random complex 2x2 matrix normalized to determinant one, as the
    flat list (m00, m01, m10, m11)."""
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(d) > 1e-3:
            return [complex(e) for e in (m / np.sqrt(d)).ravel()]


def random_word(rng, num_gens, max_len):
    letters = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        g = int(rng.integers(1, num_gens + 1))
        letters.append(g if rng.random() < 0.5 else -g)
    return talex.FreeWord(letters)


@pytest.fixture(scope="session")
def trefoil():
    return talex.parse_presentation(load_fixture_text("3_1.pres"))


@pytest.fixture(scope="session")
def p935():
    return talex.parse_presentation(load_fixture_text("9_35.pres"))


@pytest.fixture(scope="session")
def p820():
    return talex.pd_to_wirtinger(talex.parse_pd(load_fixture_text("8_20.pd")))


@pytest.fixture(scope="session")
def trefoil_irr(trefoil):
    """One solved irreducible trefoil representation (trace slice tr(ab)=1)."""
    cons = {trefoil.word("a"): 2.1 + 0j, trefoil.word("b"): 2.1 + 0j,
            trefoil.word("ab"): 1.0 + 0j}
    return talex.solve_representation(trefoil, cons, seed=0)


@pytest.fixture(scope="session")
def p935_curve_rep():
    """One solved 9_35 representation on the curve component y^2 = z + 1."""
    from talex import charcurves
    return charcurves.solve_on_curve(2.5, 2.5 ** 2 - 1.0)


TREFOIL_V = [[-1, 1], [0, -1]]
