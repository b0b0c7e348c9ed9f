"""Exact univariate arithmetic in Z[t], the integer kernel of the exact
paths.

A polynomial is a dense list of Python ints, constant term first, with no
zero at the top; the zero polynomial is [].  An exact Laurent polynomial
sum c_k t^k over Q enters through split, as t^low f(t) / den with f in
Z[t], f(0) != 0 and den the lcm of the coefficient denominators, and
leaves through coefficients, one Fraction per nonzero coefficient.

Division, gcd and the square-free decomposition run on integers only.
By Gauss's lemma a primitive d divides f in Q[t] exactly when it divides
f in Z[t], so quotient decides exact division over Q by trial division
with integer remainders.  pseudo_remainder is remainder-only: |lead b|^k a
mod b, a positive multiple of the remainder over Q (the sign the Sturm
chains of roots need), each step touching only deg b + 1 coefficients.
gcd is the primitive pseudo-remainder sequence: each pseudo-remainder is
replaced by its primitive part, so the coefficients stay as small as the
gcd's own.  squarefree is Yun's algorithm, the package's one square-free
decomposition; every divisor in it is a primitive gcd, so each of its
divisions is exact.  bareiss is the package's one fraction-free
determinant elimination, over square matrices of such lists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonPolynomialError


def split(coeffs: dict[int, Fraction]) -> tuple[list[int], int, int]:
    """(f, low, den) with sum c_k t^k = t^low f(t) / den, f(0) != 0 and den
    the lcm of the denominators; ([], 0, 1) for the zero polynomial."""
    if not coeffs:
        return [], 0, 1
    low = min(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return cleared(coeffs, low, den), low, den


def cleared(coeffs: dict[int, Fraction], low: int, den: int) -> list[int]:
    """den * t^-low * sum c_k t^k, for den a multiple of every denominator
    and low at most every exponent."""
    if not coeffs:
        return []
    out = [0] * (max(coeffs) - low + 1)
    for k, c in coeffs.items():
        out[k - low] = c.numerator * (den // c.denominator)
    return out


def coefficients(f: list[int], low: int, scale: Fraction
                 ) -> dict[int, Fraction]:
    """The coefficients of scale * t^low * f, zeros left out."""
    num, den = scale.numerator, scale.denominator
    return {low + k: Fraction(c * num, den) for k, c in enumerate(f) if c}


def primitive(f: list[int]) -> tuple[int, list[int]]:
    """(content, primitive part), the content positive; (1, []) for 0."""
    g = math.gcd(*f) if f else 1
    return g, (f if g == 1 else [c // g for c in f])


def mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return out


def derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def sub(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p = p + [0] * (len(q) - len(p))
    out = [a - b for a, b in zip(p, q)] + p[len(q):]
    while out and not out[-1]:
        out.pop()
    return out


def quotient(num: list[int], den: list[int]) -> list[int] | None:
    """num / den when den divides num in Z[t], else None; den != []."""
    if den == [1] or not num:
        return num
    deg = len(den) - 1
    lead = den[-1]
    rem = list(num)
    quot = [0] * max(len(num) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + deg], lead)
        if r:
            return None
        if c:
            quot[i] = c
            for j in range(deg):
                rem[i + j] -= c * den[j]
    return None if any(rem[:deg]) else quot


def exact_div(num: list[int], den: list[int]) -> list[int]:
    """num / den in Z[t]; NonPolynomialError unless the quotient is exact."""
    quot = quotient(num, den)
    if quot is None:
        raise NonPolynomialError("inexact division in Z[t] (degree %d by %d)"
                                 % (len(num) - 1, len(den) - 1))
    return quot


def bareiss(m: list[list[list[int]]]) -> tuple[list[int], int]:
    """(last pivot, sign) of fraction-free Bareiss elimination (Bareiss
    1968) with first-nonzero row pivoting on a square matrix m over Z[t],
    eliminated in place: det m = sign * last pivot, ([], 1) when m is
    singular and ([1], 1) when it is empty.  Every division is exact."""
    n = len(m)
    # Bareiss step k turns a row with a zero in column k into itself times
    # pivot_k / pivot_(k-1).  Those factors telescope, so such a row is left
    # alone: its next update divides by base[i], the pivot it last saw, and
    # on becoming the pivot row it is first brought up to date.
    prev = [1]
    base = [prev] * n
    sign = 1
    for k in range(n):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return [], 1
            m[k], m[pivot] = m[pivot], m[k]
            base[k], base[pivot] = base[pivot], base[k]
            sign = -sign
        top = m[k]
        if base[k] is not prev:
            top[k:] = [exact_div(mul(x, prev), base[k]) for x in top[k:]]
        piv = top[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            if not a:
                continue
            for j in range(k + 1, n):
                x, b = row[j], top[j]
                if b:
                    num = sub(mul(x, piv), mul(a, b))
                elif x:
                    num = mul(x, piv)
                else:
                    continue
                row[j] = exact_div(num, base[i])
            row[k] = []
            base[i] = piv
        prev = piv
    return prev, sign


def pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """r with |lead b|^k a = q b + r for some q in Z[t] and deg r < deg b,
    where k = max(deg a - deg b + 1, 0); b != [].  r is a positive multiple
    of the remainder of a by b over Q; q is not formed."""
    n = len(b) - 1
    k = max(len(a) - n, 0)
    lead = b[-1]
    mult, low = abs(lead), b[:n]
    # r: the coefficients of t^(i+1) .. t^(i+n) after the steps above i, at
    # |lead|^steps; a lower one, untouched so far, is scaled as it enters.
    r, scale = a[k:], 1
    for i in range(k - 1, -1, -1):
        r = [a[i] * scale] + r
        top = r[n] if lead > 0 else -r[n]
        r = [mult * x - top * y for x, y in zip(r, low)]
        scale *= mult
    while r and r[-1] == 0:
        r.pop()
    return r


def gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of a and b in Z[t], by the primitive pseudo-remainder
    sequence; [] when both are 0."""
    a, b = primitive(a)[1], primitive(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))[1]
    return a


def squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's decomposition f = c prod g^m of a nonzero f in Z[t], c a
    constant: the nonconstant g, square-free and pairwise coprime, each
    primitive with a positive leading coefficient, by ascending m."""
    df = derivative(f)
    a = gcd(f, df)
    # With f = prod g_m^m, w = prod g_m and y - w' = sum (m - 1) g_m' w / g_m,
    # so gcd(w, y - w') = g_1; dividing w and y - w' by it lowers every m.
    w, y = exact_div(f, a), exact_div(df, a)
    out = []
    m = 1
    while len(w) > 1:
        z = sub(y, derivative(w))
        g = gcd(w, z)
        if len(g) > 1:
            out.append((g if g[-1] > 0 else [-c for c in g], m))
        w, y = exact_div(w, g), exact_div(z, g)
        m += 1
    return out
