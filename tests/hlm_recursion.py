"""The HLM trace-polynomial recursion: an independent oracle for the curves.

This is the paper's own derivation of the two curves of irreducible
characters of the pretzel knot P(-3,-3,-3) (9_35).  talex carries the
curves as data (charcurves.curve_components); these tests rebuild them
here from a recursively defined family r_m(y1, y2, v):

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
(y^2 - z - 1)^2 times an irreducible quartic-cubic C'.
"""

from fractions import Fraction
from functools import lru_cache

from talex.errors import AlgebraError
from talex.multipoly import MultiPoly, resultant

RV_VARS = ("y1", "y2", "v")
YZ_VARS = ("y", "z")
YZW_VARS = ("y", "z", "w")

# Sign pattern t_1 .. t_5 entering the trace recursion.
T_SIGNS = (1, -1, 1, -1, 1)


def _mono(var: str) -> MultiPoly:
    return MultiPoly.var(RV_VARS, var)


def _const(c) -> MultiPoly:
    return MultiPoly.constant(RV_VARS, c)


def _swap_y1_y2(p: MultiPoly) -> MultiPoly:
    """p(y2, y1, v): the exponents of y1 and y2 exchanged."""
    return MultiPoly(RV_VARS, {(b, a, g): c
                               for (a, b, g), c in p.terms.items()})


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
    term3 = -(y1_inv * y2 * t) * _swap_y1_y2(hlm_r(m - 3))
    term2 = ((y2 * y2 - _const(2)) + y1_inv * y2 * t * (_const(2) * v - y1 * y2)
             ).scale(half) * hlm_r(m - 2)
    term1 = ((y1 - _const(2) * y1_inv) * y2 * t + _const(2) * v - y1 * y2
             ).scale(half) * _swap_y1_y2(hlm_r(m - 1))
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


def resultant_curve() -> MultiPoly:
    """Res_w of (y1^5 r_6)|_{b=-1} with w^2 - wy + z - 1, over (y, z)."""
    return eliminate_w(slice_b_minus_one(), second_equation())
