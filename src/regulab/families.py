"""The four polynomial families P, S, Q and R, one record each.

The identities regulab checks link S to P and Q to R through their
curves, cycle integrals and regulators.  A ``Family`` holds what regulab
knows of one family as functions of its parameter (alpha; beta for R):
the polynomial, its Weierstrass curve and the coordinate maps to and from
it, the generators of its point group, and its real cycle integral in
closed form (one Carlson R_F, ``elliptic.complete_integral``).  P and S
share the Deuring curve, Q and R the quartic twist.  A new family is one
record here plus one divisor catalog in ``divisors``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .elliptic import (
    CurvePoint,
    complete_integral,
    deuring_curve,
    quartic_twist_curve,
)
from .numerics import DegenerateInputError


@dataclass(frozen=True)
class Family:
    """One family; each callable takes the parameter first.

    ``rows(param)`` lists the ascending x-coefficients of y^0, y^1 and y^2.
    ``c_factors(param)`` is (K factors, |A|^2 factors) for the polynomial
    A y^2 + B y + C: on |x| = 1, K = |B|^2 - 4|A|^2 and |A|^2 are polynomials
    in c = cos theta, each the product of its closed-form factors of degree
    <= 2.  A factor f is (f(-1), f(1), a), a its c^2 coefficient, so f(c) =
    f(-1) (1-c)/2 + f(1) (1+c)/2 + a (c^2 - 1); no end value cancels, so
    a root near c = -1 or 1 keeps its distance from it (``mahler``'s kinks).
    ``curve(param)`` is the Weierstrass target and raises
    DegenerateInputError at a singular member.  ``to_curve(param, x, y)``
    maps an affine zero of the polynomial to a point of the curve, and
    ``from_curve(param, pt)`` inverts it (fixing one square-root branch
    where the quotient map is 2:1, so x may come back as 1/x).
    ``points(param)`` gives the points of ``generators`` in order, and
    ``orders`` the torsion relations (name, order) among them.
    ``cycle(param)`` is (limits, value) of the real cycle integral, whose
    integrand ``FAMILIES`` notes; it raises DegenerateInputError outside
    the family's regimes.
    """

    name: str
    rows: Callable
    c_factors: Callable
    curve: Callable
    to_curve: Callable
    from_curve: Callable
    generators: tuple
    orders: tuple
    points: Callable
    cycle: Callable


def family(name: str) -> Family:
    """The record of ``name``, in either case; DegenerateInputError for an unknown name."""
    try:
        return FAMILIES[name.upper()]
    except KeyError:
        raise DegenerateInputError(f"unknown family {name!r}") from None


# ---------------------------------------------------------------------------
# curves and coordinate maps
# ---------------------------------------------------------------------------


def _deuring(alpha):
    if alpha * (alpha + 1) * (alpha - 8) == 0:
        raise DegenerateInputError(f"singular member at alpha={alpha}")
    return deuring_curve(alpha)


def _twist(alpha):
    if alpha * (alpha * alpha - 9) == 0:
        raise DegenerateInputError(f"singular quartic twist at alpha={alpha}")
    return quartic_twist_curve(alpha)


def _sqrt_generic(z):
    if isinstance(z, complex):
        return cmath.sqrt(z)
    if isinstance(z, Fraction):
        num, den = z.numerator, z.denominator
        if num >= 0:
            rn, rd = math.isqrt(num), math.isqrt(den)
            if rn * rn == num and rd * rd == den:
                return Fraction(rn, rd)
        return cmath.sqrt(float(z))
    if z >= 0:
        return math.sqrt(z)
    return cmath.sqrt(complex(z))


def _p_to_curve(a, x, y):
    den = x + y - a
    return CurvePoint(a * (x + y + 1) / den, a * (-a * x + y + 1) / den)


def _p_from_curve(a, pt: CurvePoint):
    X, Y = pt.x, pt.y
    return ((X - Y) / (X - a), (Y + (a - 1) * X + a) / (X - a))


def _s_to_curve(a, x1, y1):
    X1 = (x1 + 1) / (x1 - 1)
    Y1 = 4 * (y1 * y1 - x1**4) / (y1 * (x1 - 1) ** 3 * (x1 + 1))
    Z1 = X1 * X1
    X = ((a * a + a) * Z1 - (a * a - 3 * a)) / 4
    Y = a * ((a + 1) * Y1 + (-a * a + a + 2) * Z1 + (a * a - 5 * a + 2)) / 8
    return CurvePoint(X, Y)


def _s_from_curve(a, pt: CurvePoint):
    X, Y = pt.x, pt.y
    Z1 = (4 * X + a * a - 3 * a) / (a * a + a)
    Y1 = 4 * (2 * Y + (a - 2) * X + a) / (a * a + a)
    X1 = _sqrt_generic(Z1)
    x1 = (X1 + 1) / (X1 - 1)
    y1 = (2 * X1 * Y1 - (2 * a + 1) * X1**4 + (2 * a - 6) * X1 * X1 - 1) / (X1 - 1) ** 4
    return (x1, y1)


def _q_to_curve(a, x2, y2):
    X2 = (x2 + 1) / (x2 - 1)
    Y2 = 4 * (2 * (x2 * x2 + x2 + 1) * y2 + a * x2 * (x2 + 1)) / (x2 - 1) ** 3
    Z2 = X2 * X2
    return CurvePoint((a * a - 9) * (Z2 - 1), (a * a - 9) * Y2)


def _q_from_curve(a, pt: CurvePoint):
    Z, W = pt.x, pt.y
    Z2 = Z / (a * a - 9) + 1
    Y2 = W / (a * a - 9)
    X2 = _sqrt_generic(Z2)
    x2 = (X2 + 1) / (X2 - 1)
    y2 = (Y2 - a * X2 * (X2 * X2 - 1)) / ((X2 - 1) * (3 * X2 * X2 + 1))
    return (x2, y2)


def _r_to_curve(b, x3, y3):
    X3 = (x3 + 1) / (x3 - 1)
    Y3 = (
        4
        * (2 * (x3 * x3 + x3 + 1) * y3 + x3**4 + b * x3**3 + (2 * b - 4) * x3 * x3 + b * x3 + 1)
        / ((x3 - 1) ** 3 * (x3 + 1))
    )
    Z3 = X3 * X3
    return CurvePoint((b * b - b - 2) * Z3 - (b * b - 5 * b - 6), (b * b - b - 2) * Y3)


def _r_from_curve(b, pt: CurvePoint):
    Z, W = pt.x, pt.y
    Z3 = (Z + (b * b - 5 * b - 6)) / (b * b - b - 2)
    Y3 = W / (b * b - b - 2)
    X3 = _sqrt_generic(Z3)
    x3 = (X3 + 1) / (X3 - 1)
    y3 = (2 * X3 * Y3 - (2 * b - 1) * X3**4 + (2 * b - 10) * X3 * X3 + 1) / (
        (X3 - 1) ** 2 * (3 * X3 * X3 + 1)
    )
    return (x3, y3)


# ---------------------------------------------------------------------------
# generator points
# ---------------------------------------------------------------------------


def _s_points(a):
    du = cmath.sqrt(complex(a * a - 16 * a + 32))
    dv = cmath.sqrt(complex(a * a - 10 * a + 9))
    return (
        CurvePoint(a, a),
        CurvePoint(a * (-a + du) / 8, a * a * (a - 8 - du) / 16),
        CurvePoint((-a * a + 4 * a - 3 + (a + 1) * dv) / 8,
                   (a**3 - 7 * a * a - a - 9 - (a * a - 2 * a - 3) * dv) / 16),
    )


def _q_points(a):
    return (
        CurvePoint(0.0, 0.0),
        CurvePoint(4 * a + 12, a * (4 * a + 12)),
        CurvePoint(-4 * (a * a - 9) / 3, 4j * (a - 3) * a * (a + 3) / (3 * math.sqrt(3))),
    )


def _r_points(b):
    # A's X is the root (-lin + sqrt(disc))/2 of X^2 + lin X - 16 (b-5)(b+1);
    # where lin > 0 the two terms cancel, so it is the product over the other root
    lin = b * b - 4 * b - 20
    disc = b**4 - 8 * b**3 + 40 * b * b - 96 * b + 80  # (b-2)^2 (b^2-4b+20)
    if lin <= 0:
        x_a = (-lin + cmath.sqrt(complex(disc))) / 2
    else:
        x_a = 32 * (b - 5) * (b + 1) / (lin + cmath.sqrt(complex(disc)))
    return (
        CurvePoint(0.0, 0.0),
        CurvePoint(x_a, 0.0),
        CurvePoint(4 * (b + 1), 4 * (b - 2) * (b + 1)),
        CurvePoint(-4 * (b - 5) * (b + 1) / 3,
                   4j * (b - 5) * (b - 2) * (b + 1) / (3 * math.sqrt(3))),
    )


# ---------------------------------------------------------------------------
# cycle integrals, each over linear factors (a, b) = a + b w.  Where a root
# lies close to a limit outside the cycle, w is measured from that limit and
# a holds the factor's value there, computed without cancellation.
# ---------------------------------------------------------------------------


def _p_cycle(alpha: float):
    if 0.0 < alpha < 8.0:
        # (alpha-4t)^2 - 16t = 16 (t_lo - t)(t_hi - t); t_hi - t_lo = s
        s = math.sqrt(alpha + 1.0)
        t_lo = alpha * alpha / (4.0 * (alpha + 2.0 + 2.0 * s))
        one_m = (8.0 - alpha) * (s + 1.0) / (4.0 * (s + 3.0))  # 1 - t_lo
        factors = ((t_lo, -1.0), (one_m, 1.0), (0.0, 16.0), (s, 1.0))  # w = t_lo - t
        return (0.0, t_lo), complete_integral(factors, 0.0, t_lo)
    if alpha < -1.0:
        # the quadratic is 16 (t - r)(t - conj r)
        r = complex((alpha + 2.0) / 4.0, math.sqrt(-1.0 - alpha) / 2.0)
        factors = ((0.0, 1.0), (1.0, -1.0), (-16.0 * r, 16.0), (-r.conjugate(), 1.0))
        return (0.0, 1.0), complete_integral(factors, 0.0, 1.0)
    raise DegenerateInputError(f"family P undefined at alpha={alpha}")


def _s_cycle(alpha: float):
    if 0.0 < alpha < 8.0:
        # w = t - lo on (lo, 1), lo = 1 - alpha/2; the quadratic is 2 (t - r)(t - conj r)
        lo_m_r = complex((4.0 - alpha) / 4.0, -math.sqrt(alpha * (8.0 - alpha)) / 4.0)
        factors = ((0.0, 2.0), (alpha / 2.0, -1.0), (2.0 * lo_m_r, 2.0), (lo_m_r.conjugate(), 1.0))
        return ((2.0 - alpha) / 2.0, 1.0), complete_integral(factors, 0.0, alpha / 2.0)
    if alpha < -1.0:
        # w = 1 - t on (r_lo, 1), r_lo < r_hi the roots of 2t^2 + alpha t + alpha
        disc = math.sqrt(alpha * alpha - 8.0 * alpha)
        r_lo = 2.0 * alpha / (disc - alpha)
        gap = -4.0 * (alpha + 1.0) / (alpha + 4.0 + disc)  # r_hi - 1
        factors = ((0.0, 1.0), (-alpha, 2.0), (2.0 * gap, 2.0), (1.0 - r_lo, -1.0))
        return (r_lo, 1.0), complete_integral(factors, 0.0, 1.0 - r_lo)
    raise DegenerateInputError(f"family S undefined at alpha={alpha}")


def _q_cycle(alpha: float):
    if not alpha >= 4.0:
        raise DegenerateInputError(f"family Q undefined at alpha={alpha}")
    # alpha^2 t - (4t-1)^2 = 16 (t - t_lo)(t_hi - t), t_lo t_hi = 1/16
    t_hi = (8.0 + alpha * alpha + alpha * math.sqrt(alpha * alpha + 16.0)) / 32.0
    t_lo = 1.0 / (16.0 * t_hi)
    return (t_lo, 1.0), complete_integral(((1.0, -1.0), (-16.0 * t_lo, 16.0), (t_hi, -1.0)),
                                          t_lo, 1.0)


def _r_cycle(beta: float):
    if not beta >= 6.0:
        raise DegenerateInputError(f"family R undefined at beta={beta}")
    # the quadratic is 2 (t - s0)(t - s_m), s0 s_m = (beta - 2)/2
    s_m = -(beta + 2.0 + math.sqrt(beta * beta - 4.0 * beta + 20.0)) / 4.0
    s0 = (beta - 2.0) / (2.0 * s_m)
    factors = ((1.0, -1.0), (beta - 4.0, 2.0), (-2.0 * s0, 2.0), (-s_m, 1.0))
    return (s0, 1.0), complete_integral(factors, s0, 1.0)


def _q_factors(alpha):
    # K = 2 alpha^2 (c+1) - 4(2c+1)^2 = -4 (2c+1-d_hi)(2c+1-d_lo), d_hi d_lo = -alpha^2/4.
    # Near alpha = 0 both roots and the double root of |A|^2 = (2c+1)^2 lie near
    # c = -1/2; as linear factors they keep their distances there.  The root
    # nears c = 1 at |alpha| = 3, where 3 - d_hi = 8 (9 - alpha^2)/(24 - alpha^2 + |alpha| s).
    a = abs(alpha)
    s = _sqrt_generic(a * a + 16)
    d_hi, d_lo = a * (a + s) / 8, -2 * a / (a + s)
    three_m = 8 * (3 - a) * (3 + a) / (24 - a * a + a * s) if a * a < 24 else 3 - d_hi
    return ((-4, -4, 0), (-1 - d_hi, three_m, 0), (-1 - d_lo, 3 - d_lo, 0)), ((-1, 3, 0),) * 2


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

FAMILIES = {f.name: f for f in (
    Family("P", lambda a: [[0, 1, 1], [1, 2 - a, 1], [1, 1]],
           # K = 4c^2 - 4 alpha c + alpha^2 - 4 alpha - 4, |A|^2 = 2(c+1)
           lambda a: (((a * a, a * (a - 8), 4),), ((0, 4, 0),)),
           _deuring, _p_to_curve, _p_from_curve,
           ("P",), (("P", 6),), lambda a: (CurvePoint(a, a),),
           _p_cycle),  # 1/sqrt(t(1-t)((alpha-4t)^2-16t)) for 0<alpha<8 and alpha<-1
    Family("S", lambda a: [[0, 0, 0, 0, 1], [1, a, 2 * a, a, 1], [1]],
           # K = 4(c+1)(2c+alpha-2)(2c^2+alpha c+alpha), |A|^2 = 1
           lambda a: (((4, 4, 0), (0, 2, 0), (a - 4, a, 0), (2, 2 * (a + 1), 2)), ()),
           _deuring, _s_to_curve, _s_from_curve,
           ("P", "U", "V"), (("P", 6),), _s_points,
           _s_cycle),  # 1/sqrt((1-t)(2t+alpha-2)(2t^2+alpha*t+alpha)), the same regimes
    Family("Q", lambda a: [[0, 1, 1, 1], [0, a, a], [1, 1, 1]],
           _q_factors,  # K = 2 alpha^2 (c+1) - 4(2c+1)^2, |A|^2 = (2c+1)^2
           _twist, _q_to_curve, _q_from_curve,
           ("P", "S", "T"), (("P", 2),), _q_points,
           _q_cycle),  # 1/sqrt((1-t)(alpha^2*t-(4t-1)^2)) for alpha>=4
    # R at beta lies on the quartic twist at alpha = beta - 2
    Family("R", lambda b: [[0, 0, 1, 1, 1], [1, b, 2 * b - 4, b, 1], [1, 1, 1]],
           # K = 4(c+1)(2c+beta-4)(2c^2+(beta+2)c+beta-2), |A|^2 = (2c+1)^2
           lambda b: (((4, 4, 0), (0, 2, 0), (b - 6, b - 2, 0), (-2, 2 * (b + 1), 2)),
                      ((-1, 3, 0), (-1, 3, 0))),
           lambda b: _twist(b - 2), _r_to_curve, _r_from_curve,
           ("P", "A", "S", "T"), (("P", 2), ("A", 2)), _r_points,
           _r_cycle),  # 1/sqrt((1-t)((beta-4)+2t)(2t^2+(beta+2)t+(beta-2))) for beta>=6
)}
