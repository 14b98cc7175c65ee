"""Cycle integrals of the four families and their transformation identities.

Each family's real cycle integral is a complete elliptic integral of
1/sqrt(quartic) between adjacent real roots, so it is one Carlson R_F in
closed form (``elliptic.complete_integral``); no quadrature is involved.

The change-of-variables catalog records the substitutions that chain the
S-side integral to the P-side one (a shift/scale, a Mobius involution,
two reciprocal shifts, a degree-2 isogeny, a parameter rescaling); every
map is checked by evaluating both definite integrals, each over its own
quartic.  The Q and R integrals are compared directly by the ``q-vs-r``
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import complete_integral, family_models, period_lattice
from .numerics import DegenerateInputError, Tolerance


class UnsupportedRegimeError(ValueError):
    pass


class MapDomainError(ValueError):
    pass


@dataclass(frozen=True)
class CycleIntegral:
    family: str
    regime: str
    integrand: str
    limits: tuple
    value: float


@dataclass(frozen=True)
class ResidualReport:
    name: str
    param: float
    lhs: float
    rhs: float
    tol: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class RationalityReport:
    family: str
    param: float
    ratio: float
    nearest: Fraction
    distance: float


# ---------------------------------------------------------------------------
# the individual integrals, each over linear factors (a, b) = a + b w.  Where
# a root lies close to a limit outside the cycle, w is measured from that
# limit and a holds the factor's value there, computed without cancellation.
# ---------------------------------------------------------------------------


def _p_integral(alpha: float):
    """int dt / sqrt(t (1-t) ((alpha-4t)^2 - 16t)) over the bounded cycle."""
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
    raise UnsupportedRegimeError(f"family P undefined at alpha={alpha}")


def _s_integral(alpha: float):
    """int dt / sqrt((1-t) (2t+alpha-2) (2t^2+alpha t+alpha))."""
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
    raise UnsupportedRegimeError(f"family S undefined at alpha={alpha}")


def _k_integral(alpha: float, interval: str):
    """int ds / sqrt(s (1-s) (alpha^2 s^2 + alpha (4-alpha) s + 4)).

    interval 'unit' -> [0, 1] (quadratic positive there for 0<alpha<8);
    'outer' -> [1, hi] and 'inner' -> [0, lo] for alpha < -1, where lo, hi
    are the quadratic's roots.
    """
    a2 = alpha * alpha
    if interval == "unit":
        # the quadratic is alpha^2 (s - r)(s - conj r)
        r = complex(alpha - 4.0, math.sqrt(alpha * (8.0 - alpha))) / (2.0 * alpha)
        factors = ((0.0, 1.0), (1.0, -1.0), (-a2 * r, a2), (-r.conjugate(), 1.0))
        return complete_integral(factors, 0.0, 1.0)
    # 0 < lo < 1 < hi; the quadratic is 4 (alpha + 1) at s = 1
    hi_m1 = (alpha + 4.0 + math.sqrt(a2 - 8.0 * alpha)) / (-2.0 * alpha)
    one_m_lo = -4.0 * (alpha + 1.0) / (a2 * hi_m1)
    lo = 4.0 / (a2 * (1.0 + hi_m1))
    if interval == "outer":  # w = s - 1
        factors = ((1.0, 1.0), (0.0, 1.0), (a2 * one_m_lo, a2), (hi_m1, -1.0))
        return complete_integral(factors, 0.0, hi_m1)
    factors = ((lo, -1.0), (one_m_lo, 1.0), (0.0, a2), (hi_m1 + one_m_lo, 1.0))  # w = lo - s
    return complete_integral(factors, 0.0, lo)


def _u_integral(alpha: float):
    """int_0^oo du / sqrt(u (u^2 + 2c u + d)), c = alpha^2/4 - alpha - 2,
    d = alpha^3 (alpha-8)/16; the quadratic has no real roots for alpha < -1."""
    # roots -c +- i sqrt(d - c^2), and d - c^2 = -4 (alpha + 1)
    r = complex(-(alpha * alpha / 4.0 - alpha - 2.0), 2.0 * math.sqrt(-1.0 - alpha))
    return complete_integral(((0.0, 1.0), (-r, 1.0), (-r.conjugate(), 1.0)), 0.0, math.inf)


def _v_integral(alpha: float):
    """int_{v0}^oo dv / sqrt(v (v^2 - c v + alpha + 1)) with v0 the larger
    root of the quadratic (alpha < -1)."""
    c = alpha * alpha / 4.0 - alpha - 2.0
    # c^2 - 4 (alpha + 1) = alpha^3 (alpha - 8) / 16; the roots' product is alpha + 1 < 0
    big = (c + math.copysign(-alpha * math.sqrt(alpha * alpha - 8.0 * alpha) / 4.0, c)) / 2.0
    v_m, v0 = sorted((big, (alpha + 1.0) / big))
    return complete_integral(((0.0, 1.0), (-v0, 1.0), (-v_m, 1.0)), v0, math.inf)


def _q_integral(alpha: float):
    """int dt / sqrt((1-t) (alpha^2 t - (4t-1)^2)) for alpha >= 4."""
    if not alpha >= 4.0:
        raise UnsupportedRegimeError(f"family Q undefined at alpha={alpha}")
    # alpha^2 t - (4t-1)^2 = 16 (t - t_lo)(t_hi - t), t_lo t_hi = 1/16
    t_hi = (8.0 + alpha * alpha + alpha * math.sqrt(alpha * alpha + 16.0)) / 32.0
    t_lo = 1.0 / (16.0 * t_hi)
    return (t_lo, 1.0), complete_integral(((1.0, -1.0), (-16.0 * t_lo, 16.0), (t_hi, -1.0)),
                                          t_lo, 1.0)


def _r_integral(beta: float):
    """int dt / sqrt((1-t) ((beta-4)+2t) (2t^2+(beta+2)t+(beta-2))), beta >= 6."""
    if not beta >= 6.0:
        raise UnsupportedRegimeError(f"family R undefined at beta={beta}")
    # the quadratic is 2 (t - s0)(t - s_m), s0 s_m = (beta - 2)/2
    s_m = -(beta + 2.0 + math.sqrt(beta * beta - 4.0 * beta + 20.0)) / 4.0
    s0 = (beta - 2.0) / (2.0 * s_m)
    factors = ((1.0, -1.0), (beta - 4.0, 2.0), (-2.0 * s0, 2.0), (-s_m, 1.0))
    return (s0, 1.0), complete_integral(factors, s0, 1.0)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

# family -> (integral, integrand, regime for param > 0, regime for param <= 0)
_CYCLES = {
    "P": (_p_integral, "1/sqrt(t(1-t)((alpha-4t)^2-16t))", "0<alpha<8", "alpha<-1"),
    "S": (_s_integral, "1/sqrt((1-t)(2t+alpha-2)(2t^2+alpha*t+alpha))",
          "0<alpha<8", "alpha<-1"),
    "Q": (_q_integral, "1/sqrt((1-t)(alpha^2*t-(4t-1)^2))", "alpha>=4", "alpha>=4"),
    "R": (_r_integral, "1/sqrt((1-t)((beta-4)+2t)(2t^2+(beta+2)t+(beta-2)))",
          "beta>=6", "beta>=6"),
}


def cycle_integral(family: str, param: float,
                   tol: Tolerance = Tolerance(absolute=1e-12)) -> CycleIntegral:
    """The family's real cycle integral at ``param``, exact to rounding.

    ``tol`` is accepted for existing callers; a closed form has no inner
    tolerance to set.
    """
    fam = family.upper()
    if fam not in _CYCLES:
        raise UnsupportedRegimeError(f"unknown family {family!r}")
    integral, form, positive, negative = _CYCLES[fam]
    limits, value = integral(param)
    return CycleIntegral(fam, positive if param > 0 else negative, form, limits, value)


IDENTITY_IDS = ("p-doubled-vs-s", "p-vs-s", "q-vs-r")


def verify_period_identity(which: str, param: float,
                           tol: Tolerance = Tolerance(absolute=1e-8)) -> ResidualReport:
    """Check one of the three cycle-integral equalities between families.

    'p-doubled-vs-s': 2 * P-cycle = S-cycle for 0 < alpha < 8;
    'p-vs-s': P-cycle = S-cycle for alpha < -1;
    'q-vs-r': Q-cycle at alpha = R-cycle at beta = alpha + 2 for alpha >= 4.
    """
    if which == "p-doubled-vs-s":
        if not 0.0 < param < 8.0:
            raise UnsupportedRegimeError("needs 0 < alpha < 8")
        lhs = 2.0 * _p_integral(param)[1]
        rhs = _s_integral(param)[1]
    elif which == "p-vs-s":
        if not param < -1.0:
            raise UnsupportedRegimeError("needs alpha < -1")
        lhs = _p_integral(param)[1]
        rhs = _s_integral(param)[1]
    elif which == "q-vs-r":
        lhs = _q_integral(param)[1]
        rhs = _r_integral(param + 2.0)[1]
    else:
        raise DegenerateInputError(f"unknown identity {which!r}")
    return ResidualReport(which, param, lhs, rhs, tol.absolute)


MAP_IDS = (
    "shift-scale",        # t = (alpha s - alpha + 2)/2
    "mobius-involution",  # s = (1-w)/(1+alpha w)
    "reciprocal-t",       # t = 1/(1 + 4u/alpha^2)
    "reciprocal-w",       # w = 1/(1+v)
    "degree2-isogeny",    # u = v - c + (alpha+1)/v
    "parameter-rescale",  # beta = -8/alpha (pointwise integrand identity)
)


def change_of_variable_check(map_id: str, param: float,
                             tol: Tolerance = Tolerance(absolute=1e-8)) -> ResidualReport:
    """Recompute both sides of one substitution identity independently."""
    a = param
    if map_id not in MAP_IDS:
        raise DegenerateInputError(f"unknown map {map_id!r}")
    if map_id != "shift-scale" and not a < -1.0:
        raise MapDomainError(f"{map_id} needs alpha < -1")
    if map_id == "shift-scale":
        # maps the S-cycle to the symmetric quartic in s
        lhs = _s_integral(a)[1]  # raises outside 0 < alpha < 8 and alpha < -1
        rhs = _k_integral(a, "unit" if a > 0.0 else "outer")
    elif map_id == "mobius-involution":
        lhs = _k_integral(a, "outer")
        rhs = _k_integral(a, "inner")
    elif map_id == "reciprocal-t":
        lhs = _p_integral(a)[1]
        rhs = 0.5 * _u_integral(a)
    elif map_id == "reciprocal-w":
        lhs = _k_integral(a, "inner")
        rhs = 0.5 * _v_integral(a)
    elif map_id == "degree2-isogeny":
        lhs = _u_integral(a)
        rhs = _v_integral(a)
    else:  # parameter-rescale
        beta = -8.0 / a
        lhs = _p_integral(a)[1]
        rhs = abs(beta) / 4.0 * _k_integral(beta, "unit")
    return ResidualReport(map_id, param, lhs, rhs, tol.absolute)


def cycle_vs_lattice(family: str, param: float) -> RationalityReport:
    """Ratio of the cycle integral to the imaginary lattice period.

    The ratio is observed, not asserted: the nearest rational with
    denominator <= 4 is reported together with the distance to it.
    """
    ci = cycle_integral(family, param)
    model = family_models(family, param)
    lat = period_lattice(model.curve)
    if lat.rectangular:
        imag_period = abs(lat.omega2.imag)
    else:
        imag_period = abs((2.0 * lat.omega2 - lat.omega1).imag)
    ratio = ci.value / imag_period
    nearest = Fraction(ratio).limit_denominator(4)
    return RationalityReport(family.upper(), param, ratio, nearest,
                             abs(ratio - float(nearest)))
