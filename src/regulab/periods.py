"""Cycle integrals of the four families and their transformation identities.

Each family's real cycle integral is a complete elliptic integral of
1/sqrt(quartic) between adjacent real roots, so it is one Carlson R_F in
closed form (``elliptic.complete_integral``); no quadrature is involved.
The families' integrals are the ``cycle`` fields of their records
(``families``); the substitutions' integrals are defined here.

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

from . import families
from .elliptic import complete_integral, period_lattice
from .families import FAMILIES, UnsupportedRegimeError
from .numerics import DegenerateInputError, Tolerance


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
# the substitutions' integrals, over linear factors as in ``families``
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def cycle_integral(family: str, param: float) -> CycleIntegral:
    """The family's real cycle integral at ``param``, exact to rounding."""
    fam = families.family(family)
    limits, value = fam.cycle(param)
    regime = fam.regimes[0 if param > 0 else 1]
    return CycleIntegral(fam.name, regime, fam.integrand, limits, value)


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
        lhs = 2.0 * FAMILIES["P"].cycle(param)[1]
        rhs = FAMILIES["S"].cycle(param)[1]
    elif which == "p-vs-s":
        if not param < -1.0:
            raise UnsupportedRegimeError("needs alpha < -1")
        lhs = FAMILIES["P"].cycle(param)[1]
        rhs = FAMILIES["S"].cycle(param)[1]
    elif which == "q-vs-r":
        lhs = FAMILIES["Q"].cycle(param)[1]
        rhs = FAMILIES["R"].cycle(param + 2.0)[1]
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
        lhs = FAMILIES["S"].cycle(a)[1]  # raises outside 0 < alpha < 8 and alpha < -1
        rhs = _k_integral(a, "unit" if a > 0.0 else "outer")
    elif map_id == "mobius-involution":
        lhs = _k_integral(a, "outer")
        rhs = _k_integral(a, "inner")
    elif map_id == "reciprocal-t":
        lhs = FAMILIES["P"].cycle(a)[1]
        rhs = 0.5 * _u_integral(a)
    elif map_id == "reciprocal-w":
        lhs = _k_integral(a, "inner")
        rhs = 0.5 * _v_integral(a)
    elif map_id == "degree2-isogeny":
        lhs = _u_integral(a)
        rhs = _v_integral(a)
    else:  # parameter-rescale
        beta = -8.0 / a
        lhs = FAMILIES["P"].cycle(a)[1]
        rhs = abs(beta) / 4.0 * _k_integral(beta, "unit")
    return ResidualReport(map_id, param, lhs, rhs, tol.absolute)


def cycle_vs_lattice(family: str, param: float) -> RationalityReport:
    """Ratio of the cycle integral to the imaginary lattice period.

    The ratio is observed, not asserted: the nearest rational with
    denominator <= 4 is reported together with the distance to it.
    """
    ci = cycle_integral(family, param)
    lat = period_lattice(FAMILIES[ci.family].curve(param))
    if lat.rectangular:
        imag_period = abs(lat.omega2.imag)
    else:
        imag_period = abs((2.0 * lat.omega2 - lat.omega1).imag)
    ratio = ci.value / imag_period
    nearest = Fraction(ratio).limit_denominator(4)
    return RationalityReport(ci.family, param, ratio, nearest,
                             abs(ratio - float(nearest)))
