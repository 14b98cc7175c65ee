"""Cycle integrals of the four families and their transformation identities.

Each family's real cycle integral is an integral of 1/sqrt(quartic) with
inverse-square-root endpoint singularities.  Every integrand is built in
"offset" form: the vanishing linear factors are expressed directly in the
cancellation-free distances from the endpoints, which lets the tanh-sinh
rule reach ~1e-12 instead of the ~1e-8 cap of the naive form.

The change-of-variables catalog records the substitutions that chain the
S-side integral to the P-side one (a shift/scale, a Mobius involution,
two reciprocal shifts, a degree-2 isogeny, a parameter rescaling); every
map is checked by computing both definite integrals independently.  The
Q and R integrals are compared directly by the ``q-vs-r`` identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import family_models, period_lattice
from .numerics import (
    DegenerateInputError,
    QuadratureResult,
    Tolerance,
    integrate_endpoint_singular,
)


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
    value: QuadratureResult


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
        return self.residual < self.tol


@dataclass(frozen=True)
class RationalityReport:
    family: str
    param: float
    ratio: float
    nearest: Fraction
    distance: float


def _quad(f, a, b, tol):
    """Offsets-form tanh-sinh over (a, b); f takes (off_a, off_b)."""
    return integrate_endpoint_singular(f, a, b, tol, offsets=True)


# ---------------------------------------------------------------------------
# the individual integrals (all real, positive; orientation normalized away)
# ---------------------------------------------------------------------------


def _p_integral(alpha: float, tol: Tolerance):
    """int dt / sqrt(t (1-t) ((alpha-4t)^2 - 16t)) over the bounded cycle."""
    if 0.0 < alpha < 8.0:
        s = math.sqrt(alpha + 1.0)
        t_lo = (alpha + 2.0 - 2.0 * s) / 4.0  # smaller root of the quadratic
        t_hi = (alpha + 2.0 + 2.0 * s) / 4.0
        gap = t_hi - t_lo
        one_m = 1.0 - t_lo

        def f(da, db):
            return 1.0 / math.sqrt(16.0 * da * db * (one_m + db) * (gap + db))

        return (0.0, t_lo), _quad(f, 0.0, t_lo, tol)
    if alpha <= -1.0:

        def f(da, db):
            t = da if da <= db else 1.0 - db
            quad = (16.0 * t - (8.0 * alpha + 16.0)) * t + alpha * alpha
            return 1.0 / math.sqrt(da * db * quad)

        return (0.0, 1.0), _quad(f, 0.0, 1.0, tol)
    raise UnsupportedRegimeError(f"family P undefined at alpha={alpha}")


def _s_integral(alpha: float, tol: Tolerance):
    """int dt / sqrt((1-t) (2t+alpha-2) (2t^2+alpha t+alpha))."""
    if 0.0 < alpha < 8.0:
        lo = (2.0 - alpha) / 2.0

        def f(da, db):
            t = lo + da if da <= db else 1.0 - db
            quad = (2.0 * t + alpha) * t + alpha  # positive: no real roots here
            return 1.0 / math.sqrt(db * 2.0 * da * quad)

        return (lo, 1.0), _quad(f, lo, 1.0, tol)
    if alpha < -1.0:
        disc = math.sqrt(alpha * alpha - 8.0 * alpha)
        r_lo = (-alpha - disc) / 4.0  # roots of 2t^2 + alpha t + alpha
        r_hi = (-alpha + disc) / 4.0

        def f(da, db):
            t = r_lo + da if da <= db else 1.0 - db
            # -(2t+alpha-2) and -(quadratic) are both positive on the cycle
            return 1.0 / math.sqrt(db * (2.0 - alpha - 2.0 * t) * 2.0 * (r_hi - t) * da)

        return (r_lo, 1.0), _quad(f, r_lo, 1.0, tol)
    raise UnsupportedRegimeError(f"family S undefined at alpha={alpha}")


def _k_quartic_roots(alpha: float):
    """Real roots of alpha^2 s^2 + alpha (4-alpha) s + 4 (alpha < -1 only)."""
    disc = math.sqrt(alpha * alpha - 8.0 * alpha)
    lo = (alpha - 4.0 + disc) / (2.0 * alpha)
    hi = (alpha - 4.0 - disc) / (2.0 * alpha)
    return lo, hi  # 0 < lo < 1 < hi


def _k_integral(alpha: float, interval: str, tol: Tolerance):
    """int ds / sqrt(s (1-s) (alpha^2 s^2 + alpha (4-alpha) s + 4)).

    interval 'unit' -> [0, 1] (quadratic positive there for 0<alpha<8);
    'outer' -> [1, hi] and 'inner' -> [0, lo] for alpha < -1, where lo, hi
    are the quadratic's roots.
    """
    a2 = alpha * alpha
    if interval == "unit":
        def f(da, db):
            s = da if da <= db else 1.0 - db
            quad = (a2 * s + alpha * (4.0 - alpha)) * s + 4.0
            return 1.0 / math.sqrt(da * db * quad)

        return (0.0, 1.0), _quad(f, 0.0, 1.0, tol)
    lo, hi = _k_quartic_roots(alpha)
    if interval == "outer":
        def f(da, db):
            s = 1.0 + da if da <= db else hi - db
            return 1.0 / math.sqrt(s * da * a2 * (s - lo) * db)

        return (1.0, hi), _quad(f, 1.0, hi, tol)
    if interval == "inner":
        def f(da, db):
            s = da if da <= db else lo - db
            return 1.0 / math.sqrt(da * (1.0 - s) * a2 * db * (hi - s))

        return (0.0, lo), _quad(f, 0.0, lo, tol)
    raise DegenerateInputError(f"unknown interval {interval!r}")


def _tail_quad(f, rho, tol):
    """int_rho^oo f(u) du via u = rho / (1 - sigma); f decays like u^{-3/2}."""

    def g(da, db):
        # da = sigma, db = 1 - sigma
        u = rho / db
        return f(u) * rho / (db * db)

    return _quad(g, 0.0, 1.0, tol)


def _u_integral(alpha: float, tol: Tolerance):
    """int_0^oo du / sqrt(u (u^2 + 2c u + d)), c = alpha^2/4 - alpha - 2,
    d = alpha^3 (alpha-8)/16; the quadratic has no real roots for alpha < -1."""
    if not alpha < -1.0:
        raise UnsupportedRegimeError("reciprocal-shift form needs alpha < -1")
    c = alpha * alpha / 4.0 - alpha - 2.0
    d = alpha**3 * (alpha - 8.0) / 16.0
    rho = 1.0 + max(abs(c), math.sqrt(d))

    def quad(u):
        return (u + 2.0 * c) * u + d

    def head(da, db):
        u = da if da <= db else rho - db
        return 1.0 / math.sqrt(da * quad(u))

    r1 = _quad(head, 0.0, rho, tol)
    r2 = _tail_quad(lambda u: 1.0 / math.sqrt(u * quad(u)), rho, tol)
    return QuadratureResult(
        r1.value + r2.value, r1.error_estimate + r2.error_estimate,
        r1.evaluations + r2.evaluations,
    )


def _v_roots(alpha: float):
    c = alpha * alpha / 4.0 - alpha - 2.0
    disc = math.sqrt(c * c - 4.0 * (alpha + 1.0))
    return (c - disc) / 2.0, (c + disc) / 2.0  # v_minus < 0 < v_0


def _v_integral(alpha: float, tol: Tolerance):
    """int_{v0}^oo dv / sqrt(v (v^2 - c v + alpha + 1)) with v0 the larger
    root of the quadratic (alpha < -1)."""
    if not alpha < -1.0:
        raise UnsupportedRegimeError("reciprocal-shift form needs alpha < -1")
    v_m, v0 = _v_roots(alpha)
    rho = v0 + 1.0

    def head(da, db):
        v = v0 + da if da <= db else rho - db
        return 1.0 / math.sqrt(v * da * (v - v_m))

    def tail(v):
        return 1.0 / math.sqrt(v * (v - v0) * (v - v_m))

    r1 = _quad(head, v0, rho, tol)
    r2 = _tail_quad(tail, rho, tol)
    return QuadratureResult(
        r1.value + r2.value, r1.error_estimate + r2.error_estimate,
        r1.evaluations + r2.evaluations,
    )


def _q_integral(alpha: float, tol: Tolerance):
    """int dt / sqrt((1-t) (alpha^2 t - (4t-1)^2)) for alpha >= 4."""
    if not alpha >= 4.0:
        raise UnsupportedRegimeError(f"family Q undefined at alpha={alpha}")
    disc = alpha * math.sqrt(alpha * alpha + 16.0)
    t_lo = (8.0 + alpha * alpha - disc) / 32.0
    t_hi = (8.0 + alpha * alpha + disc) / 32.0

    def f(da, db):
        t = t_lo + da if da <= db else 1.0 - db
        return 1.0 / math.sqrt(db * 16.0 * da * (t_hi - t))

    return (t_lo, 1.0), _quad(f, t_lo, 1.0, tol)


def _r_integral(beta: float, tol: Tolerance):
    """int dt / sqrt((1-t) ((beta-4)+2t) (2t^2+(beta+2)t+(beta-2))), beta >= 6."""
    if not beta >= 6.0:
        raise UnsupportedRegimeError(f"family R undefined at beta={beta}")
    disc = math.sqrt(beta * beta - 4.0 * beta + 20.0)
    s0 = (-(beta + 2.0) + disc) / 4.0  # larger root of the quadratic
    s_m = (-(beta + 2.0) - disc) / 4.0

    def f(da, db):
        t = s0 + da if da <= db else 1.0 - db
        return 1.0 / math.sqrt(db * (beta - 4.0 + 2.0 * t) * 2.0 * da * (t - s_m))

    return (s0, 1.0), _quad(f, s0, 1.0, tol)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

_DEFAULT_TOL = Tolerance(absolute=1e-12)


def cycle_integral(family: str, param: float, tol: Tolerance = _DEFAULT_TOL) -> CycleIntegral:
    fam = family.upper()
    if fam == "P":
        limits, res = _p_integral(param, tol)
        regime = "0<alpha<8" if param > 0 else "alpha<=-1"
        form = "1/sqrt(t(1-t)((alpha-4t)^2-16t))"
    elif fam == "S":
        limits, res = _s_integral(param, tol)
        regime = "0<alpha<8" if param > 0 else "alpha<-1"
        form = "1/sqrt((1-t)(2t+alpha-2)(2t^2+alpha*t+alpha))"
    elif fam == "Q":
        limits, res = _q_integral(param, tol)
        regime = "alpha>=4"
        form = "1/sqrt((1-t)(alpha^2*t-(4t-1)^2))"
    elif fam == "R":
        limits, res = _r_integral(param, tol)
        regime = "beta>=6"
        form = "1/sqrt((1-t)((beta-4)+2t)(2t^2+(beta+2)t+(beta-2)))"
    else:
        raise UnsupportedRegimeError(f"unknown family {family!r}")
    return CycleIntegral(fam, regime, form, limits, res)


IDENTITY_IDS = ("p-doubled-vs-s", "p-vs-s", "q-vs-r")


def verify_period_identity(which: str, param: float,
                           tol: Tolerance = Tolerance(absolute=1e-8)) -> ResidualReport:
    """Check one of the three cycle-integral equalities between families.

    'p-doubled-vs-s': 2 * P-cycle = S-cycle for 0 < alpha < 8;
    'p-vs-s': P-cycle = S-cycle for alpha < -1;
    'q-vs-r': Q-cycle at alpha = R-cycle at beta = alpha + 2 for alpha >= 4.
    """
    inner = Tolerance(absolute=tol.absolute * 1e-3)
    if which == "p-doubled-vs-s":
        if not 0.0 < param < 8.0:
            raise UnsupportedRegimeError("needs 0 < alpha < 8")
        lhs = 2.0 * _p_integral(param, inner)[1].value
        rhs = _s_integral(param, inner)[1].value
    elif which == "p-vs-s":
        if not param < -1.0:
            raise UnsupportedRegimeError("needs alpha < -1")
        lhs = _p_integral(param, inner)[1].value
        rhs = _s_integral(param, inner)[1].value
    elif which == "q-vs-r":
        if not param >= 4.0:
            raise UnsupportedRegimeError("needs alpha >= 4")
        lhs = _q_integral(param, inner)[1].value
        rhs = _r_integral(param + 2.0, inner)[1].value
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
    inner = Tolerance(absolute=tol.absolute * 1e-3)
    if map_id not in MAP_IDS:
        raise DegenerateInputError(f"unknown map {map_id!r}")
    if map_id != "shift-scale" and not a < -1.0:
        raise MapDomainError(f"{map_id} needs alpha < -1")
    if map_id == "shift-scale":
        # maps the S-cycle to the symmetric quartic in s
        lhs = _s_integral(a, inner)[1].value
        if 0.0 < a < 8.0:
            rhs = _k_integral(a, "unit", inner)[1].value
        elif a < -1.0:
            rhs = _k_integral(a, "outer", inner)[1].value
        else:
            raise MapDomainError("shift-scale needs 0<alpha<8 or alpha<-1")
    elif map_id == "mobius-involution":
        lhs = _k_integral(a, "outer", inner)[1].value
        rhs = _k_integral(a, "inner", inner)[1].value
    elif map_id == "reciprocal-t":
        lhs = _p_integral(a, inner)[1].value
        rhs = 0.5 * _u_integral(a, inner).value
    elif map_id == "reciprocal-w":
        lhs = _k_integral(a, "inner", inner)[1].value
        rhs = 0.5 * _v_integral(a, inner).value
    elif map_id == "degree2-isogeny":
        lhs = _u_integral(a, inner).value
        rhs = _v_integral(a, inner).value
    else:  # parameter-rescale
        beta = -8.0 / a
        lhs = _p_integral(a, inner)[1].value
        rhs = abs(beta) / 4.0 * _k_integral(beta, "unit", inner)[1].value
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
    ratio = ci.value.value / imag_period
    nearest = Fraction(ratio).limit_denominator(4)
    return RationalityReport(family.upper(), param, ratio, nearest,
                             abs(ratio - float(nearest)))
