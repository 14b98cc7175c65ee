"""Long-Weierstrass curves and their uniformization data.

Period lattices come from Carlson symmetric integrals on the shifted cubic
(2y+a1*x+a3)^2 = 4x^3+b2*x^2+2*b4*x+b6, and so does the elliptic
logarithm: the Abel map u = int dx/(2y+a1*x+a3) from infinity to any
finite point, real or complex, is one R_F along a ray to infinity.  So is
a complete integral of 1/sqrt(cubic or quartic) between adjacent real
roots (``complete_integral``), which gives the families' cycle integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dilogarithm import QPoint
from .numerics import DegenerateInputError, carlson_rf


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6, with nonzero discriminant."""

    a1: object = 0
    a2: object = 0
    a3: object = 0
    a4: object = 0
    a6: object = 0

    def __post_init__(self):
        if self.discriminant() == 0:
            raise DegenerateInputError("discriminant is zero: singular model")

    # standard b/c invariants
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def rhs(self, x):
        return x**3 + self.a2 * x * x + self.a4 * x + self.a6

    def residual(self, x, y):
        return y * y + self.a1 * x * y + self.a3 * y - self.rhs(x)

    def contains(self, p: "CurvePoint", tol: float = 1e-10) -> bool:
        """The residual must be within tol of 1 + the equation's largest term at the
        point, the size of its rounding error; the 1 covers coordinates formed as
        differences of terms of order 1."""
        r = self.residual(p.x, p.y)
        x, y = abs(complex(p.x)), abs(complex(p.y))
        scale = 1.0 + max(y * y, abs(self.a1) * x * y, abs(self.a3) * y, x**3,
                          abs(self.a2) * x * x, abs(self.a4) * x, abs(self.a6))
        return abs(complex(r)) < tol * scale


@dataclass(frozen=True)
class CurvePoint:
    """An affine point (x, y)."""

    x: object = 0
    y: object = 0


# ---------------------------------------------------------------------------
# period lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodLattice:
    """Uniformization C/(omega1*Z + omega2*Z) with Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex
    tau: complex
    q: complex
    roots: tuple  # roots of 4x^3+b2 x^2+2 b4 x+b6, identity-component root first

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise DegenerateInputError("tau must lie in the upper half plane")
        if not abs(self.q) < 1:
            raise DegenerateInputError("|q| must be < 1")


def complete_integral(factors, y: float, x: float) -> float:
    """int_y^x dt / sqrt(prod (a_i + b_i t)) over three or four linear factors (a_i, b_i).

    Carlson's closed form (DLMF 19.29.4): 2 R_F(U12^2, U13^2, U14^2) with
    U_ij = (X_i X_j Y_k Y_l + Y_i Y_j X_k X_l) / (x - y), where
    X_i = sqrt(a_i + b_i x) and Y_i = sqrt(a_i + b_i y).  Three factors get
    the constant fourth factor (1, 0), and x = inf takes the limit
    2 R_F(b1 b2 Y3^2, b1 b3 Y2^2, b2 b3 Y1^2).  Each factor must be
    positive on (y, x), or be one of a complex-conjugate pair whose product
    is; a factor that vanishes at a limit should evaluate to exactly 0 there.
    Raises DegenerateInputError where the result is not finite and real
    (a divergent integral, or factors that violate the sign condition).
    """
    f = list(factors) + [(1.0, 0.0)] * (len(factors) == 3)
    if len(f) != 4 or not y < x:
        raise DegenerateInputError("need three or four factors and y < x")
    (_, b1), (_, b2), (_, b3), (_, b4) = f
    y_sq = [a + b * y for a, b in f]
    if x == math.inf:
        if b4 != 0:
            raise DegenerateInputError("an infinite limit needs a cubic")
        args = (b1 * b2 * y_sq[2], b1 * b3 * y_sq[1], b2 * b3 * y_sq[0])
    else:
        ys = [cmath.sqrt(v) for v in y_sq]
        xs = [cmath.sqrt(a + b * x) for a, b in f]
        args = [((xs[i] * xs[j] * ys[k] * ys[m] + ys[i] * ys[j] * xs[k] * xs[m]) / (x - y)) ** 2
                for i, j, k, m in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))]
    value = 2.0 * carlson_rf(*args)
    if not (cmath.isfinite(value) and abs(value.imag) <= 1e-12 * abs(value.real)):
        raise DegenerateInputError(f"the integral is not finite and real ({value})")
    return value.real


def period_lattice(c: WeierstrassCurve) -> PeriodLattice:
    """Period lattice of a real-coefficient curve.

    omega1 is the real period (> 0); omega2 completes an oriented basis.
    Three real branch-cubic roots give a rectangular lattice (omega2 purely
    imaginary); one real root gives a rhombic one (omega2 = (omega1+i*v)/2).
    """
    b2, b4, b6, _ = (float(v) for v in c.b_invariants())
    rts = np.roots([4.0, b2, 2.0 * b4, b6])
    real_mask = np.abs(rts.imag) < 1e-9 * (1.0 + np.abs(rts))
    n_real = int(real_mask.sum())
    if n_real == 3:
        e1, e2, e3 = sorted(rts.real, reverse=True)
        omega1 = 2.0 * carlson_rf(0.0, e1 - e2, e1 - e3).real
        v = 2.0 * carlson_rf(0.0, e1 - e3, e2 - e3).real
        omega2 = complex(0.0, v)
        roots = (e1, e2, e3)
    else:
        r = float(rts.real[real_mask][0])
        cplx = rts[~real_mask]
        r2 = complex(cplx[0] if cplx[0].imag > 0 else cplx[1])
        r3 = r2.conjugate()
        omega1 = 2.0 * carlson_rf(0.0, r - r2, r - r3).real
        v = 2.0 * carlson_rf(0.0, r2 - r, r3 - r).real
        omega2 = 0.5 * complex(omega1, v)
        roots = (r, r2, r3)
    tau = omega2 / omega1
    q = cmath.exp(2j * math.pi * tau)
    return PeriodLattice(complex(omega1), omega2, tau, q, roots)


# ---------------------------------------------------------------------------
# elliptic logarithm
# ---------------------------------------------------------------------------


def reduce_mod_lattice(u: complex, lat: PeriodLattice) -> complex:
    """Representative of u with lattice coordinates in [0, 1).

    A coordinate within 1e-12 of an integer becomes exactly 0, so rounding
    noise cannot carry u across an edge of the parallelogram; in
    particular the log of a real point on the identity component is real.
    """
    u = complex(u)
    # solve u = a*omega1 + b*omega2 over R as a 2x2 system on (Re, Im)
    w1, w2 = lat.omega1, lat.omega2
    m = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    a, b = (0.0 if abs(t - round(t)) < 1e-12 else t - math.floor(t)
            for t in np.linalg.solve(m, [u.real, u.imag]))
    return a * w1 + b * w2


# rays x + d*s (s >= 0) along which the Abel integral is a Carlson R_F
_RAYS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _log_rf(lat: PeriodLattice, x: complex, w: complex) -> complex:
    """u = int_oo^P dx/w in closed form (DLMF 19.25(vi)), reduced mod the lattice.

    Along the ray x + d*s to infinity, w^2 = 4 prod(x - e_i) continues as
    B(s) = 2 d^(3/2) prod sqrt((x - e_i)/d + s), and int_P^oo dx/B is
    d^(-1/2) R_F((x - e_i)/d).  R_F is continuous only off its cut (-oo, 0],
    so d is the ray of {1, i, -1, -i} that keeps all three arguments farthest
    from it (at least pi/4 away).  Then u is -int_P^oo dx/B
    where w = B(0), and +int_P^oo dx/B where w = -B(0).
    """
    if abs(w) < 1e-9 * (1 + abs(x)) ** 1.5:
        # 2-torsion: one argument exactly 0, which R_F resolves to full precision
        x = min(lat.roots, key=lambda e: abs(x - e))

    def clearance(d):  # least angle between an argument and the negative real axis
        # cmath.phase raises OverflowError where the angle underflows
        return min(math.pi - abs(math.atan2(z.imag, z.real))
                   for z in ((x - e) / d for e in lat.roots))

    d = max(_RAYS, key=clearance)
    args = [(x - e) / d for e in lat.roots]
    root_d = cmath.sqrt(d)
    u0 = carlson_rf(*args) / root_d
    branch = 2.0 * root_d**3 * math.prod(cmath.sqrt(a) for a in args)
    return reduce_mod_lattice(u0 if abs(w + branch) < abs(w - branch) else -u0, lat)


def elliptic_log(c: WeierstrassCurve, lat: PeriodLattice, p: CurvePoint) -> complex:
    """u in C/Lambda with P = (x(u), y(u)) under the Abel map u = int_oo^P dx/w.

    Here w = 2y + a1*x + a3.  The representative has lattice coordinates
    in [0, 1) (``reduce_mod_lattice``).  P must lie on c; ``family_embedding``
    checks its generators before it takes their logs.
    """
    x = complex(p.x)
    return _log_rf(lat, x, 2 * complex(p.y) + complex(c.a1) * x + complex(c.a3))


def u_to_qz(u: complex, lat: PeriodLattice):
    """The image z = e^{2 pi i u / omega1} on the Tate curve C^x/q^Z of the point with log u."""
    return QPoint(lat.q, cmath.exp(2j * math.pi * complex(u) / lat.omega1))


# ---------------------------------------------------------------------------
# the families' curves (see ``families``)
# ---------------------------------------------------------------------------


def deuring_curve(alpha) -> WeierstrassCurve:
    """Y^2 + (alpha-2) X Y + alpha Y = X^3."""
    return WeierstrassCurve(a1=alpha - 2, a3=alpha)


def quartic_twist_curve(alpha) -> WeierstrassCurve:
    """W^2 = Z^3 + (alpha^2-24) Z^2 - 16 (alpha^2-9) Z."""
    a = alpha
    return WeierstrassCurve(a2=a * a - 24, a4=-16 * (a * a - 9))
