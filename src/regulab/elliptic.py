"""Arithmetic on long-Weierstrass curves and their uniformization data.

The chord-tangent group law is implemented generically, so it is exact on
Fraction coordinates and works unchanged on float/complex ones.  Period
lattices come from Carlson symmetric integrals on the shifted cubic
(2y+a1*x+a3)^2 = 4x^3+b2*x^2+2*b4*x+b6; the elliptic logarithm inverts
the Abel map u = int dx/(2y+a1*x+a3) for real points via the same
integrals and for complex points via branch-tracked path integration.

Model bundles for the four polynomial families record the Weierstrass
target, the intermediate genus-2 quotient cubic, and the coordinate
changes in both directions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.special

from .numerics import DegenerateInputError, integrate_endpoint_singular, Tolerance


class SingularModelError(ValueError):
    pass


class OffCurveError(ValueError):
    pass


class DegenerateFamilyError(ValueError):
    pass


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
            raise SingularModelError("discriminant is zero: singular model")

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

    def j_invariant(self):
        b2, b4, b6, b8 = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        return c4**3 / self.discriminant()

    def rhs(self, x):
        return x**3 + self.a2 * x * x + self.a4 * x + self.a6

    def residual(self, x, y):
        return y * y + self.a1 * x * y + self.a3 * y - self.rhs(x)

    def contains(self, p: "CurvePoint", tol: float = 1e-10) -> bool:
        if p.infinity:
            return True
        r = self.residual(p.x, p.y)
        if isinstance(r, Fraction) or isinstance(r, int):
            return r == 0
        scale = 1.0 + max(abs(complex(p.x)), abs(complex(p.y))) ** 3
        return abs(complex(r)) < tol * scale


@dataclass(frozen=True)
class CurvePoint:
    x: object = 0
    y: object = 0
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> "CurvePoint":
        return cls(0, 0, True)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity == other.infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.infinity:
            return hash(("inf",))
        return hash((self.x, self.y))


O = CurvePoint.at_infinity()


def negate(c: WeierstrassCurve, p: CurvePoint) -> CurvePoint:
    if p.infinity:
        return p
    return CurvePoint(p.x, -p.y - c.a1 * p.x - c.a3)


def group_op(c: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on the long model; exact on exact inputs."""
    if not (c.contains(p) and c.contains(q)):
        raise OffCurveError("input point not on curve")
    if p.infinity:
        return q
    if q.infinity:
        return p
    a1, a2, a3, a4 = c.a1, c.a2, c.a3, c.a4
    if p.x == q.x:
        if p.y != q.y or 2 * p.y + a1 * p.x + a3 == 0:
            # vertical chord (Q = -P) or 2-torsion tangent
            return O
        lam = (3 * p.x * p.x + 2 * a2 * p.x + a4 - a1 * p.y) / (2 * p.y + a1 * p.x + a3)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    nu = p.y - lam * p.x
    x3 = lam * lam + a1 * lam - a2 - p.x - q.x
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def multiply(c: WeierstrassCurve, n: int, p: CurvePoint) -> CurvePoint:
    if n < 0:
        return multiply(c, -n, negate(c, p))
    acc = O
    add = p
    while n:
        if n & 1:
            acc = group_op(c, acc, add)
        n >>= 1
        if n:
            add = group_op(c, add, add)
    return acc


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
    rectangular: bool

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        if not abs(self.q) < 1:
            raise ValueError("|q| must be < 1")


def _rf(x, y, z):
    return complex(scipy.special.elliprf(complex(x), complex(y), complex(z)))


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
        omega1 = 2.0 * _rf(0.0, e1 - e2, e1 - e3).real
        v = 2.0 * _rf(0.0, e1 - e3, e2 - e3).real
        omega2 = complex(0.0, v)
        roots = (e1, e2, e3)
        rectangular = True
    else:
        r = float(rts.real[real_mask][0])
        cplx = rts[~real_mask]
        r2 = complex(cplx[0] if cplx[0].imag > 0 else cplx[1])
        r3 = r2.conjugate()
        omega1 = 2.0 * _rf(0.0, r - r2, r - r3).real
        v = 2.0 * _rf(0.0, r2 - r, r3 - r).real
        omega2 = 0.5 * complex(omega1, v)
        roots = (r, r2, r3)
        rectangular = False
    tau = omega2 / omega1
    q = cmath.exp(2j * math.pi * tau)
    return PeriodLattice(complex(omega1), omega2, tau, q, roots, rectangular)


def _j_from_q(q: complex, terms: int = 40) -> complex:
    """j(tau) from the q-expansion of E4^3/Delta; used as a lattice self-check."""

    def sigma3(n):
        return sum(d**3 for d in range(1, n + 1) if n % d == 0)

    e4 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, terms):
        qn *= q
        e4 += 240.0 * sigma3(n) * qn
    delta = q
    qn = 1.0 + 0j
    for n in range(1, terms):
        qn *= q
        delta *= (1.0 - qn) ** 24
    return e4**3 / delta


def lattice_self_check(c: WeierstrassCurve, lat: PeriodLattice, tol: float = 1e-8) -> float:
    """|j(q-series at lat.q) - j(curve)| / (1+|j|); small iff the basis is right."""
    j_alg = complex(c.j_invariant())
    j_ser = _j_from_q(lat.q)
    return abs(j_ser - j_alg) / (1.0 + abs(j_alg))


# ---------------------------------------------------------------------------
# elliptic logarithm
# ---------------------------------------------------------------------------


def _branch_cubic(c: WeierstrassCurve):
    b2, b4, b6, _ = (float(v) for v in c.b_invariants())

    def q(x):
        return ((4.0 * x + b2) * x + 2.0 * b4) * x + b6

    return q, (b2, b4, b6)


def _log_real_identity(c, lat, x, w):
    # x >= leading root: u0 = int_x^oo dt/sqrt(q(t)) in (0, omega1/2)
    r1, r2, r3 = lat.roots
    u0 = _rf(x - r1, x - r2, x - r3).real
    # orientation: du = dx/w; on the outgoing half (w > 0) x increases with u
    return lat.omega1 - u0 if w > 0 else u0


def _log_real_egg(c, lat, x, w, tol):
    # bounded real component r3 <= x <= r2 (rectangular lattices only)
    r1, r2, r3 = lat.roots
    q, _ = _branch_cubic(c)

    def f(off_lo, off_hi):
        t = r3 + off_lo
        val = (off_lo * (r2 - t)) * (4.0 * (r1 - t))
        if val <= 0:
            val = abs(q(t))
        return 1.0 / math.sqrt(val)

    if x - r3 < 1e-14 * (1.0 + abs(r3)):
        seg = 0.0
    else:
        seg = integrate_endpoint_singular(
            f, 0.0, x - r3, Tolerance(absolute=tol), offsets=True
        ).value
    u = 0.5 * lat.omega2 + (seg if w > 0 else -seg)
    return u


def _g_poly(c):
    # x = 1/s^2 turns q(x) dx-integrals into ds-integrals against sqrt(g):
    # g(s) = 4 + b2 s^2 + 2 b4 s^4 + b6 s^6, g(0) = 4
    b2, b4, b6, _ = (float(v) for v in c.b_invariants())

    def g(s):
        s2 = s * s
        return 4.0 + s2 * (b2 + s2 * (2.0 * b4 + s2 * b6))

    roots = np.roots([b6, 0, 2.0 * b4, 0, b2, 0, 4.0]) if b6 != 0 else (
        np.roots([2.0 * b4, 0, b2, 0, 4.0]) if b4 != 0 else np.roots([b2, 0, 4.0])
    )
    return g, [complex(r) for r in np.atleast_1d(roots)]


def _segment_needs_detour(z0, z1, bad, margin):
    # distance from each bad point to segment [z0, z1]
    d = z1 - z0
    L2 = abs(d) ** 2
    for b in bad:
        if L2 == 0:
            dist = abs(b - z0)
        else:
            t = max(0.0, min(1.0, ((b - z0) * d.conjugate()).real / L2))
            dist = abs(b - (z0 + t * d))
        if dist < margin:
            return True
    return False


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _integrate_branch_tracked(g, z0, z1, sqrt0, n_seg=64):
    """int_{z0}^{z1} ds/sqrt(g(s)) with the sqrt branch continued from sqrt0.

    Returns (integral, sqrt at z1).  The path is the straight segment,
    subdivided; within each panel the branch follows the previous sample.
    """
    total = 0.0 + 0.0j
    prev = sqrt0
    for k in range(n_seg):
        a = z0 + (z1 - z0) * (k / n_seg)
        b = z0 + (z1 - z0) * ((k + 1) / n_seg)
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        acc = 0.0 + 0.0j
        for t, w in zip(_GL_NODES, _GL_WEIGHTS):
            s = mid + half * t
            root = cmath.sqrt(g(s))
            if abs(root - prev) > abs(root + prev):
                root = -root
            prev = root
            acc += w / root
        total += half * acc
    # branch value at the endpoint itself
    root = cmath.sqrt(g(z1))
    if abs(root - prev) > abs(root + prev):
        root = -root
    return total, root


def _log_complex(c, lat, x, y):
    """u = int_oo^P dx/(2y+a1 x+a3) via the s = 1/sqrt(x) substitution."""
    g, g_roots = _g_poly(c)
    s0 = 1.0 / cmath.sqrt(complex(x))
    bad = [r for r in g_roots if abs(r) < 2.0 * abs(s0) + 1.0]
    margin = 0.08 * max(abs(s0), 1e-3)
    if _segment_needs_detour(0.0 + 0.0j, s0, bad, margin):
        # detour through a sideways midpoint
        perp = 1j * s0 / abs(s0)
        for sign in (1.0, -1.0):
            m = 0.5 * s0 + sign * perp * 4.0 * margin
            if not (
                _segment_needs_detour(0.0 + 0.0j, m, bad, margin)
                or _segment_needs_detour(m, s0, bad, margin)
            ):
                break
        else:
            m = 0.5 * s0 + perp * 8.0 * margin
        i1, mid_sqrt = _integrate_branch_tracked(g, 0.0 + 0.0j, m, 2.0 + 0.0j)
        i2, end_sqrt = _integrate_branch_tracked(g, m, s0, mid_sqrt)
        integral = i1 + i2
    else:
        integral, end_sqrt = _integrate_branch_tracked(g, 0.0 + 0.0j, s0, 2.0 + 0.0j)
    w = 2 * complex(y) + complex(c.a1) * complex(x) + complex(c.a3)
    # on the chosen branch, w = +- end_sqrt / s0^3; the sign decides du = +-ds
    target = end_sqrt / s0**3
    if abs(w + target) < abs(w - target):
        u = 2.0 * integral
    else:
        u = -2.0 * integral
    return u


def reduce_mod_lattice(u: complex, lat: PeriodLattice) -> complex:
    """Representative of u with lattice coordinates in [0, 1)."""
    u = complex(u)
    # solve u = a*omega1 + b*omega2 over R as a 2x2 system on (Re, Im)
    w1, w2 = lat.omega1, lat.omega2
    m = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    a, b = np.linalg.solve(m, [u.real, u.imag])
    a -= math.floor(a + 1e-12)
    b -= math.floor(b + 1e-12)
    return a * w1 + b * w2


def elliptic_log(c: WeierstrassCurve, lat: PeriodLattice, p: CurvePoint,
                 tol: float = 1e-12) -> complex:
    """u in C/Lambda with P = (x(u), y(u)) under the Abel map; u(O) = 0."""
    if p.infinity:
        return 0.0 + 0.0j
    if not c.contains(p):
        raise OffCurveError("point not on curve")
    x, y = complex(p.x), complex(p.y)
    w = 2 * y + complex(c.a1) * x + complex(c.a3)
    r1 = lat.roots[0]
    real_pt = abs(x.imag) < 1e-12 * (1 + abs(x)) and abs(y.imag) < 1e-12 * (1 + abs(y))
    if real_pt and x.real >= r1 - 1e-12 * (1 + abs(r1)):
        if abs(w) < 1e-9 * (1 + abs(x)) ** 1.5 and abs(x.real - r1) < 1e-9 * (1 + abs(r1)):
            return 0.5 * lat.omega1  # 2-torsion on the identity component
        u = _log_real_identity(c, lat, x.real, w.real)
        return complex(u)
    if real_pt and lat.rectangular:
        e1, e2, e3 = lat.roots
        if e3 - 1e-9 * (1 + abs(e3)) <= x.real <= e2 + 1e-9 * (1 + abs(e2)):
            if abs(w) < 1e-9 * (1 + abs(x)) ** 1.5:
                # 2-torsion on the egg
                if abs(x.real - e3) < abs(x.real - e2):
                    return 0.5 * lat.omega2
                return 0.5 * lat.omega2 + 0.5 * lat.omega1
            xr = min(max(x.real, e3), e2)
            return reduce_mod_lattice(_log_real_egg(c, lat, xr, w.real, tol), lat)
    return reduce_mod_lattice(_log_complex(c, lat, x, y), lat)


def q_point(c: WeierstrassCurve, lat: PeriodLattice, p: CurvePoint):
    """Image of P on the Tate curve C^x/q^Z: z = e^{2 pi i u/omega1}."""
    from .dilogarithm import QPoint

    u = elliptic_log(c, lat, p)
    z = cmath.exp(2j * math.pi * u / lat.omega1)
    return QPoint(lat.q, z)


def u_to_qz(u: complex, lat: PeriodLattice):
    """z = e^{2 pi i u / omega1} as a QPoint, for externally assembled u."""
    from .dilogarithm import QPoint

    return QPoint(lat.q, cmath.exp(2j * math.pi * complex(u) / lat.omega1))


# ---------------------------------------------------------------------------
# family model bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyModel:
    """Weierstrass target of a family member plus coordinate transport.

    ``to_curve`` maps an affine zero (x, y) of the family polynomial to a
    point of ``curve``; ``from_curve`` inverts it (fixing one square-root
    branch where the quotient map is 2:1).  ``cubic`` holds the
    intermediate hyperelliptic cubic h as coefficients [c3, c2, c1, c0]
    for h(Z) = c3 Z^3 + c2 Z^2 + c1 Z + c0.
    """

    family: str
    param: float
    curve: WeierstrassCurve
    cubic: tuple
    to_curve: Callable = field(repr=False)
    from_curve: Callable = field(repr=False)


def deuring_curve(alpha) -> WeierstrassCurve:
    """Y^2 + (alpha-2) X Y + alpha Y = X^3."""
    return WeierstrassCurve(a1=alpha - 2, a3=alpha)


def quartic_twist_curve(alpha) -> WeierstrassCurve:
    """W^2 = Z^3 + (alpha^2-24) Z^2 - 16 (alpha^2-9) Z."""
    a = alpha
    return WeierstrassCurve(a2=a * a - 24, a4=-16 * (a * a - 9))


def family_models(family: str, param) -> FamilyModel:
    family = family.upper()
    if family == "P":
        return _model_p(param)
    if family == "S":
        return _model_s(param)
    if family == "Q":
        return _model_q(param)
    if family == "R":
        return _model_r(param)
    raise DegenerateInputError(f"unknown family {family!r}")


def _model_p(alpha):
    if alpha * (alpha + 1) * (alpha - 8) == 0:
        raise DegenerateFamilyError(f"singular member at alpha={alpha}")
    curve = deuring_curve(alpha)

    def to_curve(x, y):
        den = x + y - alpha
        return CurvePoint(alpha * (x + y + 1) / den, alpha * (-alpha * x + y + 1) / den)

    def from_curve(pt: CurvePoint):
        X, Y = pt.x, pt.y
        return ((X - Y) / (X - alpha), (Y + (alpha - 1) * X + alpha) / (X - alpha))

    return FamilyModel("P", alpha, curve, (0, 0, 0, 0), to_curve, from_curve)


def _model_s(alpha):
    if alpha * (alpha + 1) * (alpha - 8) == 0:
        raise DegenerateFamilyError(f"singular member at alpha={alpha}")
    curve = deuring_curve(alpha)
    a = alpha
    cubic = (a * a + a, -2 * a * a + 5 * a + 4, a * a - 5 * a + 8, -a + 4)

    def to_curve(x1, y1):
        X1 = (x1 + 1) / (x1 - 1)
        Y1 = 4 * (y1 * y1 - x1**4) / (y1 * (x1 - 1) ** 3 * (x1 + 1))
        Z1 = X1 * X1
        X = ((a * a + a) * Z1 - (a * a - 3 * a)) / 4
        Y = a * ((a + 1) * Y1 + (-a * a + a + 2) * Z1 + (a * a - 5 * a + 2)) / 8
        return CurvePoint(X, Y)

    def from_curve(pt: CurvePoint):
        X, Y = pt.x, pt.y
        Z1 = (4 * X + a * a - 3 * a) / (a * a + a)
        Y1 = 4 * (2 * Y + (a - 2) * X + a) / (a * a + a)
        X1 = _sqrt_generic(Z1)
        x1 = (X1 + 1) / (X1 - 1)
        y1 = (2 * X1 * Y1 - (2 * a + 1) * X1**4 + (2 * a - 6) * X1 * X1 - 1) / (X1 - 1) ** 4
        return (x1, y1)

    return FamilyModel("S", alpha, curve, cubic, to_curve, from_curve)


def _model_q(alpha):
    a = alpha
    if a * a == 9:
        raise DegenerateFamilyError(f"degenerate member at alpha={alpha} (alpha^2=9)")
    curve = quartic_twist_curve(a)
    cubic = (a * a - 9, -(2 * a * a - 3), a * a + 5, 1)

    def to_curve(x2, y2):
        X2 = (x2 + 1) / (x2 - 1)
        Y2 = 4 * (2 * (x2 * x2 + x2 + 1) * y2 + a * x2 * (x2 + 1)) / (x2 - 1) ** 3
        Z2 = X2 * X2
        return CurvePoint((a * a - 9) * (Z2 - 1), (a * a - 9) * Y2)

    def from_curve(pt: CurvePoint):
        Z, W = pt.x, pt.y
        Z2 = Z / (a * a - 9) + 1
        Y2 = W / (a * a - 9)
        X2 = _sqrt_generic(Z2)
        x2 = (X2 + 1) / (X2 - 1)
        y2 = (Y2 - a * X2 * (X2 * X2 - 1)) / ((X2 - 1) * (3 * X2 * X2 + 1))
        return (x2, y2)

    return FamilyModel("Q", a, curve, cubic, to_curve, from_curve)


def _model_r(beta):
    b = beta
    alpha = b - 2
    if alpha * alpha == 9:
        raise DegenerateFamilyError(f"degenerate member at beta={beta}")
    if (b * b - b - 2) == 0:
        raise DegenerateFamilyError(f"degenerate member at beta={beta}")
    curve = quartic_twist_curve(alpha)
    cubic = (b * b - b - 2, -2 * b * b + 11 * b - 2, b * b - 11 * b + 26, b - 6)

    def to_curve(x3, y3):
        X3 = (x3 + 1) / (x3 - 1)
        Y3 = (
            4
            * (2 * (x3 * x3 + x3 + 1) * y3 + x3**4 + b * x3**3 + (2 * b - 4) * x3 * x3 + b * x3 + 1)
            / ((x3 - 1) ** 3 * (x3 + 1))
        )
        Z3 = X3 * X3
        Z = (b * b - b - 2) * Z3 - (b * b - 5 * b - 6)
        W = (b * b - b - 2) * Y3
        return CurvePoint(Z, W)

    def from_curve(pt: CurvePoint):
        Z, W = pt.x, pt.y
        Z3 = (Z + (b * b - 5 * b - 6)) / (b * b - b - 2)
        Y3 = W / (b * b - b - 2)
        X3 = _sqrt_generic(Z3)
        x3 = (X3 + 1) / (X3 - 1)
        y3 = (2 * X3 * Y3 - (2 * b - 1) * X3**4 + (2 * b - 10) * X3 * X3 + 1) / (
            (X3 - 1) ** 2 * (3 * X3 * X3 + 1)
        )
        return (x3, y3)

    return FamilyModel("R", b, curve, cubic, to_curve, from_curve)


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
