"""Mahler measures of the quadratic-in-y family polynomials.

The main route is Jensen reduction: for P = A(x) y^2 + B(x) y + C(x),

    m(P) = m(A) + (1/2pi) int_0^{2pi} sum_i max(log|y_i(e^{i theta})|, 0) dtheta,

with the branch-label-free integrand (no choice of "the large root" is
ever needed).  Quadrature panels are split at torus zeros of A, at
angles where a root crosses the unit circle, and at discriminant
collisions, all taken from the exact unit-circle roots of polynomials
in x (A, B^2 - 4AC, and the resultant of P with its reciprocal).  A
slower direct two-dimensional torus quadrature cross-validates the
result.  Its integrand is log|P| sampled directly; the y-roots only
place the ends of its inner phi panels, and its outer rule uses the same
theta panels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .numerics import (
    DegenerateInputError,
    Tolerance,
    integrate_adaptive,
    integrate_endpoint_singular,
    integrate_panels_singular,
    solve_quadratic_stable,
)

TWO_PI = 2.0 * math.pi
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FamilySpec:
    family: str
    alpha: float

    def __post_init__(self):
        if self.family.upper() not in ("P", "S", "Q", "R"):
            raise DegenerateInputError(f"unknown family {self.family!r}")
        if not math.isfinite(self.alpha):
            raise DegenerateInputError(f"alpha must be finite, got {self.alpha!r}")
        object.__setattr__(self, "family", self.family.upper())


class BivariatePoly:
    """sum_j y^j * (row_j polynomial in x), y-degree <= 2.

    rows[j] lists ascending-power x coefficients of the y^j coefficient.
    """

    def __init__(self, rows):
        rows = [list(map(float, r)) for r in rows]
        while rows and not any(rows[-1]):
            rows.pop()
        if not rows or not any(any(r) for r in rows):
            raise DegenerateInputError("zero polynomial")
        if len(rows) > 3:
            raise DegenerateInputError("y-degree must be <= 2")
        self.rows = rows

    @property
    def y_degree(self) -> int:
        return len(self.rows) - 1

    @property
    def leading_y_coeff(self):
        """P*(x): ascending coefficients of the top y-power row."""
        return list(self.rows[-1])

    def row_at(self, j: int, x: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.rows[j]):
            acc = acc * x + c
        return acc

    def coeffs_at(self, x: complex):
        """(A, B, C) with P = A y^2 + B y + C at this x (missing rows are 0)."""
        vals = [self.row_at(j, x) for j in range(len(self.rows))]
        vals += [0.0] * (3 - len(vals))
        return vals[2], vals[1], vals[0]

    def __call__(self, x: complex, y: complex) -> complex:
        a, b, c = self.coeffs_at(x)
        return (a * y + b) * y + c


def family_poly(spec: FamilySpec) -> BivariatePoly:
    a = spec.alpha
    if spec.family == "P":
        return BivariatePoly([[0, 1, 1], [1, 2 - a, 1], [1, 1]])
    if spec.family == "S":
        return BivariatePoly([[0, 0, 0, 0, 1], [1, a, 2 * a, a, 1], [1]])
    if spec.family == "Q":
        return BivariatePoly([[0, 1, 1, 1], [0, a, a], [1, 1, 1]])
    return BivariatePoly([[0, 0, 1, 1, 1], [1, a, 2 * a - 4, a, 1], [1, 1, 1]])


def jensen_univariate(coeffs) -> float:
    """m(p) = log|lead| + sum log max(1, |root|); coeffs descending."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), "f")
    if c.size == 0:
        raise DegenerateInputError("zero polynomial")
    m = math.log(abs(c[0]))
    if c.size > 1:
        for r in np.roots(c):
            if abs(r) > 1.0:  # log+ of anything inside the disk is 0
                m += math.log(abs(r))
    return m


# ---------------------------------------------------------------------------
# Jensen reduction on |x| = 1
# ---------------------------------------------------------------------------


def _torus_roots(p: BivariatePoly, theta: float):
    x = cmath.exp(1j * theta)
    a, b, c = p.coeffs_at(x)
    if p.y_degree == 2:
        return solve_quadratic_stable(a, b, c)
    if p.y_degree == 1:
        return (-c / b,) if b != 0 else ()
    return ()


def _positive_log_sum(p: BivariatePoly, theta: float) -> float:
    total = 0.0
    for r in _torus_roots(p, theta):
        if r != 0:
            total += max(math.log(abs(r)), 0.0)
    return total


# np.roots resolves a double root only to about sqrt(eps) ~ 1e-8, so a root
# this close to |x| = 1 counts as on it, and kinks this close together count
# as one; a boundary next to a near-kink is harmless.
ON_CIRCLE = 1e-6
# A discriminant root r just off the circle leaves a near-kink in theta about
# ||r| - 1| wide at arg r (P at alpha = -1.000001: 1.2e-3 off, and tanh-sinh
# stalls across it), so such a root also bounds a panel.
NEAR_CIRCLE = 0.05


def _unit_circle_angles(coeffs, band=ON_CIRCLE):
    """Angles in (0, pi] of the roots within ``band`` of |x| = 1 (ascending coefficients)."""
    return [float(np.angle(r)) for r in np.roots(np.asarray(coeffs)[::-1])
            if abs(abs(r) - 1.0) < band and np.angle(r) > 0.0]


def _padded_rows(p: BivariatePoly):
    d = max(len(r) for r in p.rows)
    return [np.array(r + [0.0] * (d - len(r))) for r in p.rows]


def _toric_resultant(p: BivariatePoly):
    """y-resultant of P and x^d y^n P(1/x, 1/y), ascending in x; [] if identically 0.

    For real coefficients its unit-circle roots contain every x on |x| = 1
    where a root y of P crosses |y| = 1.  A self-inversive P (every family
    here) is its own reciprocal, and the resultant vanishes exactly.
    """
    f = _padded_rows(p)
    g = [r[::-1] for r in reversed(f)]

    def det(i, j):  # f_i g_j - g_i f_j: exactly 0 when g == +-f
        return npp.polysub(npp.polymul(f[i], g[j]), npp.polymul(g[i], f[j]))

    if p.y_degree == 1:
        res = det(1, 0)
    elif p.y_degree == 2:
        res = npp.polysub(npp.polymul(det(2, 0), det(2, 0)),
                          npp.polymul(det(2, 1), det(1, 0)))
    else:
        return []
    return np.trim_zeros(res, "b")


def split_angles(p: BivariatePoly):
    """Sorted panel boundaries on [0, pi]: 0, pi and every kink in theta.

    The kinks are the unit-circle roots of the leading coefficient A (a
    root y goes to infinity), of the discriminant B^2 - 4AC (two roots
    collide) and of the toric resultant (a root crosses |y| = 1).  The
    arguments of discriminant roots within NEAR_CIRCLE of the circle are
    boundaries too.
    """
    kinks = _unit_circle_angles(p.leading_y_coeff) + _unit_circle_angles(_toric_resultant(p))
    if p.y_degree == 2:
        c, b, a = _padded_rows(p)
        disc = npp.polysub(npp.polymul(b, b), 4.0 * npp.polymul(a, c))
        kinks += _unit_circle_angles(disc, NEAR_CIRCLE)
    pts = [0.0]
    for t in sorted(kinks):
        if t - pts[-1] > ON_CIRCLE and t < math.pi - ON_CIRCLE:
            pts.append(t)
    return pts + [math.pi]


def mahler_quadratic_y(p: BivariatePoly, tol: Tolerance = Tolerance(absolute=1e-10)) -> float:
    """Mahler measure by Jensen reduction in y (y-degree 1 or 2 required)."""
    if p.y_degree == 0:
        return jensen_univariate(list(reversed(p.rows[0])))
    base = jensen_univariate(list(reversed(p.leading_y_coeff)))
    panels = split_angles(p)
    per_panel = Tolerance(absolute=max(tol.absolute / max(len(panels), 1), 1e-14))
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        total += integrate_endpoint_singular(
            lambda th: _positive_log_sum(p, th), lo, hi, per_panel
        ).value
    # real coefficients: the [pi, 2pi] half mirrors [0, pi]
    return base + total / math.pi


def _phi_panels(p: BivariatePoly, theta: float):
    """Cyclic phi panels covering [psi_1, psi_1 + 2 pi), ending at each psi_i = arg y_i.

    The y_i are the roots of P(e^{i theta}, y).  log|P(e^{i theta}, e^{i phi})|
    = log|A| + sum_i log|e^{i phi} - y_i| is smooth in phi apart from a dip
    at each psi_i, a log singularity when |y_i| = 1, so the dips sit at
    panel ends.
    """
    ends = sorted(cmath.phase(r) % TWO_PI for r in _torus_roots(p, theta))
    if not ends:
        return [(0.0, TWO_PI)]
    ends.append(ends[0] + TWO_PI)
    return [(lo, hi) for lo, hi in zip(ends[:-1], ends[1:]) if lo < hi]


def mahler_torus2(p: BivariatePoly, tol: Tolerance = Tolerance(absolute=1e-5)) -> float:
    """Direct quadrature of log|P| over the torus; cross-check of Jensen reduction.

    The integrand is log|P| sampled directly.  The y-roots at each outer
    node only place the ends of the inner phi panels (``_phi_panels``).  A
    misplaced end leaves the log singularity of a root on |y| = 1 inside a
    panel, where the inner tanh-sinh rule stalls and raises
    NoConvergenceError instead of returning a wrong value.
    """
    inner_tol = Tolerance(absolute=0.5 * tol.absolute)  # stops at 0.05*tol

    def inner(theta: float) -> float:
        a, b, c = p.coeffs_at(cmath.exp(1j * theta))
        # on |y| = 1, |P| is not resolved below the rounding error of its
        # terms; samples that close to a torus zero can come out as exactly 0
        noise = _EPS * (abs(a) + abs(b) + abs(c))

        def log_abs_p(phi):
            y = np.exp(1j * phi)
            return np.log(np.maximum(np.abs((a * y + b) * y + c), noise))

        inner_panels = _phi_panels(p, theta)
        return integrate_panels_singular(log_abs_p, inner_panels, inner_tol).value / TWO_PI

    # by Jensen's formula the inner average is log|A| + sum log+|y_i|, so the
    # outer integrand kinks at the same angles as the Jensen integrand
    panels = split_angles(p)
    per_panel = Tolerance(absolute=tol.absolute * math.pi / (len(panels) - 1))
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        total += integrate_adaptive(inner, lo, hi, per_panel).value
    return total / math.pi


def mahler_family(family: str, alpha: float, method: str = "jensen",
                  tol: Tolerance = Tolerance(absolute=1e-10)) -> float:
    p = family_poly(FamilySpec(family, alpha))
    if method == "jensen":
        return mahler_quadratic_y(p, tol)
    if method == "torus2":
        return mahler_torus2(p, Tolerance(absolute=max(tol.absolute, 1e-6)))
    raise DegenerateInputError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# path integrals of eta(x, y) = log|x| d arg y - log|y| d arg x
# ---------------------------------------------------------------------------


class SingularPathError(ValueError):
    pass


def eta_path_integral(x_of_t, y_of_t, partition,
                      tol: Tolerance = Tolerance(absolute=1e-9)) -> float:
    """Numeric line integral of eta along t -> (x(t), y(t)).

    ``partition`` is the increasing list of parameter breakpoints; x and y
    must be nonvanishing on every closed subinterval.
    """
    if len(partition) < 2:
        raise DegenerateInputError("partition needs at least two breakpoints")

    def integrand(t, h):
        x, y = x_of_t(t), y_of_t(t)
        if x == 0 or y == 0:
            raise SingularPathError(f"path hits a zero of x or y at t={t}")
        dx = (x_of_t(t + h) - x_of_t(t - h)) / (2.0 * h)
        dy = (y_of_t(t + h) - y_of_t(t - h)) / (2.0 * h)
        return math.log(abs(x)) * (dy / y).imag - math.log(abs(y)) * (dx / x).imag

    total = 0.0
    for lo, hi in zip(partition[:-1], partition[1:]):
        h = max(1e-7 * (hi - lo), 1e-12)
        total += integrate_endpoint_singular(
            lambda t: integrand(t, h), lo, hi, tol
        ).value
    return total


def jensen_path_eta(spec: FamilySpec, tol: Tolerance = Tolerance(absolute=1e-9)) -> float:
    """int eta over the family's Jensen path {|x|=1, |y| >= 1}.

    Equals -2 pi (m(P) - m(P*)) by Jensen's formula; both torus halves
    are covered via the conjugation symmetry of real coefficients.
    """
    p = family_poly(spec)
    panels = split_angles(p)

    def x_of(th):
        return cmath.exp(1j * th)

    def y_of(th):
        roots = _torus_roots(p, th)
        return max(roots, key=abs)

    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        mid = 0.5 * (lo + hi)
        try:
            if abs(y_of(mid)) < 1.0 + 1e-13:
                continue  # panel lies outside the Jensen path
        except DegenerateInputError:
            pass
        total += eta_path_integral(x_of, y_of, [lo, hi], tol)
    return 2.0 * total  # conjugate half of the torus contributes equally
