"""Mahler measures of the quadratic-in-y family polynomials.

The main route is Jensen reduction: for P = A(x) y^2 + B(x) y + C(x),

    m(P) = m(A) + (1/2pi) int_0^{2pi} sum_i max(log|y_i(e^{i theta})|, 0) dtheta,

with the branch-label-free integrand (no choice of "the large root" is
ever needed).  Quadrature panels are split at torus zeros of A, at
angles where a root crosses the unit circle, and at discriminant
collisions, all taken from the exact unit-circle roots of polynomials
in x (A, B^2 - 4AC, and the resultant of P with its reciprocal), once
per polynomial for both methods.  Each panel is a row of one batched
tanh-sinh call; its first integrand call covers refinement levels 0-3 of
every panel, and each later call one further level.  The total tolerance
is at least TOL_FLOOR, where the rule's error estimates reach rounding
noise.  The integrand evaluates A, B, C on all theta nodes of a
call by one Horner pass and takes sum_i log+|y_i| from the moduli of
the quadratic formula, without forming the roots.  A slower direct
two-dimensional torus quadrature cross-validates the result.  Its
integrand is log|P| sampled directly; the y-roots only place the ends
of its inner phi panels, and its outer rule uses the same theta panels.
Each outer integrand call is one array of theta nodes (levels 0-3, then
one level at a time), whose inner phi integrals run side by side as rows
of one batched tanh-sinh call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .families import FAMILIES, family
from .numerics import (
    DegenerateInputError,
    Tolerance,
    integrate_adaptive,
    integrate_panel_rows,
    solve_quadratic_stable_array,
)

TWO_PI = 2.0 * math.pi
_EPS = np.finfo(float).eps
# The smallest total tolerance mahler_quadratic_y accepts.  Its per-panel
# tanh-sinh error estimates level off near 1e-14, the rounding noise of the
# integrand: on the 644 parameters of a 0.25-step grid over [-20, 20] for
# all four families none stalls at tol = 1e-13, and 44 stall at 3e-14
# (P -6, S 4, S 10.5, Q 8.25, R 6, ...).
TOL_FLOOR = 1e-13


@dataclass(frozen=True)
class FamilySpec:
    family: str
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "family", family(self.family).name)
        if not math.isfinite(self.alpha):
            raise DegenerateInputError(f"alpha must be finite, got {self.alpha!r}")


class BivariatePoly:
    """sum_j y^j * (row_j polynomial in x), y-degree <= 2.

    rows[j] lists ascending-power x coefficients of the y^j coefficient;
    ``matrix[k, j]`` is the coefficient of x^k y^j, with three columns
    whatever the y-degree.
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
        self.matrix = np.zeros((max(map(len, rows)), 3))
        for j, r in enumerate(rows):
            self.matrix[:len(r), j] = r

    @property
    def y_degree(self) -> int:
        return len(self.rows) - 1

    @functools.cached_property
    def leading_roots(self) -> np.ndarray:
        """Roots in x of P*(x), the top y-power row; found once for m(P*) and split_angles."""
        return _roots(self.rows[-1])

    @functools.cached_property
    def panels(self) -> list:
        """``split_angles`` of this polynomial; found once for Jensen and the torus method."""
        return split_angles(self)

    def coeffs_at(self, x):
        """(A, B, C) with P = A y^2 + B y + C at x, a number or an array (missing rows are 0)."""
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(-1)
        acc = np.zeros((3, flat.size), dtype=complex)
        for coeffs in self.matrix[::-1, :, None]:  # Horner, top power of x first
            acc *= flat
            acc += coeffs
        c, b, a = acc.reshape((3,) + x.shape)
        return a, b, c

    def __call__(self, x: complex, y: complex) -> complex:
        a, b, c = self.coeffs_at(x)
        return (a * y + b) * y + c


def family_poly(spec: FamilySpec) -> BivariatePoly:
    return BivariatePoly(FAMILIES[spec.family].rows(spec.alpha))


def jensen_univariate(coeffs) -> float:
    """m(p) = log|lead| + sum log max(1, |root|); coeffs descending."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), "f")
    if c.size == 0:
        raise DegenerateInputError("zero polynomial")
    return _jensen(c[0], np.roots(c))


def _jensen(lead, roots) -> float:
    """log|lead| + sum log max(1, |root|), the measure of lead * prod(x - root)."""
    return math.log(abs(lead)) + sum(math.log(abs(r)) for r in roots if abs(r) > 1.0)


def _roots(coeffs) -> np.ndarray:
    """``np.roots`` of these ascending coefficients, from its companion matrix directly.

    A coefficient that is not finite (B^2 - 4AC of a huge parameter) raises OverflowError.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.isfinite(c).all():
        raise OverflowError("a polynomial coefficient overflows double precision")
    nonzero = c.nonzero()[0]
    if not nonzero.size:
        return np.array([])
    zeros, p = nonzero[0], c[nonzero[0]:nonzero[-1] + 1][::-1]
    if p.size > 2:
        companion = np.eye(p.size - 1, k=-1)
        companion[0] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion)
    else:  # no root, or -c0/c1, which is what the 1 x 1 eigenvalue problem gives
        roots = -p[1:] / p[0]
    return np.concatenate([roots, np.zeros(zeros, roots.dtype)])


# ---------------------------------------------------------------------------
# Jensen reduction on |x| = 1
# ---------------------------------------------------------------------------


# np.roots resolves a double root only to about sqrt(eps) ~ 1e-8, so a root
# this close to |x| = 1 counts as on it, and kinks this close together count
# as one; a boundary next to a near-kink is harmless.
ON_CIRCLE = 1e-6
# A discriminant root r just off the circle leaves a near-kink in theta about
# ||r| - 1| wide at arg r (P at alpha = -1.000001: 1.2e-3 off, and tanh-sinh
# stalls across it), so such a root also bounds a panel.
NEAR_CIRCLE = 0.05


def _unit_circle_angles(roots, band=ON_CIRCLE):
    """Angles in (0, pi] of the ``roots`` within ``band`` of |x| = 1."""
    theta = np.angle(roots)
    return theta[(np.abs(np.abs(roots) - 1.0) < band) & (theta > 0.0)].tolist()


def _toric_resultant(p: BivariatePoly):
    """y-resultant of P and x^d y^n P(1/x, 1/y), ascending in x.

    For real coefficients its unit-circle roots contain every x on |x| = 1
    where a root y of P crosses |y| = 1.  For a self-inversive P (every family
    here) g = +-f below: the resultant vanishes identically and is left unformed, [].
    """
    f = p.matrix.T[:p.y_degree + 1]
    g = f[::-1, ::-1]
    if p.y_degree == 0 or np.array_equal(g, f) or np.array_equal(g, -f):
        return []

    def det(i, j):  # f_i g_j - g_i f_j
        return np.convolve(f[i], g[j]) - np.convolve(g[i], f[j])

    if p.y_degree == 1:
        return det(1, 0)
    return np.convolve(det(2, 0), det(2, 0)) - np.convolve(det(2, 1), det(1, 0))


def split_angles(p: BivariatePoly):
    """Sorted panel boundaries on [0, pi]: 0, pi and every kink in theta.

    The kinks are the unit-circle roots of the leading coefficient A (a
    root y goes to infinity), of the discriminant B^2 - 4AC (two roots
    collide) and of the toric resultant (a root crosses |y| = 1).  The
    arguments of discriminant roots within NEAR_CIRCLE of the circle are
    boundaries too.
    """
    kinks = _unit_circle_angles(p.leading_roots) + _unit_circle_angles(_roots(_toric_resultant(p)))
    if p.y_degree == 2:
        c, b, a = p.matrix.T
        kinks += _unit_circle_angles(_roots(np.convolve(b, b) - 4.0 * np.convolve(a, c)),
                                     NEAR_CIRCLE)
    pts = [0.0]
    for t in sorted(kinks):
        if t - pts[-1] > ON_CIRCLE and t < math.pi - ON_CIRCLE:
            pts.append(t)
    return pts + [math.pi]


def mahler_quadratic_y(p: BivariatePoly, tol: Tolerance = Tolerance(absolute=1e-10)) -> float:
    """Mahler measure by Jensen reduction in y (y-degree 1 or 2 required)."""
    if not tol.absolute >= TOL_FLOOR:  # NaN included
        raise DegenerateInputError(f"tol={tol.absolute:g} is below the floor {TOL_FLOOR:g}")
    if p.y_degree == 0:
        return jensen_univariate(list(reversed(p.rows[0])))
    base = _jensen(next(c for c in reversed(p.rows[-1]) if c), p.leading_roots)
    panels = p.panels
    per_panel = Tolerance(absolute=max(tol.absolute / max(len(panels), 1), 1e-14))

    def positive_log_sum(theta, row):
        a, b, c = p.coeffs_at(np.exp(1j * theta))
        if p.y_degree == 1:
            return np.log(np.maximum(np.abs(c / b), 1.0))
        return _log_plus_sum(a, b, c)

    ends = [[(lo, hi)] for lo, hi in zip(panels[:-1], panels[1:])]
    total = sum(r.value for r in integrate_panel_rows(positive_log_sum, ends, per_panel))
    # real coefficients: the [pi, 2pi] half mirrors [0, pi]
    return base + total / math.pi


def _log_plus_sum(a, b, c) -> np.ndarray:
    """log max(|y_1|, 1) + log max(|y_2|, 1) over the roots of a y^2 + b y + c, elementwise.

    No root is formed: with s = max|-b +- sqrt(b^2 - 4ac)| the larger root
    has |y_1| = s / 2|a|, and the other |y_2| = |c / (a y_1)| = 2|c| / s.
    """
    abs_a = np.abs(a)
    if not abs_a.all():
        raise DegenerateInputError("leading coefficient is zero")
    d = np.sqrt(b * b - 4 * a * c)
    half_s = 0.5 * np.maximum(np.abs(b - d), np.abs(b + d))
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 and 0/0 where c == 0
        return np.fmax(np.log(half_s / abs_a), 0.0) + np.fmax(np.log(np.abs(c) / half_s), 0.0)


def _root_rows(p: BivariatePoly, a, b, c) -> np.ndarray:
    """The y-roots of P at each node, one row per node; (a, b, c) as from ``coeffs_at``."""
    if p.y_degree == 2:
        return np.stack(solve_quadratic_stable_array(a, b, c), axis=-1)
    if p.y_degree == 1:
        return (-c / b)[:, None]
    return np.ones((len(c), 1))  # no root: one panel from phi = 0


def _phi_panel_rows(roots: np.ndarray) -> np.ndarray:
    """Cyclic phi panels, shape (rows, roots, 2), ending at each psi_i = arg y_i.

    Row j covers [psi_1, psi_1 + 2 pi) for the roots y_i of
    P(e^{i theta_j}, y).  log|P(e^{i theta}, e^{i phi})| = log|A| +
    sum_i log|e^{i phi} - y_i| is smooth in phi apart from a dip at each
    psi_i, a log singularity when |y_i| = 1, so the dips sit at panel
    ends.  Two roots of equal argument leave an empty panel.
    """
    psi = np.sort(np.angle(roots) % TWO_PI, axis=1)
    return np.stack([psi, np.concatenate([psi[:, 1:], psi[:, :1] + TWO_PI], axis=1)], axis=-1)


def mahler_torus2(p: BivariatePoly, tol: Tolerance = Tolerance(absolute=1e-5)) -> float:
    """Direct quadrature of log|P| over the torus; cross-check of Jensen reduction.

    The integrand is log|P| sampled directly.  The outer tanh-sinh rule
    runs over theta on the Jensen panels (``split_angles``) and passes a
    whole refinement level of theta nodes to one batched inner call
    (``integrate_panel_rows``), one row of phi panels per node.  The
    y-roots at each node only place the ends of its phi panels
    (``_phi_panel_rows``).  A misplaced end leaves the log singularity of
    a root on |y| = 1 inside a panel, where the inner rule stalls and
    raises NoConvergenceError instead of returning a wrong value.
    """
    inner_tol = Tolerance(absolute=0.5 * tol.absolute)  # stops at 0.05*tol

    def outer(theta: np.ndarray) -> np.ndarray:
        a, b, c = p.coeffs_at(np.exp(1j * theta))
        # on |y| = 1, |P| is not resolved below the rounding error of its
        # terms; samples that close to a torus zero can come out as exactly 0
        noise = _EPS * (np.abs(a) + np.abs(b) + np.abs(c))

        def log_abs_p(phi, row):
            y = np.exp(1j * phi)
            return np.log(np.maximum(np.abs((a[row] * y + b[row]) * y + c[row]), noise[row]))

        rows = integrate_panel_rows(log_abs_p, _phi_panel_rows(_root_rows(p, a, b, c)), inner_tol)
        return np.array([r.value for r in rows]) / TWO_PI

    # by Jensen's formula the inner average is log|A| + sum log+|y_i|, so the
    # outer integrand kinks at the same angles as the Jensen integrand
    panels = p.panels
    per_panel = Tolerance(absolute=tol.absolute * math.pi / (len(panels) - 1))
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        total += integrate_adaptive(outer, lo, hi, per_panel).value
    return total / math.pi


# ---------------------------------------------------------------------------
# path integrals of eta(x, y) = log|x| d arg y - log|y| d arg x
# ---------------------------------------------------------------------------


def eta_path_integral(x_of_t, y_of_t, partition,
                      tol: Tolerance = Tolerance(absolute=1e-9)) -> float:
    """Numeric line integral of eta along t -> (x(t), y(t)).

    ``partition`` is the increasing list of parameter breakpoints; x and y
    must be nonvanishing on every closed subinterval.  ``x_of_t`` and
    ``y_of_t`` map an array of t to an array of values.
    """
    if len(partition) < 2 or not all(lo < hi for lo, hi in zip(partition, partition[1:])):
        raise DegenerateInputError(f"need at least two increasing breakpoints, got {partition!r}")
    return _eta_rows(x_of_t, y_of_t, np.stack([partition[:-1], partition[1:]], axis=-1), tol)


def _eta_rows(x_of_t, y_of_t, ends: np.ndarray, tol: Tolerance) -> float:
    """Sum of the eta integrals over the intervals ``ends[i] = (lo, hi)``.

    Each interval is one row of one ``integrate_panel_rows`` call.  The
    derivatives are central differences with a step of 1e-7 of the
    interval's width (at least 1e-12).
    """
    step = np.maximum(1e-7 * (ends[:, 1] - ends[:, 0]), 1e-12)

    def integrand(t, row):
        x, y = x_of_t(t), y_of_t(t)
        zero = (x == 0) | (y == 0)
        if zero.any():
            raise DegenerateInputError(f"path hits a zero of x or y at t={t[zero][0]}")
        h = step[row]
        dx = (x_of_t(t + h) - x_of_t(t - h)) / (2.0 * h)
        dy = (y_of_t(t + h) - y_of_t(t - h)) / (2.0 * h)
        return np.log(np.abs(x)) * (dy / y).imag - np.log(np.abs(y)) * (dx / x).imag

    return sum(r.value for r in integrate_panel_rows(integrand, ends[:, None], tol))


def jensen_path_eta(spec: FamilySpec, tol: Tolerance = Tolerance(absolute=1e-9)) -> float:
    """int eta over the family's Jensen path {|x|=1, |y| >= 1}.

    Equals -2 pi (m(P) - m(P*)) by Jensen's formula; both torus halves
    are covered via the conjugation symmetry of real coefficients.  The
    path follows the larger y-root over the panels of ``split_angles``
    where it lies outside the unit circle.
    """
    p = family_poly(spec)

    def y_of(theta):
        roots = _root_rows(p, *p.coeffs_at(np.exp(1j * theta)))
        return roots[np.arange(len(roots)), np.abs(roots).argmax(axis=1)]

    panels = np.array(p.panels)
    ends = np.stack([panels[:-1], panels[1:]], axis=-1)
    on_path = np.abs(y_of(0.5 * (ends[:, 0] + ends[:, 1]))) >= 1.0 + 1e-13
    # the conjugate half of the torus contributes equally
    return 2.0 * _eta_rows(lambda th: np.exp(1j * th), y_of, ends[on_path], tol)
