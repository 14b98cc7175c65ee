"""Mahler measures of the quadratic-in-y family polynomials.

The main route is Jensen reduction in c = cos theta.  For each family
P = A(x) y^2 + B(x) y + C(x), on |x| = 1 C/A = x^k and B / (A x^(k/2)) is
real, and m(A) = 0, so log+|y_1| + log+|y_2| = arccosh+(|B| / 2|A|) and

    m(P) = (1/pi) int_0^pi asinh(sqrt(K / 4|A|^2)) dtheta over K > 0,

K = |B|^2 - 4|A|^2.  K and |A|^2 are polynomials in c whose factors of
degree <= 2 the family record gives in closed form (``Family.c_factors``).
The integrand takes them factor by factor in real arithmetic, with
1 +- c = 2 cos^2(theta/2), 2 sin^2(theta/2).  Its kinks are their roots
in (-1, 1), each by the quadratic formula in its distance from the nearer
end (``split_angles``): no eigenvalue problem, no tolerance band.
Jensen's panels also end at the vertex of each quadratic factor with
complex roots, and a panel where K <= 0 is skipped.  Each panel is a row
of one batched tanh-sinh call, whose first integrand call covers levels
0-3; the total tolerance is at least TOL_FLOOR, where the error estimates
reach rounding noise.  A direct two-dimensional torus quadrature of
log|P| cross-validates the result: the y-roots only place the ends of its
inner phi panels, its outer rule uses the panels of ``split_angles``, and
each outer call of theta nodes runs their phi integrals as the rows of
one batched tanh-sinh call.
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
# all four families none stalls at tol = 1e-13, and 6 stall at 3e-14
# (Q -8.25, Q 8.25, R -14.75, R -14, R -11.5, R -5.75).
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
    """The polynomial of a ``FamilySpec``, sum_j y^j * (row_j polynomial in x), quadratic in y.

    ``matrix[k, j]`` is the coefficient of x^k y^j, and ``c_factors`` the
    family's ``c_factors`` at alpha; OverflowError where they bound K by a
    number that is not finite.
    """

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        rows = FAMILIES[spec.family].rows(spec.alpha)
        self.matrix = np.zeros((max(map(len, rows)), 3))
        for j, r in enumerate(rows):
            self.matrix[:len(r), j] = r
        k, a2 = FAMILIES[spec.family].c_factors(spec.alpha)
        # |f| <= |f(-1)| + |f(1)| + |a| on [-1, 1], so this bounds K there
        if not math.isfinite(math.prod(sum(map(abs, f)) for f in k)):
            raise OverflowError("a parameter overflows double precision")
        self.c_factors = k, a2

    @functools.cached_property
    def panels(self) -> list:
        """``split_angles`` of this polynomial; found once for Jensen and the torus method."""
        return split_angles(self)

    def coeffs_at(self, x):
        """(A, B, C) with P = A y^2 + B y + C at x, a number or an array."""
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(-1)
        acc = np.zeros((3, flat.size), dtype=complex)
        for coeffs in self.matrix[::-1, :, None]:  # Horner, top power of x first
            acc *= flat
            acc += coeffs
        c, b, a = acc.reshape((3,) + x.shape)
        return a, b, c


def family_poly(spec: FamilySpec) -> BivariatePoly:
    return BivariatePoly(spec)


# ---------------------------------------------------------------------------
# Jensen reduction in c = cos theta
# ---------------------------------------------------------------------------


def _angle(u: float, v: float) -> float:
    """arccos c from u = (1+c)/2, v = (1-c)/2 (each exact to rounding); half-angles near c = -+1."""
    if u < 0.25:
        return 2.0 * math.acos(math.sqrt(u))
    if v < 0.25:
        return 2.0 * math.asin(math.sqrt(v))
    return math.acos(u - v)


def _real_roots(a: float, b: float, c: float) -> list:
    """Both real roots of a w^2 + b w + c (a != 0), ascending, neither a cancelling difference."""
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    return sorted((q / a, c / q)) if q else [0.0, 0.0]


def _factor_angles(p: BivariatePoly):
    """(kinks, vertices): angles in (0, pi) from the factors ``p.c_factors``.

    In u = (1+c)/2 a factor is f(-1) + (f(1) - f(-1) - 4a) u + 4a u^2, in
    v = (1-c)/2 the same with f(-1) and f(1) swapped, so a root near c = -1
    is a small root in u and one near c = 1 a small root in v, each exact to
    rounding.  The kinks are the angles of the real roots in (-1, 1); the
    vertices those of the vertex -b/2a in (-1, 1) of each quadratic factor
    with complex roots, where the integrand bends sharply if they lie close.
    """
    kinks, vertices = [], []
    for lo, hi, a in sum(p.c_factors, ()):
        if not a:
            if lo < 0.0 < hi or hi < 0.0 < lo:
                kinks.append(_angle(lo / (lo - hi), hi / (hi - lo)))
            continue
        b_u, b_v = hi - lo - 4.0 * a, lo - hi - 4.0 * a
        if b_u * b_u < 16.0 * a * lo:  # complex roots
            u, v = -b_u / (8.0 * a), -b_v / (8.0 * a)
            vertices += [_angle(u, v)] if u > 0.0 and v > 0.0 else []
            continue
        roots = zip(_real_roots(4.0 * a, b_u, lo), _real_roots(4.0 * a, b_v, hi)[::-1])
        kinks += [_angle(u, v) for u, v in roots if u > 0.0 and v > 0.0]
    return kinks, vertices


def split_angles(p: BivariatePoly):
    """Sorted panel boundaries on [0, pi]: 0, pi and every kink in theta.

    The kinks are the angles of the roots in (-1, 1) of the factors of
    K = |B|^2 - 4|A|^2 (a root y crosses |y| = 1 or two roots collide) and
    of |A|^2 (a root y goes to infinity), in closed form (``_factor_angles``).
    """
    return sorted({0.0, math.pi, *_factor_angles(p)[0]})


def _product(factors, u, v, uv):
    """prod over ``factors`` (f(-1), f(1), a) of f(-1) v + f(1) u - 4a uv, elementwise."""
    out = np.ones_like(u)
    for lo, hi, a in factors:
        out *= lo * v + hi * u - 4.0 * a * uv
    return out


def mahler_quadratic_y(p: BivariatePoly, tol: Tolerance = Tolerance(absolute=1e-10)) -> float:
    """Mahler measure by Jensen reduction in y, (1/pi) int_0^pi arccosh+(|B| / 2|A|) dtheta.

    The integrand is asinh(sqrt(K / 4|A|^2)) where K > 0, in real
    arithmetic from the factors ``p.c_factors``, with 1 + c = 2 cos^2(theta/2)
    and 1 - c = 2 sin^2(theta/2).  Panels end at ``p.panels`` and at the
    vertices of ``_factor_angles``; a panel where K <= 0 at the midpoint
    adds exactly 0 and is not integrated.  m(A) = 0 for every family.
    """
    if not tol.absolute >= TOL_FLOOR:  # NaN included
        raise DegenerateInputError(f"tol={tol.absolute:g} is below the floor {TOL_FLOOR:g}")
    k_factors, a2_factors = p.c_factors

    def k_and_a2(theta):
        cos_half, sin_half = np.cos(0.5 * theta), np.sin(0.5 * theta)
        u, v = cos_half * cos_half, sin_half * sin_half
        uv = u * v
        return _product(k_factors, u, v, uv), _product(a2_factors, u, v, uv)

    def arccosh_plus(theta, row):
        k, a2 = k_and_a2(theta)
        # the root of each side apart: K / |A|^2 overflows near a zero of A at a large alpha
        return np.arcsinh(np.sqrt(np.maximum(k, 0.0)) / (2.0 * np.sqrt(a2)))

    bounds = np.array(sorted({*p.panels, *_factor_angles(p)[1]}))
    lo, hi = bounds[:-1], bounds[1:]
    positive = k_and_a2(0.5 * (lo + hi))[0] > 0.0
    ends = np.stack([lo[positive], hi[positive]], axis=-1)[:, None]
    per_panel = Tolerance(absolute=max(tol.absolute / max(len(ends), 1), 1e-14))
    # real coefficients: the [pi, 2pi] half mirrors [0, pi]
    return sum(integrate_panel_rows(arccosh_plus, ends, per_panel).value.tolist()) / math.pi


def _cis(t: np.ndarray) -> np.ndarray:
    """cos t + i sin t = e^{it} for real t, written into one array: bit for bit np.exp(1j * t)."""
    z = np.empty(np.shape(t), dtype=complex)
    np.cos(t, out=z.real)
    np.sin(t + 0.0, out=z.imag)  # 1j * -0.0 has imaginary part +0.0
    return z


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
        a, b, c = p.coeffs_at(_cis(theta))
        # on |y| = 1, |P| is not resolved below the rounding error of its
        # terms; samples that close to a torus zero can come out as exactly 0
        table = np.stack([a, b, c, _EPS * (np.abs(a) + np.abs(b) + np.abs(c))])

        def log_abs_p(phi, row):
            # one gather of the rows' a, b, c and noise: the call's largest array (numerics)
            y, (v, b_row, c_row, noise) = _cis(phi), table.take(row, axis=1)
            v *= y  # (a y + b) y + c in place
            v += b_row
            v *= y
            v += c_row
            out = np.abs(v)
            return np.log(np.maximum(out, noise.real, out=out), out=out)

        roots = np.stack(solve_quadratic_stable_array(a, b, c), axis=-1)
        rows = integrate_panel_rows(log_abs_p, _phi_panel_rows(roots), inner_tol)
        return rows.value / TWO_PI

    # by Jensen's formula the inner average is log|A| + sum log+|y_i|, so the
    # outer integrand kinks at the same angles as the Jensen integrand
    panels = p.panels
    per_panel = Tolerance(absolute=tol.absolute * math.pi / (len(panels) - 1))
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        total += integrate_adaptive(outer, lo, hi, per_panel).value
    return total / math.pi
