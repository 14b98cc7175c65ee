"""Precision-controlled quadrature and root-finding helpers.

Two integrators are provided: an adaptive Gauss-Kronrod wrapper for
integrands that are smooth on the closed interval, and a tanh-sinh
(double-exponential) rule for integrands with inverse-square-root or
logarithmic blow-up at one or both endpoints.  The tanh-sinh rule comes
in a scalar form and an array form that integrates a vectorised
integrand over several panels at once; both share one node table and
one stopping rule.  All return a :class:`QuadratureResult` with an
error estimate and an evaluation count.

Interior singularities are *not* handled here; callers split the domain
at known bad points first.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative target accuracy plus an evaluation budget."""

    absolute: float = 1e-10
    relative: float = 0.0
    max_evaluations: int = 200_000

    def __post_init__(self):
        if self.absolute <= 0:
            raise ValueError("absolute tolerance must be > 0")
        if self.relative < 0:
            raise ValueError("relative tolerance must be >= 0")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.evaluations <= 0:
            raise ValueError("malformed quadrature result")


class NoConvergenceError(RuntimeError):
    """Raised when an integrator exhausts its budget; carries the best estimate."""

    def __init__(self, msg: str, best: QuadratureResult):
        super().__init__(msg)
        self.best = best


class DegenerateInputError(ValueError):
    pass


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: Tolerance = Tolerance()
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    f must be finite on the open interval; a < b is required.
    """
    if not a < b:
        raise DegenerateInputError(f"need a < b, got a={a}, b={b}")
    count = [0]

    def g(x):
        count[0] += 1
        return f(x)

    limit = max(10, tol.max_evaluations // 21)
    value, err, info = scipy.integrate.quad(
        g, a, b, epsabs=tol.absolute, epsrel=tol.relative, limit=limit, full_output=1
    )[:3]
    result = QuadratureResult(value, abs(err), max(count[0], 1))
    if err > max(tol.absolute, tol.relative * abs(value)) * 10:
        raise NoConvergenceError(
            f"adaptive quadrature did not reach tolerance (err={err:.3g})", result
        )
    return result


# tanh-sinh abscissa: x = mid + half*tanh(pi/2*sinh(t)).  Offsets from the
# endpoints are computed via 1 - tanh(u) = 2/(1+exp(2u)) so that singular
# factors like 1/sqrt(x-a) stay accurate near the boundary.
_TS_TMAX = 4.8  # sinh(4.8)*pi/2 ~ 95: endpoint offsets stay normal floats
_TS_LEVELS = 12  # refinements after the h = 1 trapezoid


@dataclass(frozen=True)
class _TanhSinhLevel:
    """New nodes of one refinement level.

    On (a, b) a node lies (b - a) / divisor from its nearer endpoint, the
    left one where ``left`` is true, with weight
    (b - a)/2 * (pi/2) * cosh_t / cosh_u2 before the step h.  The scalar
    rule reads these factors from ``nodes`` as Python floats; the array
    rule reads ``step`` (the offset on a unit interval, signed towards the
    interior) and ``weight`` (the weight on a unit interval).
    """

    nodes: tuple  # (divisor, cosh_t, cosh_u2, left) per node
    step: np.ndarray
    weight: np.ndarray
    left: np.ndarray


@functools.lru_cache(maxsize=None)
def _ts_level(level: int) -> _TanhSinhLevel:
    """Level 0: t = -4..4 at h = 1; level j: the odd multiples of h = 2^-j within _TS_TMAX."""
    h = 0.5**level
    n = int(_TS_TMAX / h)
    if level == 0:
        ks = range(-n, n + 1)
    else:
        ks = range(-n if n % 2 else 1 - n, n + 1, 2)
    nodes = []
    for k in ks:
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        nodes.append((1.0 + math.exp(2.0 * abs(u)), math.cosh(t), math.cosh(u) ** 2, u < 0))
    divisor, cosh_t, cosh_u2, left = (np.array(col) for col in zip(*nodes))
    step = np.where(left, 1.0, -1.0) / divisor
    weight = 0.25 * math.pi * cosh_t / cosh_u2
    for arr in (step, weight, left):
        arr.setflags(write=False)
    return _TanhSinhLevel(tuple(nodes), step, weight, left)


def integrate_endpoint_singular(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = Tolerance(),
    *,
    offsets: bool = False,
) -> QuadratureResult:
    """Tanh-sinh integration of f over (a, b).

    Tolerates integrable endpoint singularities up to (x-a)^(-1/2) and
    log(x-a) behavior (and likewise at b).  f is never evaluated at the
    endpoints themselves.

    With ``offsets=True`` the integrand is called as f(off_a, off_b),
    where off_a = x - a and off_b = b - x are computed cancellation-free.
    A plain f(x) cannot resolve offsets below ~1e-16*(b-a), which caps
    its accuracy near 1e-8 for inverse-square-root singularities; the
    offset form reaches machine precision.
    """
    if not a < b:
        raise DegenerateInputError(f"need a < b, got a={a}, b={b}")
    width = b - a
    scale = 0.5 * width * 0.5 * math.pi

    def level_sum(level):
        nodes = _ts_level(level).nodes
        acc = 0.0
        for divisor, cosh_t, cosh_u2, left in nodes:
            off = width / divisor
            w = scale * cosh_t / cosh_u2
            if offsets:
                acc += w * f(off, width - off) if left else w * f(width - off, off)
                continue
            x = a + off if left else b - off
            if a < x < b:  # else rounded onto an endpoint; weighted term is ~1e-37
                acc += w * f(x)
        return acc, len(nodes)

    return _refine(level_sum, tol)


def integrate_panels_singular(
    f: Callable[[np.ndarray], np.ndarray],
    panels,
    tol: Tolerance = Tolerance(),
) -> QuadratureResult:
    """Tanh-sinh integration of a vectorised f over the sum of several panels.

    ``panels`` is a sequence of (a, b) pairs with a < b; f may have
    integrable logarithmic or inverse-square-root singularities at any
    panel end and is never evaluated there.  Each refinement level calls
    f once, on one array holding the new nodes of every panel.  Stopping
    and error semantics are those of ``integrate_endpoint_singular``.
    """
    if not panels or not all(a < b for a, b in panels):
        raise DegenerateInputError(f"need panels with a < b, got {panels!r}")
    ends = np.asarray(panels, dtype=float)
    lo, hi = ends[:, :1], ends[:, 1:]
    width = hi - lo

    def level_sum(level):
        nodes = _ts_level(level)
        x = np.where(nodes.left, lo, hi) + width * nodes.step
        inside = (lo < x) & (x < hi)  # else rounded onto an end; weighted term is ~1e-37
        x = x[inside]
        return float(np.dot((width * nodes.weight)[inside], f(x))), x.size

    return _refine(level_sum, tol)


def _refine(level_sum, tol: Tolerance) -> QuadratureResult:
    """Add tanh-sinh levels until two successive estimates differ by at most 0.1*tol.

    ``level_sum(level)`` returns the weighted sum over that level's new
    nodes, without the step h, and the number of evaluations it made.  At
    the level cap or the evaluation budget a difference up to tol is
    accepted; beyond that NoConvergenceError carries the best estimate.
    """
    evals = 0
    total = 0.0
    estimate = 0.0
    err = math.inf
    for level in range(_TS_LEVELS + 1):
        if evals > tol.max_evaluations:
            break
        acc, n = level_sum(level)
        evals += n
        total += acc
        prev, estimate = estimate, 0.5**level * total
        if level:
            err = abs(estimate - prev)
            if err <= max(tol.absolute, tol.relative * abs(estimate)) * 0.1:
                return QuadratureResult(estimate, err, max(evals, 1))
    best = QuadratureResult(estimate, err, max(evals, 1))
    if err <= max(tol.absolute, tol.relative * abs(estimate)):
        return best
    raise NoConvergenceError(
        f"tanh-sinh quadrature stalled at error {err:.3g}", best
    )


def solve_quadratic_stable(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of a*z^2 + b*z + c = 0, cancellation-safe.

    The larger-magnitude root is computed from the quadratic formula with
    the non-cancelling sign; the other follows from the root product c/a.
    """
    if a == 0:
        raise DegenerateInputError("leading coefficient is zero")
    if c == 0:
        return (0.0 + 0.0j, -b / a)
    d = cmath.sqrt(b * b - 4 * a * c)
    if abs(-b + d) >= abs(-b - d):
        r1 = (-b + d) / (2 * a)
    else:
        r1 = (-b - d) / (2 * a)
    r2 = c / (a * r1)
    return (r1, r2)
