"""Precision-controlled quadrature and root-finding helpers.

Two integrators are provided: an adaptive Gauss-Kronrod wrapper for
integrands that are smooth on the closed interval, and a tanh-sinh
(double-exponential) rule for integrands with inverse-square-root or
logarithmic blow-up at one or both endpoints.  Both return a
:class:`QuadratureResult` with an error estimate and an evaluation count.

Interior singularities are *not* handled here; callers split the domain
at known bad points first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

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
    half = 0.5 * (b - a)
    evals = [0]

    def node_term(t):
        evals[0] += 1
        u = 0.5 * math.pi * math.sinh(t)
        # distance from the nearer endpoint, cancellation-free
        off = (b - a) / (1.0 + math.exp(2.0 * abs(u)))
        w = half * 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        if offsets:
            off_a, off_b = (off, (b - a) - off) if u < 0 else ((b - a) - off, off)
            return w * f(off_a, off_b)
        x = a + off if u < 0 else b - off
        if not a < x < b:  # rounded onto an endpoint; weighted term is ~1e-37
            return 0.0
        return w * f(x)

    # level 0: trapezoid with h=1, then refine by inserting midpoints
    h = 1.0
    n0 = int(_TS_TMAX / h)
    total = sum(node_term(k * h) for k in range(-n0, n0 + 1))
    estimate = h * total
    err = math.inf
    for _ in range(12):
        if evals[0] > tol.max_evaluations:
            break
        h *= 0.5
        n = int(_TS_TMAX / h)
        if n % 2 == 0:
            n -= 1
        # odd multiples of h only
        total += sum(node_term(k * h) for k in range(-n, n + 1, 2))
        prev, estimate = estimate, h * total
        err = abs(estimate - prev)
        if err <= max(tol.absolute, tol.relative * abs(estimate)) * 0.1:
            return QuadratureResult(estimate, err, evals[0])
    best = QuadratureResult(estimate, err, max(evals[0], 1))
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
