"""Precision-controlled quadrature and root-finding helpers.

There is one integrator, ``integrate_panel_rows``: the tanh-sinh
(double-exponential) rule of Takahasi and Mori, which tolerates
integrable inverse-square-root and logarithmic blow-up at the interval
ends.  It runs many integrals (rows) of one vectorised integrand side
by side, each over a sum of panels, and calls the integrand once on the
nodes of refinement levels 0-3 together and then once per further
level, for all rows still refining.  The other ``integrate_*`` names
are one-row entries to it.  Each row gets a :class:`QuadratureResult`
with an error estimate and an evaluation count.

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
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: Tolerance = Tolerance()
) -> QuadratureResult:
    """Tanh-sinh integration of a vectorised f over (a, b); a < b is required.

    f takes an array of abscissae and returns the integrand on it.  It is
    called once for levels 0-3 and then once per further level, so at most
    ``_TS_LEVELS - 2`` times, and never at a or b, where it may have
    integrable singularities.
    Stopping and error semantics are those of ``integrate_panel_rows``.
    """
    return integrate_panels_singular(f, [(a, b)], tol)


def integrate_endpoint_singular(
    f: Callable[[float], float], a: float, b: float, tol: Tolerance = Tolerance()
) -> QuadratureResult:
    """``integrate_adaptive`` of a scalar integrand f(x) -> float."""
    return integrate_adaptive(np.vectorize(f, otypes=[float]), a, b, tol)


# tanh-sinh abscissa: x = mid + half*tanh(pi/2*sinh(t)).  Offsets from the
# endpoints are computed via 1 - tanh(u) = 2/(1+exp(2u)) so that singular
# factors like 1/sqrt(x-a) stay accurate near the boundary.
_TS_TMAX = 4.8  # sinh(4.8)*pi/2 ~ 95: endpoint offsets stay normal floats
_TS_LEVELS = 12  # refinements after the h = 1 trapezoid
# Levels 0.._TS_FUSED (h >= 1/8, 77 nodes on a panel) share the array rule's
# first integrand call: Jensen and torus rows stop at level 1 (a panel where
# the integrand is 0) or at level 3 or later, hardly ever at 2.  Each later
# level is one call.
_TS_FUSED = 3
_TS_GROUPS = ((0, _TS_FUSED),) + tuple((j, j) for j in range(_TS_FUSED + 1, _TS_LEVELS + 1))


@dataclass(frozen=True)
class _NodeGroup:
    """New nodes of the levels first..last of a ``_TS_GROUPS`` entry, level by level.

    On a unit interval a node lies ``step`` from the endpoint that ``left``
    names (signed towards the interior) with weight ``weight`` before the
    step h; ``level`` is its level less first.  ``h`` holds the step of
    each level first..last.
    """

    step: np.ndarray
    weight: np.ndarray
    left: np.ndarray
    level: np.ndarray
    h: np.ndarray


@functools.lru_cache(maxsize=None)
def _ts_group(first: int, last: int) -> _NodeGroup:
    # level 0: t = -4..4 at h = 1; level j: the odd multiples of h = 2^-j
    # within _TS_TMAX.  On (a, b) a node lies (b - a) / divisor from its
    # nearer endpoint, with weight (b - a)/2 * (pi/2) * cosh t / cosh^2 u.
    nodes = []
    for j in range(first, last + 1):
        h = 0.5**j
        n = int(_TS_TMAX / h)
        for k in range(-n, n + 1) if j == 0 else range(-n if n % 2 else 1 - n, n + 1, 2):
            u = 0.5 * math.pi * math.sinh(k * h)
            nodes.append((j, 1.0 + math.exp(2.0 * abs(u)), math.cosh(k * h), math.cosh(u) ** 2,
                          u < 0))
    level, divisor, cosh_t, cosh_u2, left = (np.array(col) for col in zip(*nodes))
    group = _NodeGroup(np.where(left, 1.0, -1.0) / divisor, 0.25 * math.pi * cosh_t / cosh_u2,
                       left, level - first, 0.5 ** np.arange(first, last + 1))
    for arr in vars(group).values():
        arr.setflags(write=False)
    return group


def integrate_panels_singular(
    f: Callable[[np.ndarray], np.ndarray],
    panels,
    tol: Tolerance = Tolerance(),
) -> QuadratureResult:
    """Tanh-sinh integration of a vectorised f over the sum of several panels.

    ``panels`` is a sequence of (a, b) pairs with a < b; f may have
    integrable logarithmic or inverse-square-root singularities at any
    panel end and is never evaluated there.  Each call of f takes one
    array holding the new nodes of every panel: those of levels 0-3 in the
    first call, of one further level in each later one.  Stopping and error
    semantics are those of ``integrate_panel_rows``.
    """
    if not panels or not all(a < b for a, b in panels):
        raise DegenerateInputError(f"need panels with a < b, got {panels!r}")
    return integrate_panel_rows(lambda x, row: f(x), [panels], tol)[0]


def integrate_panel_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ends,
    tol: Tolerance = Tolerance(),
) -> list[QuadratureResult]:
    """One ``integrate_panels_singular`` per row of ``ends``, all run side by side.

    ``ends`` has shape (rows, panels, 2): row i integrates over the panels
    ``ends[i, k] = (a, b)`` with a <= b, where an empty panel (a == b)
    adds nothing.  f is called as f(x, row) on the new nodes of every row
    still refining, ``row[j]`` being the row of node ``x[j]``: the first
    call holds the nodes of levels 0.._TS_FUSED, and each later call those
    of one further level, up to ``_TS_LEVELS``.  Each level's sum is kept
    apart, so a row stops, level by level, at its first level whose
    estimate differs from the one before by at most 0.1 * tol: the level,
    value and error estimate of the row integrated alone.
    ``tol.max_evaluations`` is a budget per row checked before each level.
    At the level cap or the budget a difference up to tol is accepted; a
    row left above that stalls and raises NoConvergenceError carrying that
    row's best estimate.  A row's evaluation count is that of the nodes
    evaluated, which includes any levels of the first call past its stop.
    """
    ends = np.asarray(ends, dtype=float)
    if (ends.ndim != 3 or ends.shape[2] != 2 or not np.all(np.isfinite(ends))
            or np.any(ends[..., 0] > ends[..., 1])):
        raise DegenerateInputError(
            f"need shape (rows, panels, 2) with finite panels a <= b, got {ends.tolist()!r}")
    lo, hi = ends[..., :1], ends[..., 1:]
    width = hi - lo
    total = np.zeros(len(ends))
    estimate = np.zeros(len(ends))
    err = np.full(len(ends), math.inf)
    evals = np.zeros(len(ends), dtype=int)
    active = np.arange(len(ends))
    for first, last in _TS_GROUPS:
        active = active[evals[active] <= tol.max_evaluations]
        if not active.size:
            break
        nodes = _ts_group(first, last)
        a, b, w = lo[active], hi[active], width[active]
        x = np.where(nodes.left, a, b) + w * nodes.step
        inside = (a < x) & (x < b)  # else rounded onto an end; weighted term is ~1e-37
        pos, _, node = np.nonzero(inside)  # ``pos`` indexes ``active``
        fx = f(x[inside], active[pos])
        # one bin per (row, level): each level's sum adds the same terms in
        # the same order as a call for that level alone would
        shape = (active.size, last - first + 1)
        key = pos * shape[1] + nodes.level[node]
        sums = np.bincount(key, (w * nodes.weight)[inside] * fx, math.prod(shape)).reshape(shape)
        seen = evals[active, None] + np.cumsum(  # evaluations through each level
            np.bincount(key, minlength=math.prod(shape)).reshape(shape), axis=1)
        # total, estimate and error after each level, as one call per level leaves them
        running = np.cumsum(np.concatenate([total[active, None], sums], axis=1), axis=1)[:, 1:]
        est = nodes.h * running
        diff = np.abs(est - np.concatenate([estimate[active, None], est[:, :-1]], axis=1))
        if first == 0:
            diff[:, 0] = math.inf  # level 0 alone has no error estimate
        # a row stops at its first level that converges, or before a level
        # that would start over the budget
        stop = diff <= np.maximum(tol.absolute, tol.relative * np.abs(est)) * 0.1
        stop[:, :-1] |= seen[:, :-1] > tol.max_evaluations
        stopped = stop.any(axis=1)
        row, j = np.arange(active.size), np.where(stopped, stop.argmax(axis=1), shape[1] - 1)
        total[active], estimate[active], err[active] = running[row, j], est[row, j], diff[row, j]
        evals[active] = seen[:, -1]  # every node of the group was evaluated
        active = active[~stopped]
    # rows left unconverged at the level cap or the budget pass up to tol
    stalled = np.nonzero(~(err <= np.maximum(tol.absolute, tol.relative * np.abs(estimate))))[0]
    results = [QuadratureResult(v, e, max(n, 1))
               for v, e, n in zip(estimate.tolist(), err.tolist(), evals.tolist())]
    if stalled.size:
        i = stalled[0]
        raise NoConvergenceError(
            f"tanh-sinh quadrature stalled at error {err[i]:.3g}", results[i]
        )
    return results


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


def solve_quadratic_stable_array(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """``solve_quadratic_stable`` elementwise on complex arrays, with the same root order."""
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (a, b, c)))
    if np.any(a == 0):
        raise DegenerateInputError("leading coefficient is zero")
    d = np.sqrt(b * b - 4 * a * c)
    r1 = np.where(np.abs(-b + d) >= np.abs(-b - d), -b + d, -b - d) / (2 * a)
    no_c = c == 0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where c == 0
        r2 = c / (a * r1)
    return np.where(no_c, 0.0, r1), np.where(no_c, -b / a, r2)
