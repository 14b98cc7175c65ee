"""Precision-controlled quadrature, root-finding and special-function kernels.

There is one integrator, ``integrate_panel_rows``: the tanh-sinh
(double-exponential) rule of Takahasi and Mori, which tolerates
integrable inverse-square-root and logarithmic blow-up at the interval
ends.  It runs many integrals (rows) of one vectorised integrand side
by side, each over a sum of panels, and calls the integrand once on the
nodes of refinement levels 0-3 together and then once per further
level, for each bounded block of rows still refining.  A row stops at
its tolerance or at the level cap.  A call returns a
:class:`QuadratureRows`, an array each of the rows' values, error
estimates and evaluation counts; item i is row i's
:class:`QuadratureResult`, the type ``integrate_adaptive`` (a vectorised
integrand) and ``integrate_endpoint_singular`` (a scalar one) return.

Interior singularities are *not* handled here; callers split the domain
at known bad points first.

So are regulab's two special functions, ``carlson_rf`` (elliptic logs,
periods, cycle integrals) and ``upper_gamma`` (the L-series weights), and
what every module shares: the one error type per nonzero exit code of the
CLI (``DegenerateInputError``, exit 2; ``NoConvergenceError``, exit 1) and
the ``Record`` of one checked identity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DegenerateInputError(ValueError):
    """Input outside what the library computes; the CLI exits 2 on it."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute target accuracy; a quadrature row stops at it or at the level cap."""

    absolute: float = 1e-10

    def __post_init__(self):
        if not 0 < self.absolute < math.inf:  # false for NaN too
            raise DegenerateInputError("absolute tolerance must be finite and > 0")


@dataclass
class Record:
    """One checked identity: its two sides, their residual and the tolerance that judges it."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.evaluations <= 0:
            raise DegenerateInputError("malformed quadrature result")


@dataclass(frozen=True)
class QuadratureRows:
    """The rows of one ``integrate_panel_rows`` call, each ``QuadratureResult`` field an array."""

    value: np.ndarray
    error_estimate: np.ndarray
    evaluations: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> QuadratureResult:
        return QuadratureResult(self.value[i].item(), self.error_estimate[i].item(),
                                self.evaluations[i].item())


class NoConvergenceError(RuntimeError):
    """A quadrature row above its tolerance at the level cap, with its best; the CLI exits 1."""

    def __init__(self, msg: str, best: QuadratureResult):
        super().__init__(msg)
        self.best = best


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: Tolerance = Tolerance()
) -> QuadratureResult:
    """Tanh-sinh integration of a vectorised f over (a, b); a < b is required.

    ``integrate_panel_rows`` on one row of one panel: f takes an array of
    abscissae, never a or b, at most ``_TS_LEVELS - 2`` times, and the rule
    stops within 0.1 * tol of the level before or raises NoConvergenceError.
    """
    if not a < b:  # false for NaN too
        raise DegenerateInputError(f"need a < b, got ({a!r}, {b!r})")
    return integrate_panel_rows(lambda x, row: f(x), [[(a, b)]], tol)[0]


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
# Rows are independent, so each group evaluates its rows still refining in
# blocks of at most this many node slots (rows x panels x group nodes; one
# row at least), one integrand call per block.  That bounds every array of
# a call to 128 KB of floats; a torus2 inner call near a singular fibre
# would otherwise pass some 30,000 nodes at once.  glibc gives its heap top
# back once twice its largest mapped block lies free there, to fault it in
# again: torus-xcheck took 75-215 minor faults a check until torus2's one
# gather (mahler) was over half of each call's peak; now it takes under 2.
_TS_BLOCK_NODES = 1 << 14


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


def integrate_panel_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ends,
    tol: Tolerance = Tolerance(),
) -> QuadratureRows:
    """Tanh-sinh integration of many rows, each over a sum of panels, side by side.

    ``ends`` has shape (rows, panels, 2): row i integrates over the panels
    ``ends[i, k] = (a, b)`` with a <= b; an empty panel (a == b) adds nothing.
    f may have integrable logarithmic or inverse-square-root singularities at
    any panel end and is never evaluated there.  It is called as f(x, row),
    ``row[j]`` being the row of node ``x[j]``, on the new nodes of each level
    group (levels 0.._TS_FUSED, then one level at a time to ``_TS_LEVELS``)
    for each block of rows still refining: at most ``_TS_BLOCK_NODES`` node
    slots (rows x panels x group nodes), or one row.  A row stops, as if run
    alone, at its first level within 0.1 * tol of the one before, or at the
    level cap, where up to tol passes and the first block holding a row above
    that raises NoConvergenceError with its best.  A row's evaluation count
    includes any levels of the first call past its stop.
    """
    ends = np.asarray(ends, dtype=float)
    if (ends.ndim != 3 or ends.shape[2] != 2 or not np.isfinite(ends).all()
            or (ends[..., 0] > ends[..., 1]).any()):
        raise DegenerateInputError(
            f"need shape (rows, panels, 2) with finite panels a <= b, got {ends.tolist()!r}")
    total, evals = np.zeros(len(ends)), np.zeros(len(ends), dtype=int)
    estimate, err = np.full((2, len(ends)), math.inf)  # so level 0 has no error estimate
    active = np.arange(len(ends))
    for first, last in _TS_GROUPS:
        if not active.size:
            break
        nodes = _ts_group(first, last)
        block = max(1, _TS_BLOCK_NODES // (ends.shape[1] * nodes.step.size))  # rows per call
        state = (ends, nodes, first, tol, total, estimate, err, evals)
        if active.size <= block:
            active = _refine(f, active, *state)
        else:
            active = np.concatenate([_refine(f, active[i:i + block], *state)
                                     for i in range(0, active.size, block)])
    return QuadratureRows(estimate, err, np.maximum(evals, 1))


def _refine(f, active, ends, nodes, first, tol, total, estimate, err, evals):
    """Refine the rows ``active`` by the level group ``nodes``, whose first level is ``first``.

    One call of f on the group's new nodes, then one update of those rows
    of total, estimate, err and evals, in place.  Returns the rows still
    refining; at the level cap the first of them above tol raises.
    """
    a, b = ends[active, :, :1], ends[active, :, 1:]
    w = b - a
    x = np.where(nodes.left, a, b)
    x += w * nodes.step
    inside = (a < x) & (x < b)  # else rounded onto an end; weighted term is ~1e-37
    count = np.add.reduce(inside, axis=(1, 2))
    evals[active] += count  # every node of the group
    x = x[inside]  # drop the slot array before f runs: f's largest array then leads the peak
    terms = f(x, active.repeat(count)) * (w * nodes.weight)[inside]
    # one bin per (row, level), adding its terms in the order one call per level would
    levels = nodes.h.size
    key = np.arange(0, active.size * levels, levels).repeat(count)
    if levels > 1:
        key += (inside * nodes.level)[inside]
    sums = np.bincount(key, terms, active.size * levels).reshape(active.size, levels)
    # total, estimate and error after each level, as one update per level leaves them
    run = np.concatenate([total[active, None], sums], axis=1).cumsum(axis=1)[:, 1:]
    est = nodes.h * run
    diff = np.abs(est - np.concatenate([estimate[active, None], est[:, :-1]], axis=1))
    stop = diff <= 0.1 * tol.absolute  # a row stops at the first such level
    stopped = np.logical_or.reduce(stop, axis=1)
    stop[:, -1] = True  # a row still refining keeps its last level
    i, j = np.arange(active.size), stop.argmax(axis=1)
    total[active], estimate[active], err[active] = run[i, j], est[i, j], diff[i, j]
    left = active[~stopped]
    if first + levels > _TS_LEVELS and (stalled := left[~(err[left] <= tol.absolute)]).size:
        raise NoConvergenceError(f"tanh-sinh quadrature stalled at error {err[stalled[0]]:.3g}",
                                 QuadratureRows(estimate, err, np.maximum(evals, 1))[stalled[0]])
    return left


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


def carlson_rf(x, y, z) -> complex:
    """Carlson's R_F(x, y, z) for x, y, z in the plane cut along (-oo, 0], at most one 0.

    Carlson's duplication (Numer. Algorithms 10, 1995) with principal square
    roots, as x <- (sqrt x + sqrt y)(sqrt x + sqrt z)/4, free of cancellation
    even for a conjugate pair beside the cut, until the arguments agree to 1% of
    their mean, where DLMF 19.36.1 leaves about 1e-16.  Two zeros give inf.
    """
    x, y, z = complex(x), complex(y), complex(z)
    if (x == 0) + (y == 0) + (z == 0) > 1:
        return complex(math.inf)
    a = (x + y + z) / 3
    spread = 100.0 * max(abs(a - x), abs(a - y), abs(a - z))
    for _ in range(100):  # the spread shrinks 4-fold a step; the cap stops only bad input
        if spread < abs(a):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        xy, xz, yz = sx + sy, sx + sz, sy + sz
        x, y, z = 0.25 * xy * xz, 0.25 * xy * yz, 0.25 * xz * yz
        a = (x + y + z) / 3
        spread *= 0.25
    dx, dy = 1 - x / a, 1 - y / a
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44 - 5 * e2**3 / 208
            + 3 * e3 * e3 / 104 + e2 * e2 * e3 / 16) / cmath.sqrt(a)


_GAMMA_ARRAY_X = 20.0  # x from which Gamma(s, x) is one array continued fraction


def _gamma_cf(a: float, x, least: float):
    """e^x x^-a Gamma(a, x), -2 <= a < 1, by the continued fraction: 5e-16 for x >= least >= 1."""
    t, xa = 0.0, x + 1.0 - a  # x a float or an array
    for k in range(int(6.0 + 95.0 / least), 0, -1):
        t = k * (k - a) / (xa + 2 * k - t)
    return 1.0 / (xa - t)


_EULER_GAMMA = 0.5772156649015329
# zeta(k)/k for k = 2..18: lgamma(1+a) = -gamma a + sum_k (-1)^k zeta(k)/k a^k (DLMF 5.7.3)
_ZETA_OVER_K = (0.8224670334241132, 0.40068563438653143, 0.27058080842778454,
                0.20738555102867398, 0.1695571769974082, 0.1440498967688461,
                0.12550966952474304, 0.11133426586956469, 0.1000994575127818,
                0.09095401714582904, 0.083353840546109, 0.0769325164113522,
                0.07143294629536133, 0.06666870588242046, 0.06250095514121304,
                0.058823978658684585, 0.055555767627403614)


def _gamma1p_m1_over(a: float) -> float:
    """(Gamma(1+a) - 1)/a, and its limit -gamma at a = 0.

    Below |a| = 0.1, where Gamma(1+a) - 1 cancels, it is expm1(lgamma(1+a))/a
    with lgamma(1+a)/a from its series, whose terms are below 1e-18 by k = 18;
    math.lgamma itself is only good to about 4e-13 relative near 1.
    """
    if a == 0:
        return -_EULER_GAMMA
    if abs(a) >= 0.1:
        return (math.gamma(1.0 + a) - 1.0) / a
    t = 0.0
    for c in reversed(_ZETA_OVER_K):
        t = -a * (c + t)
    return math.expm1(a * (-_EULER_GAMMA - t)) / a  # the bracket is lgamma(1+a)/a


def _upper_gamma_below(a: float, x: float) -> float:
    """Gamma(a, x) for a < 1 at one x < ``_GAMMA_ARRAY_X``."""
    if x >= 1.0:
        return x**a * math.exp(-x) * _gamma_cf(a, x, x)
    # recurring down from a + 1 near 1 cancels, and the series' k = 1 term has a pole at a = -1
    if a < -0.5:
        return (_upper_gamma_below(a + 1.0, x) - x**a * math.exp(-x)) / a
    # Gamma(a) - gamma(a, x) by DLMF 8.7.3; with Gamma(a) its k = 0 term is
    # (Gamma(1+a) - x^a)/a, taken as (Gamma(1+a) - 1)/a - (x^a - 1)/a to keep it exact as a -> 0
    log_x = math.log(x)
    lead = _gamma1p_m1_over(a) - (log_x if a == 0 else math.expm1(a * log_x) / a)
    term, total = 1.0, 0.0
    for k in range(1, 20):  # x^k/k! < 1e-17 by k = 19
        term *= -x / k
        total += term / (a + k)
    return lead - x**a * total


def upper_gamma(s: float, x) -> np.ndarray:
    """Gamma(s, x) = int_x^oo t^(s-1) e^-t dt for real s, elementwise in finite x > 0.

    For s < 1 and x >= 1: the even continued fraction of DLMF 8.9.2 (any real s),
    x^s e^-x / (x+1-s - 1(1-s)/(x+3-s - ...)), run backward (``_gamma_cf``); one
    scalar loop per x below ``_GAMMA_ARRAY_X``, one array pass for the rest.  Below
    x = 1: the power series for -0.5 <= s < 1, recurring down from it for s < -0.5.
    s = 1 is e^-x; s > 1 recurs upward.  It is exactly 0 where e^-x underflows
    (x > 745).  The relative error is below 2e-14 for s >= -2 (the depth is checked
    to there), near s = 0 and -1 too: at most 1.6e-14 on s = -2, -1.99, ..., 0.99
    against 25-digit mpmath on 60 log-spaced x in [1e-3, 30].
    """
    x = np.asarray(x, dtype=float)
    if s >= 1:
        if s == 1:
            return np.exp(-x)
        return (s - 1) * upper_gamma(s - 1, x) + x ** (s - 1) * np.exp(-x)
    below = x < _GAMMA_ARRAY_X
    out = np.empty_like(x)
    out[below] = [_upper_gamma_below(s, v) for v in x[below].tolist()]
    xb = x[~below]
    out[~below] = xb**s * np.exp(-xb) * _gamma_cf(s, xb, _GAMMA_ARRAY_X)
    return out
