"""Dilogarithm, Bloch-Wigner function, and its q-averaged elliptic version.

li2 uses the power series on |z| <= 1/2 and the inversion/reflection
functional equations elsewhere, so every evaluation reduces to a
fast-converging series.  The Bloch-Wigner function D is single-valued on
the whole complex plane and vanishes on the real line; the elliptic
dilogarithm averages D over a multiplicative lattice q^Z and extends
Z-linearly to formal divisors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numerics import Tolerance

_PI2_6 = math.pi * math.pi / 6.0


class IllConditionedLatticeError(ValueError):
    pass


class UnresolvedPointError(KeyError):
    pass


@dataclass(frozen=True)
class QPoint:
    """Point z on the Tate curve C^x / q^Z with 0 < |q| < 1.

    z is normalized into the fundamental annulus |q| < |z| <= 1.
    """

    q: complex
    z: complex

    def __post_init__(self):
        aq = abs(self.q)
        if not 0 < aq < 1:
            raise ValueError(f"need 0 < |q| < 1, got |q|={aq}")
        if self.z == 0:
            raise ValueError("z must be nonzero")
        z = self.z
        az = abs(z)
        if not aq < az <= 1:
            # smallest n with |z q^n| <= 1; the annulus has width one q-power
            n = math.ceil(-math.log(az) / math.log(aq))
            z = z * self.q**n
            if abs(z) > 1:
                z = z * self.q
            elif abs(z) <= aq:
                z = z / self.q
            object.__setattr__(self, "z", z)


def _li2_series(z: complex) -> complex:
    # |z| <= 0.5: converges geometrically, ~50 terms reach 1e-16
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(1, 80):
        term *= z
        total += term / (n * n)
        if abs(term) < 1e-18 * n * n:
            break
    return total


# B_{2k} / (2k+1)! for the log-series Li2(z) = u - u^2/4 + sum B_2k u^(2k+1)/(2k+1)!
_B2K_COEF = (
    2.7777777777777776e-02,
    -2.7777777777777778e-04,
    4.7241118669690098e-06,
    -9.1857730746619636e-08,
    1.8978869988970999e-09,
    -4.0647616451442256e-11,
    8.9216910204564526e-13,
    -1.9939295860721074e-14,
    4.5189800296199182e-16,
    -1.0356517612181247e-17,
    2.3952186210261867e-19,
)


def _li2_logseries(z: complex) -> complex:
    # converges for |log(1-z)| < 2pi; used on the annulus where neither
    # z nor 1-z is small
    u = -cmath.log(1.0 - z)
    u2 = u * u
    total = u - 0.25 * u2
    upow = u * u2
    for c in _B2K_COEF:
        term = c * upow
        total += term
        if abs(term) < 1e-18:
            break
        upow *= u2
    return total


def li2(z: complex) -> complex:
    """Principal-branch dilogarithm Li_2(z), cut along [1, oo)."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if z == 1:
        return complex(_PI2_6)
    az = abs(z)
    if az > 1.0:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        lg = cmath.log(-z)
        return -li2(1.0 / z) - _PI2_6 - 0.5 * lg * lg
    if az <= 0.5:
        return _li2_series(z)
    if abs(1.0 - z) <= 0.5:
        # reflection: Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        return _PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - _li2_series(1.0 - z)
    return _li2_logseries(z)


def bloch_wigner(z: complex) -> float:
    """Bloch-Wigner function D(z) = Im Li2(z) + arg(1-z) log|z|.

    Single-valued and continuous on C; D = 0 on the real line.
    """
    z = complex(z)
    if z.imag == 0.0:
        return 0.0
    w = 1.0 - z  # cmath.phase raises OverflowError where this angle underflows
    return li2(z).imag + math.atan2(w.imag, w.real) * math.log(abs(z))


def _tail_terms(aq: float, tol: float) -> int:
    """Terms per side after which the two-sided sum for D^E is within tol.

    For |w| = r <= 1/4, |Im Li2(w)| <= |Im w| log(1/(1-r)) / r (from
    |Im w^k| <= k r^(k-1) |Im w|) and |arg(1-w)| <= 1.02 |Im w| / (1-r), so
    |D(w)| <= 1.4 r (1 + log(1/r)), which grows with r.  Past n terms the
    forward sum has |w| <= |q|^m for m > n and, by D(1/w) = -D(w), the
    backward sum has |1/w| < |q|^m for m >= n.  So with |q|^n <= 1/4 and
    L = log(1/|q|), 1.4 times
    sum_{m >= k} |q|^m (1 + m L) = |q|^k (1 + L (k + |q|/(1-|q|))) / (1-|q|)
    bounds the forward tail at k = n + 1 and the backward one at k = n.
    """
    big_l = -math.log(aq)

    def tail(k):
        return aq**k * (1 + big_l * (k + aq / (1 - aq))) / (1 - aq)

    # n is at least where the first term of the bound, 1.4 |q|^n / (1-|q|), meets tol
    n = max(4, math.ceil(math.log(4) / big_l),
            math.ceil(math.log(tol * (1 - aq) / 1.4) / -big_l))
    while 1.4 * (tail(n) + tail(n + 1)) > tol:
        n += 1
    return n


def elliptic_dilog(p: QPoint, tol: Tolerance = Tolerance(absolute=1e-12)) -> float:
    """Two-sided sum D^E(z) = sum_n D(q^n z), truncated by a tail bound (``_tail_terms``)."""
    q, z = p.q, p.z
    aq = abs(q)
    if aq >= 1 - 1e-12:
        raise IllConditionedLatticeError(f"|q|={aq} too close to 1")
    n_tail = _tail_terms(aq, tol.absolute)
    total = bloch_wigner(z)
    w = z
    for _ in range(n_tail):
        w *= q
        total += bloch_wigner(w)
    w = z
    for _ in range(n_tail):
        w /= q
        total += bloch_wigner(w)
    return total


def elliptic_dilog_divisor(embedding, divisor, tol: Tolerance = Tolerance(absolute=1e-12)) -> float:
    """Linear extension of D^E to a formal divisor.

    ``embedding`` maps each symbolic point of ``divisor`` to a QPoint
    (a mapping, or a callable).  Well-defined on the inversion quotient
    because D^E(-P) = -D^E(P).
    """
    lookup = embedding if callable(embedding) else embedding.get
    total = 0.0
    for point, mult in divisor.items():
        qp = lookup(point)
        if qp is None:
            raise UnresolvedPointError(f"no embedding for point {point}")
        total += mult * elliptic_dilog(qp, tol)
    return total
