"""Dilogarithm, Bloch-Wigner function, and its q-averaged elliptic version.

One array kernel evaluates Li2 on the closed unit disc: the reflection
formula where |1 - z| <= 1/2, and everywhere else the Bernoulli series in
-log(1 - z), with a fixed number of terms.  Outside the disc, the
Bloch-Wigner function uses D(1/z) = -D(z).  D is single-valued on the
whole complex plane and vanishes on the real line; the elliptic
dilogarithm averages D over a multiplicative lattice q^Z and extends
Z-linearly to formal divisors, every point times every q-power of a
divisor on one lattice in one array call.  The scalar bloch_wigner and
elliptic_dilog wrap the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Tolerance

_PI2_6 = math.pi * math.pi / 6.0


class IllConditionedLatticeError(ValueError):
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


def _li2_disc(z: np.ndarray) -> np.ndarray:
    """Li2 elementwise on |z| <= 1, by the Bernoulli log series in u = -log(1 - s).

    s = z, or s = 1 - z where |1 - z| <= 1/2 with the reflection
    Li2(z) = pi^2/6 - log(z) log(1 - z) - Li2(1 - z), and there u = -log z.
    Either way |u| < 1.5, where all eleven terms leave an error below
    ~1e-16; the series converges for |u| < 2 pi.
    """
    reflect = np.abs(1.0 - z) <= 0.5
    s = np.where(reflect, 1.0 - z, z)
    u = -np.log(1.0 - s)
    u2 = u * u
    acc = np.zeros_like(u)
    for c in reversed(_B2K_COEF):
        acc = acc * u2 + c
    series = u - 0.25 * u2 + u * u2 * acc
    # log(z) log(1 - z) = -u log(s); it is 0 at z = 1, where log(s) = -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(s == 0, 0.0, u * np.log(s))
    return np.where(reflect, _PI2_6 + cross - series, series)


def _inverted(z: np.ndarray):
    """(outside, w): where |z| > 1, w = 1/z, else w = z, so |w| <= 1."""
    outside = np.abs(z) > 1.0
    return outside, np.where(outside, 1.0 / np.where(outside, z, 1.0), z)


def _bloch_wigner(z: np.ndarray) -> np.ndarray:
    """D(z) elementwise; D(1/w) = -D(w) takes every argument into |w| <= 1."""
    outside, w = _inverted(z)
    one_minus = 1.0 - w
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at z = 0, real anyway
        d = _li2_disc(w).imag + np.arctan2(one_minus.imag, one_minus.real) * np.log(np.abs(w))
    return np.where(z.imag == 0.0, 0.0, np.where(outside, -d, d))


def bloch_wigner(z: complex) -> float:
    """Bloch-Wigner function D(z) = Im Li2(z) + arg(1-z) log|z|.

    Single-valued and continuous on C; D = 0 on the real line.
    """
    return float(_bloch_wigner(np.asarray(complex(z))))


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


def _elliptic_dilogs(q: complex, zs, tol: float) -> np.ndarray:
    """D^E(z) = sum_n D(q^n z) for each z of ``zs``, all q-powers in one array."""
    aq = abs(q)
    if aq >= 1 - 1e-12:
        raise IllConditionedLatticeError(f"|q|={aq} too close to 1")
    n_tail = _tail_terms(aq, tol)
    powers = q ** np.arange(-n_tail, n_tail + 1)
    return _bloch_wigner(np.multiply.outer(np.asarray(zs, dtype=complex), powers)).sum(axis=1)


def elliptic_dilog(p: QPoint, tol: Tolerance = Tolerance(absolute=1e-12)) -> float:
    """Two-sided sum D^E(z) = sum_n D(q^n z), truncated by a tail bound (``_tail_terms``)."""
    return float(_elliptic_dilogs(p.q, [p.z], tol.absolute)[0])


def elliptic_dilog_divisor(embedding, divisor) -> float:
    """Linear extension of D^E to a formal divisor, to 1e-12.

    ``embedding`` maps each symbolic point of ``divisor`` to a QPoint.
    Well-defined on the inversion quotient because D^E(-P) = -D^E(P).
    Points on the same lattice q^Z are summed in one array call.  The
    1e-12 bounds the whole sum: each point gets 1e-12 / sum |m|.
    """
    items = list(divisor.items())
    point_tol = 1e-12 / max(1, sum(abs(m) for _, m in items))
    by_q = {}  # q -> ([z], [multiplicity])
    for point, mult in items:
        qp = embedding(point)
        zs, mults = by_q.setdefault(qp.q, ([], []))
        zs.append(qp.z)
        mults.append(mult)
    return sum(float(np.dot(mults, _elliptic_dilogs(q, zs, point_tol)))
               for q, (zs, mults) in by_q.items())
