"""L-series of the integral family curves and L'(E, 0).

a_p comes from direct point counting over F_p, every prime of a table in
one array pass: w(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 mod p over the nodes
x = 0..p-1 of all primes, concatenated, is looked up in a table of the
quadratic characters mod each p and summed per prime.  The node and
character tables depend only on the set of primes and are built once.
Bad-prime coefficients use the count of nonsingular points, which lands
in {1, -1, 0} according to split-multiplicative / nonsplit-multiplicative
/ additive reduction.  a_n follows in one pass over a smallest-prime-factor
sieve.  The completed L-function is evaluated through the smoothed
approximate functional equation, whose half-sums are dot products with
cached incomplete-gamma weights (``_weights``), and L'(E, 0) = Lambda(0).

The functional-equation sign is never taken from the literature: it is
detected numerically by demanding that the approximate functional
equation give cutoff-independent values (only the true sign does).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .elliptic import WeierstrassCurve, deuring_curve
from .numerics import DegenerateInputError, upper_gamma


class NeedsOverrideError(ValueError):
    """A bad-prime coefficient could not be derived from the model."""


class InconsistentDataError(ValueError):
    """An a_p breaks the Hasse bound, or neither functional-equation sign fits."""


class MissingPrimeError(KeyError):
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


@dataclass
class APTable:
    curve: WeierstrassCurve
    ap: dict
    bad: dict  # prime -> reduction type string

    def __post_init__(self):
        for p, a in self.ap.items():
            if p in self.bad:
                if a not in (-1, 0, 1):
                    raise ValueError(f"bad-prime a_{p}={a} outside {{1,-1,0}}")
            elif a * a > 4 * p:
                raise ValueError(f"a_{p}={a} violates the Hasse bound")


@dataclass
class LSeries:
    conductor: int
    epsilon: int
    coefficients: list = field(repr=False)  # a_1 .. a_M at indices 1 .. M

    def __post_init__(self):
        if self.conductor <= 0:
            raise ValueError("conductor must be positive")
        if self.epsilon not in (-1, 1):
            raise ValueError("sign must be +-1")
        if self.coefficients[1] != 1:
            raise ValueError("a_1 must be 1")
        self._a = np.array(self.coefficients, dtype=float)  # for _half_sum, made once

    @property
    def bound(self) -> int:
        return len(self.coefficients) - 1


def _smallest_prime_factors(m: int) -> list:
    """spf[n] for 0 <= n <= m; n >= 2 is prime exactly when spf[n] == n."""
    spf = np.arange(m + 1)
    for i in range(math.isqrt(m), 1, -1):
        spf[i * i:: i] = i  # the smallest i dividing n with i^2 <= n is prime
    return spf.tolist()


def _int_coeffs(c: WeierstrassCurve):
    coeffs = []
    for a in (c.a1, c.a2, c.a3, c.a4, c.a6):
        if a != int(a):
            raise DegenerateInputError("integer model required for counting")
        coeffs.append(int(a))
    return coeffs


@functools.lru_cache(maxsize=8)
def _residue_tables(primes: tuple) -> tuple:
    """Node tables for counting over the odd ``primes`` in one array pass.

    The nodes are x = 0..p-1 for every prime p, concatenated.  Returns
    (x, x^2 mod p, 4x^3 mod p, p, base) per node, ``base`` being the first
    node of its prime; the quadratic character chi(r) of r mod p (1 on
    nonzero squares, 0 at 0, -1 elsewhere) at ``base + r``; and the first
    node of each prime.
    """
    modulus = np.repeat(np.array(primes, dtype=np.int64), primes)
    starts = np.cumsum((0,) + primes[:-1])
    base = np.repeat(starts, primes)
    x = np.arange(modulus.size, dtype=np.int64) - base
    x2 = x * x % modulus
    chi = np.full(modulus.size, -1, dtype=np.int8)
    chi[base + x2] = 1
    chi[starts] = 0
    tables = (x, x2, 4 * x * x2 % modulus, modulus, base, chi, starts)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _affine_count(coeffs, p):
    """#{(x, y) in F_p^2 on the curve with integer a-invariants coeffs}.

    ``p`` is one prime or an array of primes, counted elementwise: every
    odd prime in one array pass over the nodes of all of them.
    """
    primes = np.atleast_1d(np.asarray(p, dtype=np.int64))
    a1, a2, a3, a4, a6 = coeffs
    counts = primes.copy()
    odd = primes != 2
    if odd.any():
        # complete the square: (2y + a1 x + a3)^2 = w(x) = 4x^3 + b2 x^2 + 2 b4 x + b6,
        # so x carries 1 + chi(w(x)) points.  Every factor is reduced mod p
        # (the b's exactly, as Python ints), so each int64 product stays
        # below p^2 and w below 3 p^2 before its one reduction.
        odd_primes = tuple(primes[odd].tolist())
        x, x2, x3_4, modulus, base, chi, starts = _residue_tables(odd_primes)
        residues = [[b % q for q in odd_primes]
                    for b in (a1 * a1 + 4 * a2, 4 * a4 + 2 * a1 * a3, a3 * a3 + 4 * a6)]
        w, b4x2, b6 = np.repeat(np.array(residues, dtype=np.int64), odd_primes, axis=1)
        w *= x2  # in place from here on: the node arrays are large
        b4x2 *= x
        w += b4x2
        w += b6
        w += x3_4
        w %= modulus
        w += base
        counts[odd] += np.add.reduceat(chi[w], starts, dtype=np.int64)
    counts[~odd] = sum((y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0
                       for x in (0, 1) for y in (0, 1))
    return int(counts[0]) if np.ndim(p) == 0 else counts


def _hasse_checked(a: int, p: int) -> int:
    if a * a > 4 * p:
        raise InconsistentDataError(f"a_{p}={a} violates the Hasse bound")
    return a


def _bad_kind(a: int, p: int) -> str:
    kinds = {1: "split-multiplicative", -1: "nonsplit-multiplicative", 0: "additive"}
    if a not in kinds:
        raise NeedsOverrideError(
            f"nonsingular count at p={p} gives a_p={a}; the model is likely "
            "non-minimal there - supply an override"
        )
    return kinds[a]


def rescale_integral_model(c: WeierstrassCurve) -> WeierstrassCurve:
    """Strip non-minimal discriminant factors by u-rescaling (u in 6,3,2)."""
    for u in (6, 3, 2):
        scaled = (c.a1 / u, c.a2 / u**2, c.a3 / u**3, c.a4 / u**4, c.a6 / u**6)
        if all(a == int(a) for a in scaled):
            return WeierstrassCurve(*(int(a) for a in scaled))
    return c


def ap_table(c: WeierstrassCurve, conductor: int, bound: int,
             overrides: dict | None = None) -> APTable:
    c = rescale_integral_model(c)
    coeffs = _int_coeffs(c)
    disc = abs(int(c.discriminant()))
    spf = _smallest_prime_factors(bound)
    primes = np.array([n for n in range(2, bound + 1) if spf[n] == n], dtype=np.int64)
    ap = {}
    bad = {}
    for p, a in zip(primes.tolist(), (primes - _affine_count(coeffs, primes)).tolist()):
        if overrides and p in overrides:
            ap[p] = overrides[p]
            if conductor % p == 0:
                bad[p] = "override"
            continue
        if disc % p == 0:
            kind = _bad_kind(a, p)
            expected_additive = conductor % (p * p) == 0
            if expected_additive != (kind == "additive"):
                raise NeedsOverrideError(
                    f"reduction type at p={p} ({kind}) contradicts the "
                    f"conductor {conductor}; supply an override"
                )
            ap[p] = a
            bad[p] = kind
        else:
            ap[p] = _hasse_checked(a, p)
    return APTable(c, ap, bad)


def an_coefficients(apt: APTable, bound: int) -> list:
    """a_1..a_bound from the prime table via Hecke multiplicativity.

    One pass in n over a smallest-prime-factor sieve: with p = spf(n) and
    p^k the full power of p in n, a_n = a_{p^k} a_{n/p^k} unless n = p^k,
    where the Hecke recursion in k applies.
    """
    spf = _smallest_prime_factors(bound)
    a = [0] * (bound + 1)
    power = [1] * (bound + 1)  # power[n] = p^k
    a[1] = 1
    for n in range(2, bound + 1):
        p = spf[n]
        q = n // p
        power[n] = p * power[q] if q % p == 0 else p
        if power[n] != n:
            a[n] = a[power[n]] * a[n // power[n]]
        elif q == 1:
            if p not in apt.ap:
                raise MissingPrimeError(f"a_p missing for p={p}")
            a[n] = apt.ap[p]
        elif p in apt.bad:
            a[n] = a[p] * a[q]
        else:
            a[n] = a[p] * a[q] - p * a[q // p]
    return a


@functools.lru_cache(maxsize=64)
def _weights(conductor: int, s: float, cutoff: float, m: int) -> np.ndarray:
    """(sqrt(N)/(2 pi n))^s Gamma(s, 2 pi n t / sqrt(N)) for n = 1..m: shared by one N's series."""
    rtn = math.sqrt(conductor)
    n = np.arange(1.0, m + 1.0)
    w = (rtn / (2.0 * math.pi * n)) ** s * upper_gamma(s, 2.0 * math.pi * n * cutoff / rtn)
    w.setflags(write=False)
    return w


def _half_sum(series: LSeries, s: float, cutoff: float) -> float:
    """sum_n a_n (sqrt(N)/(2 pi n))^s Gamma(s, 2 pi n t / sqrt(N)) over every a_n held."""
    return float(np.dot(series._a[1:], _weights(series.conductor, s, cutoff, series.bound)))


def _half_sums(series: LSeries, s: float, cutoff: float) -> tuple:
    """(F_t(s), F_{1/t}(2 - s)) of ``lambda_completed``, whatever the sign, to a tail of 1e-10."""
    tail = math.exp(-2.0 * math.pi * series.bound * min(cutoff, 1.0 / cutoff)
                    / math.sqrt(series.conductor))
    if tail > 1e-10:
        raise DegenerateInputError(
            f"tail bound {tail:.2e} exceeds 1e-10; increase the coefficient bound"
        )
    return _half_sum(series, s, cutoff), _half_sum(series, 2.0 - s, 1.0 / cutoff)


def lambda_completed(series: LSeries, s: float, cutoff: float = 1.0) -> float:
    """Completed Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s).

    Smoothed approximate functional equation:
    Lambda(s) = F_t(s) + eps F_{1/t}(2 - s) with the half-sums F as in
    _half_sum; independent of the cutoff t when eps is correct.
    """
    f, g = _half_sums(series, s, cutoff)
    return f + series.epsilon * g


def epsilon_detect(conductor: int, coefficients: list) -> int:
    """Functional-equation sign by cutoff independence of the smoothed sum.

    For the true sign the approximate functional equation is independent
    of the splitting parameter; the wrong sign leaves an O(1) mismatch.
    """
    return _sign(LSeries(conductor, 1, coefficients))


def _sign(series: LSeries) -> int:
    """``epsilon_detect`` on a series whatever its own sign."""
    f1, g1 = _half_sums(series, 0.7, 1.0)
    f2, g2 = _half_sums(series, 0.7, 1.35)
    best = {eps: abs((f1 + eps * g1) - (f2 + eps * g2)) for eps in (1, -1)}
    winner = min(best, key=best.get)
    if best[winner] > 1e-6:
        raise InconsistentDataError(
            f"no sign fits the functional equation (residuals {best}); "
            "some coefficient is wrong"
        )
    return winner


def l_prime_zero(series: LSeries) -> float:
    """L'(E, 0) = Lambda(0) (the completed function forces L(E,0) = 0)."""
    return lambda_completed(series, 0.0)


def parse_override_file(text: str) -> dict:
    """Plain-text override table: one 'p a_p' pair per line; '#' comments."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DegenerateInputError(f"malformed override line: {line!r}")
        out[int(parts[0])] = int(parts[1])
    return out


# the seven proven parameter/ratio/conductor rows for the cubic family
TABLE_ONE = {
    -4: (Fraction(2), 36),
    2: (Fraction(1, 2), 36),
    -8: (Fraction(10), 14),
    1: (Fraction(1), 14),
    7: (Fraction(6), 14),
    -2: (Fraction(3), 20),
    4: (Fraction(2), 20),
}


def table_one_lseries(alpha: int, bound: int = 200,
                      overrides: dict | None = None) -> LSeries:
    """L-series of the cubic-family curve for a proven-ratio parameter."""
    if alpha not in TABLE_ONE:
        raise DegenerateInputError(f"alpha={alpha} is not a catalogued parameter")
    if bound < 1:
        raise DegenerateInputError(f"bound={bound} holds no coefficient; it must be at least 1")
    _, conductor = TABLE_ONE[alpha]
    apt = ap_table(deuring_curve(alpha), conductor, bound, overrides)
    series = LSeries(conductor, 1, an_coefficients(apt, bound))
    series.epsilon = _sign(series)
    return series
