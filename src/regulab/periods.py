"""Every lhs-against-rhs identity regulab checks, as one table.

``IDENTITIES`` holds a row per identity: its two sides as functions of
the parameter, its regime guard where it has one, and its record name.
``check`` builds a row's ``Record`` (name, lhs, rhs, residual, tol); every
campaign record but the exact diamond chains, and ``regulator``'s, comes
from it.  The rows: Boyd's measure identities S = 2P, S = P and Q = R, the
Table-1 ratio m(P)/L'(E,0), the S and R Steinberg vanishings, the regulator
ratio 2 pi m(P)/|D^E(x <> y)|, the three period identities between the
families' cycle integrals (``verify_period_identity``) and the six
substitutions that chain the S-side integral to the P-side one
(``change_of_variable_check``).  Each cycle integral is one Carlson R_F in
closed form (``elliptic.complete_integral``), the families' from their
records' ``cycle`` fields and the substitutions' from the quartics below.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .divisors import diamond, family_divisor_catalog, family_embedding
from .elliptic import complete_integral
from .families import FAMILIES
from .lfunctions import TABLE_ONE, l_prime_zero, table_one_lseries
from .mahler import FamilySpec, family_poly, mahler_quadratic_y
from .numerics import DegenerateInputError, Record, Tolerance


# ---------------------------------------------------------------------------
# the substitutions' integrals, over linear factors as in ``families``
# ---------------------------------------------------------------------------


def _k_integral(alpha: float, interval: str):
    """int ds / sqrt(s (1-s) (alpha^2 s^2 + alpha (4-alpha) s + 4)).

    interval 'unit' -> [0, 1] (quadratic positive there for 0<alpha<8);
    'outer' -> [1, hi] and 'inner' -> [0, lo] for alpha < -1, where lo, hi
    are the quadratic's roots.
    """
    a2 = alpha * alpha
    if interval == "unit":
        # the quadratic is alpha^2 (s - r)(s - conj r)
        r = complex(alpha - 4.0, math.sqrt(alpha * (8.0 - alpha))) / (2.0 * alpha)
        factors = ((0.0, 1.0), (1.0, -1.0), (-a2 * r, a2), (-r.conjugate(), 1.0))
        return complete_integral(factors, 0.0, 1.0)
    # 0 < lo < 1 < hi; the quadratic is 4 (alpha + 1) at s = 1
    hi_m1 = (alpha + 4.0 + math.sqrt(a2 - 8.0 * alpha)) / (-2.0 * alpha)
    one_m_lo = -4.0 * (alpha + 1.0) / (a2 * hi_m1)
    lo = 4.0 / (a2 * (1.0 + hi_m1))
    if interval == "outer":  # w = s - 1
        factors = ((1.0, 1.0), (0.0, 1.0), (a2 * one_m_lo, a2), (hi_m1, -1.0))
        return complete_integral(factors, 0.0, hi_m1)
    factors = ((lo, -1.0), (one_m_lo, 1.0), (0.0, a2), (hi_m1 + one_m_lo, 1.0))  # w = lo - s
    return complete_integral(factors, 0.0, lo)


def _u_integral(alpha: float):
    """int_0^oo du / sqrt(u (u^2 + 2c u + d)), c = alpha^2/4 - alpha - 2,
    d = alpha^3 (alpha-8)/16; the quadratic has no real roots for alpha < -1."""
    # roots -c +- i sqrt(d - c^2), and d - c^2 = -4 (alpha + 1)
    r = complex(-(alpha * alpha / 4.0 - alpha - 2.0), 2.0 * math.sqrt(-1.0 - alpha))
    return complete_integral(((0.0, 1.0), (-r, 1.0), (-r.conjugate(), 1.0)), 0.0, math.inf)


def _v_integral(alpha: float):
    """int_{v0}^oo dv / sqrt(v (v^2 - c v + alpha + 1)) with v0 the larger
    root of the quadratic (alpha < -1)."""
    c = alpha * alpha / 4.0 - alpha - 2.0
    # c^2 - 4 (alpha + 1) = alpha^3 (alpha - 8) / 16; the roots' product is alpha + 1 < 0
    big = (c + math.copysign(-alpha * math.sqrt(alpha * alpha - 8.0 * alpha) / 4.0, c)) / 2.0
    v_m, v0 = sorted((big, (alpha + 1.0) / big))
    return complete_integral(((0.0, 1.0), (-v0, 1.0), (-v_m, 1.0)), v0, math.inf)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


class Identity(NamedTuple):
    """One row: lhs(a) against rhs(a) at a parameter a."""

    lhs: Callable  # lhs(a, **kw); only Table 1's takes a keyword, the a_p overrides
    rhs: Callable
    guard: tuple = None  # (admits(a), message formatted with the key) where there is one
    kind: str = ""  # "identity" or "map": the rows of the two period entry points below
    name: str = "{key}@{a:g}"  # the record's; formatted with the key, a and b = a + 2


def _measure(family: str, a: float) -> float:
    return mahler_quadratic_y(family_poly(FamilySpec(family, a)))


def _cycle(family: str, a: float) -> float:
    return FAMILIES[family].cycle(a)[1]


def _dilog(family: str, a: float, f: str = "steinberg_f", g: str = "steinberg_1mf") -> float:
    """D^E of the diamond f <> g of the family's divisor catalog, at parameter a."""
    cat = family_divisor_catalog(family)
    return family_embedding(family, a).elliptic_dilog_of(diamond(cat[f], cat[g]))


_BELOW = (lambda a: a < -1.0, "{key} needs alpha < -1")

IDENTITIES = {
    # Mahler measures: m(S) = 2 m(P) from 0, m(S) = m(P) below 0, m(Q) at a = m(R) at a + 2
    "s-eq-2p": Identity(lambda a: _measure("S", a), lambda a: 2 * _measure("P", a),
                        name="m(S_{a:g})=2m(P_{a:g})"),
    "s-eq-p": Identity(lambda a: _measure("S", a), lambda a: _measure("P", a),
                       name="m(S_{a:g})=m(P_{a:g})"),
    "q-eq-r": Identity(lambda a: _measure("Q", a), lambda a: _measure("R", a + 2),
                       name="m(Q_{a:g})=m(R_{b:g})"),
    # m(P) / L'(E, 0) against Table 1's rational, at its integer alpha
    "table1": Identity(lambda a, overrides=None: _measure("P", a) / l_prime_zero(
        table_one_lseries(a, overrides=overrides)), lambda a: float(TABLE_ONE[a][0]),
        name="ratio@alpha={a}"),
    # D^E of the Steinberg element {f, 1 - f} vanishes
    "S-steinberg": Identity(lambda a: _dilog("S", a), lambda a: 0.0),
    "R-steinberg": Identity(lambda a: _dilog("R", a), lambda a: 0.0),
    # the regulator: 2 pi m(P) = |D^E(x <> y)|
    "regulator": Identity(lambda a: 2.0 * math.pi * _measure("P", a)
                          / abs(_dilog("P", a, "x", "y")), lambda a: 1.0, name="ratio"),
    # cycle integrals: 2 P = S on 0 < alpha < 8, P = S below -1, Q at alpha = R at alpha + 2
    "p-doubled-vs-s": Identity(lambda a: 2.0 * _cycle("P", a), lambda a: _cycle("S", a),
                               (lambda a: 0.0 < a < 8.0, "needs 0 < alpha < 8"), "identity"),
    "p-vs-s": Identity(lambda a: _cycle("P", a), lambda a: _cycle("S", a),
                       (lambda a: a < -1.0, "needs alpha < -1"), "identity"),
    "q-vs-r": Identity(lambda a: _cycle("Q", a), lambda a: _cycle("R", a + 2.0), None, "identity"),
    # the substitutions from the S cycle to the P cycle; the S cycle raises outside
    # 0 < alpha < 8 and alpha < -1
    "shift-scale": Identity(  # t = (alpha s - alpha + 2)/2, onto the symmetric quartic in s
        lambda a: _cycle("S", a), lambda a: _k_integral(a, "unit" if a > 0.0 else "outer"),
        None, "map"),
    "mobius-involution": Identity(  # s = (1-w)/(1+alpha w)
        lambda a: _k_integral(a, "outer"), lambda a: _k_integral(a, "inner"), _BELOW, "map"),
    "reciprocal-t": Identity(  # t = 1/(1 + 4u/alpha^2)
        lambda a: _cycle("P", a), lambda a: 0.5 * _u_integral(a), _BELOW, "map"),
    "reciprocal-w": Identity(  # w = 1/(1+v)
        lambda a: _k_integral(a, "inner"), lambda a: 0.5 * _v_integral(a), _BELOW, "map"),
    "degree2-isogeny": Identity(_u_integral, _v_integral, _BELOW, "map"),  # u = v - c + (a+1)/v
    "parameter-rescale": Identity(  # beta = -8/alpha (pointwise integrand identity)
        lambda a: _cycle("P", a), lambda a: abs(-8.0 / a) / 4.0 * _k_integral(-8.0 / a, "unit"),
        _BELOW, "map"),
}


def check(key: str, param, tol: float, **kw) -> Record:
    """Row ``key`` of ``IDENTITIES`` at ``param``: lhs(param, **kw), rhs, |lhs - rhs|, tol."""
    row = IDENTITIES[key]
    if row.guard is not None and not row.guard[0](param):
        raise DegenerateInputError(row.guard[1].format(key=key))
    lhs, rhs = row.lhs(param, **kw), row.rhs(param)
    return Record(row.name.format(key=key, a=param, b=param + 2), lhs, rhs, abs(lhs - rhs), tol)


def _of_kind(key: str, kind: str) -> str:
    if key not in IDENTITIES or IDENTITIES[key].kind != kind:
        raise DegenerateInputError(f"unknown {kind} {key!r}")
    return key


def verify_period_identity(which: str, param: float,
                           tol: Tolerance = Tolerance(absolute=1e-8)) -> Record:
    """One of the three cycle-integral equalities between families: a row of kind identity."""
    return check(_of_kind(which, "identity"), param, tol.absolute)


def change_of_variable_check(map_id: str, param: float,
                             tol: Tolerance = Tolerance(absolute=1e-8)) -> Record:
    """Recompute both sides of one substitution identity: a row of kind map."""
    return check(_of_kind(map_id, "map"), param, tol.absolute)
