"""The family table: each record's polynomial, curve, maps, generators and lookup."""

import cmath
import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from regulab.divisors import diamond, family_divisor_catalog, family_embedding
from curve_oracle import add
from regulab.elliptic import CurvePoint, elliptic_log, period_lattice
from regulab.families import FAMILIES, family
from regulab.mahler import FamilySpec
from regulab.numerics import DegenerateInputError

# a sampling interval for each regime of each family's cycle, 0.3 or more
# from every singular fibre (P, S: alpha = -1, 0, 8; Q: 0, +-3; R: beta = -1, 2, 5)
REGIME_SAMPLES = {
    "P": ((0.3, 7.7), (-20.0, -1.3)),
    "S": ((0.3, 7.7), (-20.0, -1.3)),
    "Q": ((4.0, 20.0),),
    "R": ((6.0, 20.0),),
}
PER_REGIME = 40


def _params(fam):
    rng = random.Random(1)
    return [rng.uniform(*r) for r in REGIME_SAMPLES[fam.name] for _ in range(PER_REGIME)]


def _relative_residual(c, pt) -> float:
    """|curve equation at pt| over 1 + the sum of its terms' moduli.

    The 1 keeps the measure absolute next to (0, 0), where the maps form
    small coordinates as differences of terms of order 1.
    """
    x, y = complex(pt.x), complex(pt.y)
    terms = (y * y, c.a1 * x * y, c.a3 * y, x**3, c.a2 * x * x, c.a4 * x, c.a6)
    return abs(c.residual(x, y)) / (1.0 + sum(abs(complex(t)) for t in terms))


def _lattice_distance(u, lat) -> float:
    """Distance from u to the nearest lattice point (no snapping of near-integers)."""
    w1, w2 = lat.omega1, lat.omega2
    m, n = np.linalg.solve([[w1.real, w2.real], [w1.imag, w2.imag]], [u.real, u.imag])
    return abs(u - round(m) * w1 - round(n) * w2)


def _zeros(rows, x):
    """The two y-roots of the family polynomial above x."""
    a, b, c = (sum(k * x**i for i, k in enumerate(r)) for r in reversed(rows))
    d = cmath.sqrt(b * b - 4 * a * c)
    return (-b + d) / (2 * a), (-b - d) / (2 * a)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_record_is_consistent_across_its_regimes(name):
    fam = FAMILIES[name]
    rng = random.Random(1)
    worst = dict.fromkeys(("curve", "round_trip", "generators", "additivity"), 0.0)
    for a in _params(fam):
        c = fam.curve(a)
        x = 0j
        while min(abs(x - 1), abs(x + 1), abs(x)) < 0.3:  # away from the maps' poles
            x = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        for y in _zeros(fam.rows(a), x):
            pt = fam.to_curve(a, x, y)
            worst["curve"] = max(worst["curve"], _relative_residual(c, pt))
            xb, _ = fam.from_curve(a, pt)
            worst["round_trip"] = max(worst["round_trip"], min(abs(xb - x), abs(xb - 1 / x)))
        gens = fam.points(a)
        assert len(gens) == len(fam.generators)
        lat = period_lattice(c)
        logs = [elliptic_log(c, lat, g) for g in gens]
        for i, g in enumerate(gens):
            worst["generators"] = max(worst["generators"], _relative_residual(c, g))
            for h, u in zip(gens[i:], logs[i:]):
                s = add(c, g, h)
                u_s = 0j if s is None else elliptic_log(c, lat, s)
                worst["additivity"] = max(worst["additivity"],
                                          _lattice_distance(u_s - logs[i] - u, lat)
                                          / abs(lat.omega1))
    assert max(worst.values()) <= 1e-12, worst


def _hull(points):
    """Vertices of the convex hull, counter-clockwise, collinear points dropped."""
    pts = sorted(points)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def _monomials(rows) -> dict:
    return {(i, j): k for j, r in enumerate(rows) for i, k in enumerate(r) if k != 0}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_newton_polygon_is_tempered(name):
    """Each edge polynomial is 1 + t or 1 + t + t^2; the parameter sits at interior points."""
    params = (Fraction(3), Fraction(7, 2), Fraction(-5), Fraction(11))
    monos = [_monomials(FAMILIES[name].rows(a)) for a in params]
    varying = {m for m in set().union(*monos) if len({d.get(m, 0) for d in monos}) > 1}
    assert varying
    for mono in monos:
        vertices = _hull(mono)
        boundary = set()
        for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
            g = math.gcd(x1 - x0, y1 - y0)
            edge = [(x0 + k * (x1 - x0) // g, y0 + k * (y1 - y0) // g) for k in range(g + 1)]
            assert [mono.get(p, 0) for p in edge] in ([1, 1], [1, 1, 1]), (name, edge)
            boundary.update(edge)
        assert not varying & boundary


# an in-regime parameter for each family
IN_REGIME = {"P": 3.0, "S": 3.0, "Q": 5.0, "R": 7.0}
ENTRY_POINTS = {
    "FamilySpec": FamilySpec,
    "family_embedding": family_embedding,
    "family_divisor_catalog": lambda name, param: family_divisor_catalog(name),
    "cycle": lambda name, param: family(name).cycle(param),
    "curve": lambda name, param: family(name).curve(param),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_unknown_family_is_invalid_input_and_case_is_ignored(entry):
    call = ENTRY_POINTS[entry]
    with pytest.raises(DegenerateInputError, match="unknown family 'Z'"):
        call("Z", 5.0)
    for name in FAMILIES:
        lower = call(name.lower(), IN_REGIME[name])
        assert lower and lower == call(name, IN_REGIME[name])


# R's generator A has X = (-lin + sqrt(disc))/2, lin = beta^2 - 4 beta - 20, a sum that
# cancels once lin > 0: at 502 A was off the curve, and from 5002 off by more than 1e-8
LARGE_BETA = (502.0, 5002.0, 5e4, 5e5, 1e6)


@pytest.mark.parametrize("beta", (1.0, 3.0, 7.3) + LARGE_BETA)
def test_r_generator_a_is_its_root_to_full_precision(beta):
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        lin = b * b - 4 * b - 20
        exact = float((-lin + mpmath.sqrt(lin * lin + 64 * (b - 5) * (b + 1))) / 2)
    x_a = complex(FAMILIES["R"].points(beta)[1].x)
    assert x_a.imag == 0.0
    assert abs(x_a.real - exact) <= 4e-16 * abs(exact)


@pytest.mark.parametrize("beta", LARGE_BETA)
def test_r_embeds_at_large_beta_and_its_steinberg_element_vanishes(beta):
    cat = family_divisor_catalog("R")
    steinberg = diamond(cat["steinberg_f"], cat["steinberg_1mf"])
    assert abs(family_embedding("R", beta).elliptic_dilog_of(steinberg)) < 1e-12


@pytest.mark.parametrize("beta", (7.3, 502.0, 5002.0, 1e6))
@pytest.mark.parametrize("name", ("A", "S"))
def test_a_generator_moved_off_its_curve_is_rejected(name, beta):
    fam = FAMILIES["R"]
    curve, pt = fam.curve(beta), dict(zip(fam.generators, fam.points(beta)))[name]
    assert curve.contains(pt)
    assert not curve.contains(CurvePoint(pt.x * (1 + 1e-9), pt.y))


def test_a_generator_within_the_loose_tolerance_is_still_rejected_by_name(monkeypatch):
    # at alpha = 3, U's X moved by 3e-10 relative is on the curve at 1e-8 and off it
    # at contains' default 1e-10
    fam = FAMILIES["S"]

    def points(a):
        return [CurvePoint(pt.x * (1 + 3e-10), pt.y) if name == "U" else pt
                for name, pt in zip(fam.generators, fam.points(a))]

    monkeypatch.setitem(FAMILIES, "S", dataclasses.replace(fam, points=points))
    with pytest.raises(DegenerateInputError, match="^generator U off curve at param 3.0$"):
        family_embedding("S", 3.0)
