"""The family table: each record's polynomial, curve, maps, generators and lookup."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from regulab.divisors import family_divisor_catalog, family_embedding
from regulab.elliptic import O, elliptic_log, group_op, period_lattice
from regulab.families import FAMILIES
from regulab.mahler import FamilySpec
from regulab.numerics import DegenerateInputError
from regulab.periods import cycle_integral, cycle_vs_lattice

# a sampling interval for each regime string of the records, 0.3 or more
# from every singular fibre (P, S: alpha = -1, 0, 8; Q: 0, +-3; R: beta = -1, 2, 5)
REGIME_SAMPLES = {
    "0<alpha<8": (0.3, 7.7),
    "alpha<-1": (-20.0, -1.3),
    "alpha>=4": (4.0, 20.0),
    "beta>=6": (6.0, 20.0),
}
PER_REGIME = 40


def _params(fam):
    rng = random.Random(1)
    return [rng.uniform(*REGIME_SAMPLES[r]) for r in dict.fromkeys(fam.regimes)
            for _ in range(PER_REGIME)]


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
                s = group_op(c, g, h)
                u_s = 0j if s == O else elliptic_log(c, lat, s)
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
    "cycle_integral": cycle_integral,
    "cycle_vs_lattice": cycle_vs_lattice,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_unknown_family_is_invalid_input_and_case_is_ignored(entry):
    call = ENTRY_POINTS[entry]
    with pytest.raises(DegenerateInputError, match="unknown family 'Z'"):
        call("Z", 5.0)
    for name in FAMILIES:
        lower = call(name.lower(), IN_REGIME[name])
        assert lower and lower == call(name, IN_REGIME[name])
