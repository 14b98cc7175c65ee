"""Dilogarithm / Bloch-Wigner / elliptic dilogarithm tests.

The Li2 kernel is cross-checked against mpmath's polylog as an independent oracle.
"""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab.dilogarithm import (
    QPoint,
    _inverted,
    _li2_disc,
    bloch_wigner,
    elliptic_dilog,
    elliptic_dilog_divisor,
)
from regulab.divisors import diamond, family_divisor_catalog, family_embedding
from regulab.elliptic import u_to_qz
from regulab.numerics import Tolerance

mpmath.mp.dps = 30


def _mp_li2(z: complex) -> complex:
    return complex(mpmath.polylog(2, mpmath.mpc(z)))


def _kernel_error(z: complex) -> float:
    """|Li2 kernel - mpmath| at the point of the closed unit disc that z maps to:
    z itself, or 1/z outside the disc, as ``_bloch_wigner`` inverts it."""
    _, w = _inverted(np.asarray(complex(z)))
    return abs(complex(_li2_disc(w)) - _mp_li2(complex(w)))


class TestLi2:
    @pytest.mark.parametrize(
        "z",
        [0.3, -0.7, 0.5 + 0.5j, -2.0 + 1.0j, 4.0 - 3.0j, 0.99, 1.0001 + 1e-9j,
         -50.0, 0.001j, 0.9 + 0.01j],
    )
    def test_against_mpmath(self, z):
        assert _kernel_error(z) < 1e-13

    def test_special_values(self):
        one, minus_one, zero = _li2_disc(np.array([1.0, -1.0, 0.0], dtype=complex))
        assert abs(one - math.pi**2 / 6) < 1e-15
        assert abs(minus_one + math.pi**2 / 12) < 1e-15
        assert zero == 0.0

    def test_random_plane_sweep(self):
        rng = random.Random(7)
        for _ in range(60):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert _kernel_error(z) < 1e-12


class TestBlochWigner:
    def test_vanishes_on_real_line(self):
        for x in (-3.0, -1.0, 0.5, 2.0, 100.0):
            assert bloch_wigner(x) == 0.0

    def test_subnormal_imaginary_part_next_to_the_real_line(self):
        # arg(1 - z) underflows here; cmath.phase raised OverflowError on it
        assert abs(bloch_wigner(-99 + 1e-322j)) < 1e-300

    def test_odd_under_conjugation(self):
        z = 0.4 + 1.3j
        assert abs(bloch_wigner(z) + bloch_wigner(z.conjugate())) < 1e-14

    def test_six_fold_symmetry(self):
        # D(z) = D(1 - 1/z) = D(1/(1-z))
        z = 0.3 + 0.8j
        d = bloch_wigner(z)
        assert abs(bloch_wigner(1 - 1 / z) - d) < 1e-13
        assert abs(bloch_wigner(1 / (1 - z)) - d) < 1e-13

    def test_inversion_antisymmetry(self):
        z = -1.2 + 0.7j
        assert abs(bloch_wigner(1 / z) + bloch_wigner(z)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        st.complex_numbers(
            min_magnitude=1e-2, max_magnitude=20, allow_nan=False, allow_infinity=False
        ),
        st.complex_numbers(
            min_magnitude=1e-2, max_magnitude=20, allow_nan=False, allow_infinity=False
        ),
    )
    def test_five_term_relation(self, x, y):
        # D(x) + D(y) + D((1-x)/(1-xy)) + D(1-xy) + D((1-y)/(1-xy)) = 0
        if abs(1 - x * y) < 1e-3 or abs(1 - x) < 1e-3 or abs(1 - y) < 1e-3:
            return
        total = (
            bloch_wigner(x)
            + bloch_wigner(y)
            + bloch_wigner((1 - x) / (1 - x * y))
            + bloch_wigner(1 - x * y)
            + bloch_wigner((1 - y) / (1 - x * y))
        )
        assert abs(total) < 1e-11


class TestQPoint:
    def test_normalizes_into_annulus(self):
        q = 0.1 + 0.02j
        p = QPoint(q, 1000.0 + 0.0j)
        assert abs(q) < abs(p.z) <= 1.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QPoint(1.5, 1.0)
        with pytest.raises(ValueError):
            QPoint(0.3, 0.0)


class TestEllipticDilog:
    def test_lattice_periodicity(self):
        q = 0.05 * cmath.exp(0.4j)
        z = 0.6 * cmath.exp(1.1j)
        a = elliptic_dilog(QPoint(q, z))
        b = elliptic_dilog(QPoint(q, q * z))
        assert abs(a - b) < 1e-11

    def test_odd_under_inversion(self):
        q = 0.07
        z = 0.5 * cmath.exp(0.9j)
        assert abs(elliptic_dilog(QPoint(q, z)) + elliptic_dilog(QPoint(q, 1 / z))) < 1e-11

    def test_divisor_linearity(self):
        q = 0.06
        z = 0.4 * cmath.exp(0.7j)
        pts = {"a": QPoint(q, z), "b": QPoint(q, z * z)}
        single = elliptic_dilog(pts["a"]) * 2 - elliptic_dilog(pts["b"])

        class Div:
            def items(self):
                return [("a", 2), ("b", -1)]

        assert abs(elliptic_dilog_divisor(pts.get, Div()) - single) < 1e-11

    @pytest.mark.parametrize("name", ["P", "U", "V"])
    def test_s_generators_against_a_40_digit_sum(self, name):
        # |q| = 0.246 at S alpha = 1; the tail bound must carry the log
        # factor of |D(w)| for small |w|, or the sum stops short by ~8e-12
        emb = family_embedding("S", 1.0)
        p = u_to_qz(emb.generator_logs[name], emb.lattice)
        assert abs(elliptic_dilog(p, Tolerance(absolute=1e-12)) - _mp_elliptic_dilog(p)) <= 1e-12

    @pytest.mark.parametrize("family, param", [("P", 3.0), ("P", -2.5), ("S", 1.0), ("S", 6.0),
                                               ("S", 10.0), ("Q", 5.0), ("Q", 7.5), ("R", 7.0),
                                               ("R", 9.0)])
    def test_divisor_classes_against_a_40_digit_sum(self, family, param):
        # one array call per class, against a 40-digit sum per point
        emb = family_embedding(family, param)
        exact = {}
        for name, d in _diamond_classes(family).items():
            for point, _ in d.items():
                if point not in exact:
                    exact[point] = _mp_elliptic_dilog(emb.qpoint(point))
            ref = sum(mult * exact[point] for point, mult in d.items())
            assert abs(emb.elliptic_dilog_of(d) - ref) <= 1e-12, name


def _diamond_classes(family: str) -> dict:
    """Every catalogued diamond class of a family, with x <> y (P) or the Steinberg class."""
    cat = family_divisor_catalog(family)
    classes = {name: d for name, d in cat.items() if "diamond" in name}
    if family == "P":
        classes["x_diamond_y"] = diamond(cat["x"], cat["y"])
    if "steinberg_f" in cat:
        classes["steinberg"] = diamond(cat["steinberg_f"], cat["steinberg_1mf"])
    return classes


def _mp_bloch_wigner(w):
    if abs(w) > 1:
        return -_mp_bloch_wigner(1 / w)  # D(1/w) = -D(w)
    return mpmath.im(mpmath.polylog(2, w)) + mpmath.arg(1 - w) * mpmath.log(abs(w))


def _mp_elliptic_dilog(p: QPoint) -> float:
    """sum_n D(q^n z) to 40 digits, until the next pair of terms is below 1e-42."""
    with mpmath.workdps(40):
        q, z = mpmath.mpc(p.q), mpmath.mpc(p.z)
        total = _mp_bloch_wigner(z)
        n = 1
        while True:
            pair = _mp_bloch_wigner(z * q**n), _mp_bloch_wigner(z / q**n)
            total += sum(pair)
            if abs(pair[0]) + abs(pair[1]) < mpmath.mpf(10) ** -42:
                return float(total)
            n += 1
