"""End-to-end acceptance gate.

Each test prints one summary line (AC-n: PASS/FAIL ...) and then asserts,
so a plain ``pytest -s tests/test_acceptance.py`` doubles as a checklist.
"""

import math
import random
import time

import numpy as np

from regulab.cli import CAMPAIGNS
from regulab.dilogarithm import bloch_wigner
from regulab.divisors import (
    GROUPS,
    FormalDivisor,
    canonicalize_minus,
    derive_equivalence,
    family_embedding,
)
from regulab.elliptic import deuring_curve
from regulab.lfunctions import TABLE_ONE, ap_table, lambda_completed, table_one_lseries
from regulab.mahler import FamilySpec, family_poly, mahler_quadratic_y, mahler_torus2
from regulab.numerics import Tolerance, integrate_adaptive

TWO_PI = 2.0 * math.pi


def _emit(label: str, ok: bool, detail: str):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _measure(family: str, alpha: float) -> float:
    return mahler_quadratic_y(family_poly(FamilySpec(family, alpha)))


def _worst_residual(*targets) -> float:
    """Largest residual over the default records of ``regulab verify`` campaigns."""
    return max(r.residual for t in targets for r in CAMPAIGNS[t].records())


def test_ac1_doubling_identity_positive_parameters():
    t0 = time.time()
    worst = _worst_residual("bz1")
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 30.0
    _emit("AC-1", ok, f"max residual {worst:.2e}, {dt:.1f}s")
    assert ok


def test_ac2_equality_identity_negative_parameters():
    worst = 0.0
    for a in (-1.5, -2.0, -5.0, -10.0):
        worst = max(worst, abs(_measure("S", a) - _measure("P", a)))
    ok = worst < 1e-6
    _emit("AC-2", ok, f"max residual {worst:.2e}")
    assert ok


def test_ac3_quartic_family_identity():
    worst = _worst_residual("bz2")
    ok = worst < 1e-6
    _emit("AC-3", ok, f"max residual {worst:.2e}")
    assert ok


def test_ac4_measure_to_lvalue_ratios():
    t0 = time.time()
    worst = _worst_residual("table1")
    dt = time.time() - t0
    ok = worst < 1e-4 and dt < 60.0
    _emit("AC-4", ok, f"max ratio residual {worst:.2e}, {dt:.1f}s")
    assert ok


def test_ac5_regulator_ratio_constant():
    P = GROUPS["P"].point(P=1)
    div = canonicalize_minus(FormalDivisor({P: -6, P + P: -6}))
    ratios = []
    for a in (1.0, 3.0, 7.0):
        emb = family_embedding("P", a)
        ratios.append(TWO_PI * _measure("P", a) / abs(emb.elliptic_dilog_of(div)))
    spread = max(ratios) - min(ratios)
    ok = spread < 1e-4
    _emit("AC-5", ok, f"ratio {ratios[0]:.8f}, spread {spread:.2e}")
    assert ok


def test_ac6_exact_divisor_derivations():
    reports = [derive_equivalence("S"), derive_equivalence("QR")]
    ok = all(r.passed for r in reports)
    failed = [f"{r.chain}:{r.first_failure().name}" for r in reports if not r.passed]
    _emit("AC-6", ok, "all chains exact" if ok else ", ".join(failed))
    assert ok


def test_ac7_period_identities_and_substitutions():
    # the lemma32 and sec42 campaigns run at their own tolerance, 1e-8
    worst = _worst_residual("lemma32", "sec42")
    ok = worst < 1e-8
    _emit("AC-7", ok, f"max residual {worst:.2e}")
    assert ok


def test_ac8_steinberg_symbols_vanish():
    worst = _worst_residual("steinberg")
    ok = worst < 1e-6
    _emit("AC-8", ok, f"max |dilog| {worst:.2e}")
    assert ok


def test_ac9_numeric_foundations():
    # endpoint-singular quadrature at full precision: pi = 2 int_0^{1/2}
    # dt / sqrt(t (1 - t)), whose singular end sits at an exact 0
    pi_val = 2.0 * integrate_adaptive(
        lambda t: 1.0 / np.sqrt(t * (1.0 - t)), 0.0, 0.5, Tolerance(absolute=1e-13),
    ).value
    quad_res = abs(pi_val - math.pi)

    # dilogarithm five-term relation on random pairs
    rng = random.Random(20260823)
    five_worst = 0.0
    count = 0
    while count < 100:
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(1 - x * y), abs(1 - x), abs(1 - y), abs(x), abs(y)) < 1e-2:
            continue
        total = (
            bloch_wigner(x) + bloch_wigner(y)
            + bloch_wigner((1 - x) / (1 - x * y))
            + bloch_wigner(1 - x * y)
            + bloch_wigner((1 - y) / (1 - x * y))
        )
        five_worst = max(five_worst, abs(total))
        count += 1

    # point counts within the Hasse bound and cutoff-independent Lambda
    hasse_ok = True
    lam_worst = 0.0
    for alpha, (_r, conductor) in TABLE_ONE.items():
        apt = ap_table(deuring_curve(alpha), conductor, 200)
        for p, a in apt.ap.items():
            if p not in apt.bad and a * a > 4 * p:
                hasse_ok = False
        series = table_one_lseries(alpha)
        lam_worst = max(
            lam_worst,
            abs(lambda_completed(series, 0.7, cutoff=1.0)
                - lambda_completed(series, 0.7, cutoff=1.35)),
        )
    ok = quad_res < 1e-10 and five_worst < 1e-11 and hasse_ok and lam_worst < 1e-8
    _emit(
        "AC-9",
        ok,
        f"quad {quad_res:.1e}, five-term {five_worst:.1e}, "
        f"Hasse {'ok' if hasse_ok else 'VIOLATED'}, Lambda {lam_worst:.1e}",
    )
    assert ok


def test_ac10_two_quadratures_agree_on_grids():
    grids = {
        "P": np.linspace(-3.0, 7.0, 20),
        "S": np.linspace(-3.0, 7.0, 20),
        "Q": np.linspace(4.0, 12.0, 20),
        "R": np.linspace(6.0, 14.0, 20),
    }
    worst = 0.0
    for family, grid in grids.items():
        for a in grid:
            poly = family_poly(FamilySpec(family, float(a)))
            fast = mahler_quadratic_y(poly)
            slow = mahler_torus2(poly, Tolerance(absolute=1e-5))
            worst = max(worst, abs(fast - slow))
    ok = worst < 1e-4
    _emit("AC-10", ok, f"max cross-method residual {worst:.2e}")
    assert ok
