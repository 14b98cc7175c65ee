"""Point counts, Hecke coefficients, and completed-L evaluation."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from regulab import lfunctions
from regulab.elliptic import WeierstrassCurve, deuring_curve, quartic_twist_curve
from regulab.lfunctions import (
    TABLE_ONE,
    _affine_count,
    _int_coeffs,
    _smallest_prime_factors,
    an_coefficients,
    ap_table,
    epsilon_detect,
    l_prime_zero,
    lambda_completed,
    parse_override_file,
    rescale_integral_model,
    table_one_lseries,
)
from regulab.numerics import DegenerateInputError

PRIMES_TO_61 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def _brute_affine_count(c: WeierstrassCurve, p: int) -> int:
    """O(p^2) enumeration oracle for the fast point counter."""
    a1, a2, a3, a4, a6 = (int(a) % p for a in (c.a1, c.a2, c.a3, c.a4, c.a6))
    n = 0
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                n += 1
    return n


def _euler_affine_count(c: WeierstrassCurve, p: int) -> int:
    """Per-x Euler-criterion counter: the scalar reference for the array counter."""
    if p == 2:
        return _brute_affine_count(c, 2)
    a1, a2, a3, a4, a6 = (int(a) % p for a in (c.a1, c.a2, c.a3, c.a4, c.a6))
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    count = 0
    for x in range(p):
        w = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        count += 1 if w == 0 else 1 + (1 if pow(w, (p - 1) // 2, p) == 1 else -1)
    return count


def _euler_count_array(c: WeierstrassCurve, p: int) -> int:
    """Euler's criterion w^((p-1)/2) mod p for one prime, by array square-and-multiply."""
    if p == 2:
        return _brute_affine_count(c, 2)
    a1, a2, a3, a4, a6 = (int(a) % p for a in (c.a1, c.a2, c.a3, c.a4, c.a6))
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    x = np.arange(p, dtype=np.int64)
    w = (((4 * x + b2) * x % p + 2 * b4) * x + b6) % p
    power, e = np.ones_like(w), (p - 1) // 2
    while e:
        if e & 1:
            power = power * w % p
        w, e = w * w % p, e >> 1
    return p + int(np.count_nonzero(power == 1)) - int(np.count_nonzero(power == p - 1))


def _reference_table(alpha: int, bound: int):
    """(a_p, bad types, a_1..a_bound) by per-x counting and trial division."""
    c = rescale_integral_model(deuring_curve(alpha))
    disc = int(c.discriminant())
    kinds = {1: "split-multiplicative", -1: "nonsplit-multiplicative", 0: "additive"}
    primes = [p for p in range(2, bound + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    ap = {p: p - _euler_affine_count(c, p) for p in primes}
    bad = {p: kinds[ap[p]] for p in primes if disc % p == 0}
    an = [0] * (bound + 1)
    for n in range(1, bound + 1):
        m, val = n, 1
        for p in primes:
            if p * p > m:
                break
            k = 0
            while m % p == 0:
                m, k = m // p, k + 1
            prev, cur = 1, ap[p] if k else 1
            for _ in range(k - 1):
                prev, cur = cur, ap[p] * cur - (0 if p in bad else p) * prev
            val *= cur
        an[n] = val * (ap[m] if m > 1 else 1)
    return ap, bad, an


class TestPointCounts:
    @pytest.mark.parametrize("alpha", sorted(TABLE_ONE))
    @pytest.mark.parametrize("model", ["raw", "rescaled"])
    def test_against_enumeration(self, alpha, model):
        # every prime to 61, good and bad, 2 and 3 included
        c = deuring_curve(alpha)
        if model == "rescaled":
            c = rescale_integral_model(c)
        for p in PRIMES_TO_61:
            assert _affine_count(_int_coeffs(c), p) == _brute_affine_count(c, p), (alpha, p)

    def test_cremona_11a1(self):
        # LMFDB 11.a2: a_p for p = 2..37, split multiplicative at 11
        c = WeierstrassCurve(0, -1, 1, -10, -20)
        expected = dict(zip(PRIMES_TO_61[:12], [-2, -1, 1, -2, 1, 4, -2, 0, -1, 0, 7, 3]))
        for p in expected:
            assert _affine_count(_int_coeffs(c), p) == _brute_affine_count(c, p), p
        apt = ap_table(c, 11, 37)
        assert apt.ap == expected
        assert apt.bad == {11: "split-multiplicative"}

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=5, max_size=5))
    def test_one_pass_over_all_primes_matches_enumeration(self, coeffs):
        try:
            c = WeierstrassCurve(*coeffs)
        except DegenerateInputError:
            assume(False)
        counts = _affine_count(coeffs, np.array(PRIMES_TO_61))
        assert counts.tolist() == [_brute_affine_count(c, p) for p in PRIMES_TO_61]

    @pytest.mark.parametrize("curve", [deuring_curve(alpha) for alpha in sorted(TABLE_ONE)]
                             + [quartic_twist_curve(4), quartic_twist_curve(8)])
    def test_one_pass_to_1200_matches_euler_criterion(self, curve):
        spf = _smallest_prime_factors(1200)
        primes = [n for n in range(2, 1201) if spf[n] == n]
        counts = _affine_count(_int_coeffs(curve), np.array(primes))
        assert counts.tolist() == [_euler_count_array(curve, p) for p in primes]

    def test_hasse_violation_raises(self, monkeypatch):
        # an impossible count must raise in every mode, not only without -O
        monkeypatch.setattr(lfunctions, "_affine_count", lambda coeffs, p: 0)
        with pytest.raises(DegenerateInputError, match="a_5=5 violates the Hasse"):
            ap_table(WeierstrassCurve(0, -1, 1, -10, -20), 11, 10)  # 2, 3, 5 all good

    @pytest.mark.parametrize("alpha", sorted(TABLE_ONE))
    def test_matches_scalar_reference(self, alpha):
        ap, bad, an = _reference_table(alpha, 600)
        apt = ap_table(deuring_curve(alpha), TABLE_ONE[alpha][1], 600)
        assert apt.ap == ap
        assert apt.bad == bad
        assert an_coefficients(apt, 600) == an
        assert epsilon_detect(TABLE_ONE[alpha][1], an) == 1

    def test_hasse_bound_all_catalogued_curves(self):
        for alpha in TABLE_ONE:
            apt = ap_table(deuring_curve(alpha), TABLE_ONE[alpha][1], 200)
            for p, a in apt.ap.items():
                if p not in apt.bad:
                    assert a * a <= 4 * p, (alpha, p, a)

    def test_bad_prime_types_match_conductor(self):
        # multiplicative primes divide N once, additive primes twice
        for alpha, (_, conductor) in TABLE_ONE.items():
            apt = ap_table(deuring_curve(alpha), conductor, 50)
            for p, kind in apt.bad.items():
                if conductor % p:
                    continue
                if kind == "additive":
                    assert conductor % (p * p) == 0, (alpha, p)
                else:
                    assert conductor % (p * p) != 0, (alpha, p)

    def test_bad_prime_returns_unit_trace(self):
        apt = ap_table(deuring_curve(1), 14, 7)  # conductor 14
        a, kind = apt.ap[7], apt.bad[7]
        assert a in (-1, 0, 1)
        assert kind in ("split-multiplicative", "nonsplit-multiplicative", "additive")


class TestRescaling:
    def test_nonminimal_model_is_reduced(self):
        # alpha = -8 has a spurious 2^12 in the raw discriminant
        c = deuring_curve(-8)
        m = rescale_integral_model(c)
        assert abs(int(m.discriminant())) < abs(int(c.discriminant()))

    def test_minimal_model_untouched(self):
        c = deuring_curve(1)
        m = rescale_integral_model(c)
        assert int(m.discriminant()) == int(c.discriminant())


class TestHeckeCoefficients:
    def test_multiplicativity(self):
        apt = ap_table(deuring_curve(1), 14, 200)
        a = an_coefficients(apt, 200)
        assert a[15] == a[3] * a[5]
        assert a[35] == a[5] * a[7]
        assert a[33] == a[3] * a[11]

    def test_prime_power_recursion_good(self):
        apt = ap_table(deuring_curve(1), 14, 200)
        a = an_coefficients(apt, 200)
        p = 3
        assert a[9] == a[3] * a[3] - p
        assert a[27] == a[3] * a[9] - p * a[3]

    def test_prime_power_bad_is_geometric(self):
        apt = ap_table(deuring_curve(1), 14, 200)
        a = an_coefficients(apt, 200)
        assert a[4] == a[2] ** 2  # 2 | 14 is multiplicative
        assert a[49] == a[7] ** 2

    def test_missing_prime_raises(self):
        apt = ap_table(deuring_curve(1), 14, 20)
        with pytest.raises(DegenerateInputError, match="a_p missing for p=23"):
            an_coefficients(apt, 30)


@pytest.fixture(scope="module")
def series14():
    return table_one_lseries(1, bound=400)


class TestCompletedL:
    def test_cutoff_independence(self, series14):
        for s in (0.3, 0.7, 1.0):
            v1 = lambda_completed(series14, s, cutoff=1.0)
            v2 = lambda_completed(series14, s, cutoff=1.35)
            assert abs(v1 - v2) < 1e-8, s

    def test_lambda_zero_against_mpmath(self, series14):
        # 30-digit half-sums: Lambda(0) = F_1(0) + eps F_1(2)
        with mpmath.workdps(30):
            rtn = mpmath.sqrt(series14.conductor)

            def half(s):
                return mpmath.fsum(
                    an * (rtn / (2 * mpmath.pi * n)) ** s
                    * mpmath.gammainc(s, 2 * mpmath.pi * n / rtn)
                    for n, an in enumerate(series14.coefficients) if n and an)

            ref = half(0) + series14.epsilon * half(2)
        assert abs(lambda_completed(series14, 0.0) - ref) < 1e-13 * abs(ref)

    def test_l_prime_zero_of_every_table_one_row_against_mpmath(self):
        # the same half-sums at 30 digits; a weight depends on (N, s, n) alone
        weights = {}
        with mpmath.workdps(30):
            for alpha in TABLE_ONE:
                series = table_one_lseries(alpha)
                rtn = mpmath.sqrt(series.conductor)
                ref = 0
                for s, sign in ((0, 1), (2, series.epsilon)):
                    for n, an in enumerate(series.coefficients):
                        key = (series.conductor, s, n)
                        if n and an and key not in weights:
                            x = 2 * mpmath.pi * n / rtn
                            weights[key] = (rtn / (2 * mpmath.pi * n)) ** s * mpmath.gammainc(s, x)
                        ref += sign * an * weights[key] if n and an else 0
                assert abs(l_prime_zero(series) - ref) < 1e-13 * abs(ref), alpha

    def test_too_short_a_series_fails_the_tail_check(self):
        # conductor 36: exp(-2 pi 20 / (1.35 * 6)) ~ 2e-7 at the 1.35 cutoff of the sign test
        with pytest.raises(DegenerateInputError, match="tail bound .* exceeds 1e-10"):
            table_one_lseries(-4, bound=20)

    @pytest.mark.parametrize("bound", [0, -3])
    def test_a_bound_below_one_is_rejected_by_name(self, bound):
        with pytest.raises(DegenerateInputError, match=f"bound={bound} "):
            table_one_lseries(1, bound=bound)

    def test_truncation_stability(self, series14):
        v1 = l_prime_zero(table_one_lseries(1, bound=200))
        v2 = l_prime_zero(series14)  # bound 400
        assert abs(v1 - v2) < 1e-12

    def test_same_conductor_same_lseries(self):
        # three catalogued parameters share conductor 14 and hence L'
        vals = [l_prime_zero(table_one_lseries(a)) for a in (-8, 1, 7)]
        assert max(vals) - min(vals) < 1e-10

    def test_functional_sign_stable_in_bound(self):
        for bound in (100, 200, 400):
            s = table_one_lseries(1, bound=bound)
            assert s.epsilon == 1

    def test_corrupted_coefficient_detected(self):
        good = table_one_lseries(1, bound=200)
        bad = list(good.coefficients)
        bad[3] += 2  # no sign makes the functional equation close
        with pytest.raises(DegenerateInputError, match="no sign fits the functional equation"):
            epsilon_detect(good.conductor, bad)

    def test_derivative_positive_for_rank_one(self):
        for alpha in TABLE_ONE:
            assert l_prime_zero(table_one_lseries(alpha)) > 0.0


class TestOverrides:
    def test_parse_override_file(self):
        text = "# comment\n2 -1\n7 1   # trailing\n\n11 -2\n"
        assert parse_override_file(text) == {2: -1, 7: 1, 11: -2}

    def test_override_changes_table(self):
        counted = ap_table(deuring_curve(1), 14, 50)
        apt = ap_table(deuring_curve(1), 14, 50, overrides={13: 4})
        assert counted.ap[13] == -4
        assert apt.ap == {**counted.ap, 13: 4}


class TestCatalog:
    def test_catalogued_ratios_are_rational(self):
        for alpha, (ratio, conductor) in TABLE_ONE.items():
            assert isinstance(ratio, Fraction)
            assert conductor in (14, 20, 36)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(Exception):
            table_one_lseries(3)
