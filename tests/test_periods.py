"""Cycle integrals, inter-family identities, and substitution checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regulab.periods import (
    IDENTITY_IDS,
    MAP_IDS,
    MapDomainError,
    UnsupportedRegimeError,
    change_of_variable_check,
    cycle_integral,
    cycle_vs_lattice,
    verify_period_identity,
)


def involution_map(alpha: float, s: float) -> float:
    """s -> (1-s)/(1+alpha s), the "mobius-involution" substitution; its own inverse."""
    den = 1.0 + alpha * s
    if den == 0.0:
        raise MapDomainError(f"involution pole at s={s}")
    return (1.0 - s) / den


class TestCycleIntegral:
    @pytest.mark.parametrize(
        "family,param", [("P", 3.0), ("P", -2.0), ("S", 1.0), ("S", -5.0),
                         ("Q", 5.0), ("R", 7.0)]
    )
    def test_positive_finite(self, family, param):
        ci = cycle_integral(family, param)
        assert ci.value.value > 0.0
        assert ci.value.error_estimate < 1e-10
        lo, hi = ci.limits
        assert lo < hi

    @pytest.mark.parametrize(
        "family,param",
        [("P", 8.0), ("P", 0.0), ("P", -0.5), ("S", 9.0), ("Q", 3.9), ("R", 5.0)],
    )
    def test_out_of_regime_raises(self, family, param):
        with pytest.raises(UnsupportedRegimeError):
            cycle_integral(family, param)

    def test_unknown_family_raises(self):
        with pytest.raises(Exception):
            cycle_integral("Z", 1.0)


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 5.0, 7.5])
    def test_doubling_identity(self, alpha):
        rep = verify_period_identity("p-doubled-vs-s", alpha)
        assert rep.passed, rep.residual

    @pytest.mark.parametrize("alpha", [-1.5, -2.0, -5.0, -20.0])
    def test_equality_identity(self, alpha):
        rep = verify_period_identity("p-vs-s", alpha)
        assert rep.passed, rep.residual

    @pytest.mark.parametrize("alpha", [4.0, 5.0, 8.0, 12.0])
    def test_quartic_families_identity(self, alpha):
        rep = verify_period_identity("q-vs-r", alpha)
        assert rep.passed, rep.residual

    def test_identity_ids_complete(self):
        assert set(IDENTITY_IDS) == {"p-doubled-vs-s", "p-vs-s", "q-vs-r"}

    def test_unknown_identity_rejected(self):
        with pytest.raises(Exception):
            verify_period_identity("no-such-identity", 3.0)


class TestChangeOfVariable:
    @pytest.mark.parametrize("map_id", MAP_IDS)
    def test_substitutions_close(self, map_id):
        if map_id in ("qr-mobius",):
            params = (5.0, 8.0)
        elif map_id in ("reciprocal-t", "reciprocal-w", "degree2-isogeny",
                        "parameter-rescale"):
            params = (-2.0, -5.0)
        else:
            params = (-1.5, -4.0)
        for a in params:
            rep = change_of_variable_check(map_id, a)
            assert rep.passed, (map_id, a, rep.residual)


class TestInvolution:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-8, -1.2), st.floats(0.01, 0.9))
    def test_self_inverse(self, alpha, s):
        if abs(1.0 + alpha * s) < 1e-3:
            return
        t = involution_map(alpha, s)
        if abs(1.0 + alpha * t) < 1e-6:
            return
        assert abs(involution_map(alpha, t) - s) < 1e-9

    def test_pole_raises(self):
        with pytest.raises(MapDomainError):
            involution_map(-2.0, 0.5)


class TestLatticeComparison:
    @pytest.mark.parametrize(
        "family,param,expect",
        [
            ("P", 3.0, Fraction(1, 4)),
            ("S", 3.0, Fraction(1, 2)),
            ("Q", 5.0, Fraction(1, 1)),
            ("R", 7.0, Fraction(1, 1)),
            ("P", -2.0, Fraction(1, 2)),
            ("S", -2.0, Fraction(1, 2)),
        ],
    )
    def test_ratio_is_small_rational(self, family, param, expect):
        rep = cycle_vs_lattice(family, param)
        assert rep.nearest == expect
        assert abs(rep.ratio - float(expect)) < 1e-8

    def test_quartic_ratios_match_each_other(self):
        q = cycle_vs_lattice("Q", 5.0)
        r = cycle_vs_lattice("R", 7.0)
        assert abs(q.ratio - r.ratio) < 1e-10
