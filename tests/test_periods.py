"""Cycle integrals, inter-family identities, and substitution checks.

Every closed-form cycle integral is checked against a 30-digit mp.quad of
the family's own quartic, which shares no code with the R_F route.
"""

import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from regulab import cli, numerics, periods
from regulab.periods import (
    IDENTITY_IDS,
    MAP_IDS,
    MapDomainError,
    ResidualReport,
    UnsupportedRegimeError,
    change_of_variable_check,
    cycle_integral,
    cycle_vs_lattice,
    verify_period_identity,
)


def _mul(*polys):
    """Product of polynomials given as coefficient lists, highest degree first."""
    out = [mpmath.mpf(1)]
    for p in polys:
        res = [mpmath.mpf(0)] * (len(out) + len(p) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(p):
                res[i + j] += x * y
        out = res
    return out


def _deflate(q, root):
    """q / (t - root), the remainder dropped."""
    out = [q[0]]
    for c in q[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _quadratic_roots(a, b, c):
    """Real roots of a t^2 + b t + c, ascending, with 30 guard digits."""
    with mpmath.extradps(30):
        d = mpmath.sqrt(b * b - 4 * a * c)
        return sorted([(-b - d) / (2 * a), (-b + d) / (2 * a)])


def _mp_cycle(q, lo, hi, peak=None):
    """int_lo^hi dt / sqrt(q(t)) by mp.quad; q vanishes at lo and at hi unless hi = inf.

    t = lo + (hi - lo) sin^2(theta), or t = lo + s^2 when hi = inf, makes
    the integrand smooth once the roots are divided out of q.  The
    quadrature is split where a complex pair of roots comes close to the
    path (at ``peak``, its real part).
    """
    r = _deflate(q, lo)
    if peak is not None and not lo < peak < hi:
        peak = None
    if hi == mpmath.inf:
        pts = [0, mpmath.inf] if peak is None else [0, mpmath.sqrt(peak - lo), mpmath.inf]
        return mpmath.quad(lambda s: 2 / mpmath.sqrt(mpmath.polyval(r, lo + s * s)), pts)
    r = [-c for c in _deflate(r, hi)]
    pts = [0, mpmath.pi / 2]
    if peak is not None:
        pts.insert(1, mpmath.asin(mpmath.sqrt((peak - lo) / (hi - lo))))
    return mpmath.quad(
        lambda th: 2 / mpmath.sqrt(mpmath.polyval(r, lo + (hi - lo) * mpmath.sin(th) ** 2)), pts)


def _oracle(kind, a):
    """The cycle integral named by ``kind`` at the float ``a``, to 30 digits."""
    a = mpmath.mpf(a)
    t, one_m_t = [1, 0], [-1, 1]
    if kind == "P":
        quad = [16, -(8 * a + 16), a * a]
        q = _mul(t, one_m_t, quad)
        if a > 0:
            return _mp_cycle(q, 0, _quadratic_roots(*quad)[0])
        return _mp_cycle(q, 0, 1, (a + 2) / 4)
    if kind == "S":
        quad = [2, a, a]
        q = _mul(one_m_t, [2, a - 2], quad)
        if a > 0:
            return _mp_cycle(q, (2 - a) / 2, 1, -a / 4)
        return _mp_cycle(q, _quadratic_roots(*quad)[0], 1)
    if kind.startswith("K"):
        quad = [a * a, a * (4 - a), 4]
        q = _mul(t, one_m_t, quad)
        if kind == "K-unit":
            return _mp_cycle(q, 0, 1, (a - 4) / (2 * a))
        lo, hi = _quadratic_roots(*quad)
        return _mp_cycle(q, 1, hi) if kind == "K-outer" else _mp_cycle(q, 0, lo)
    c = a * a / 4 - a - 2
    if kind == "u":
        return _mp_cycle(_mul(t, [1, 2 * c, a**3 * (a - 8) / 16]), 0, mpmath.inf, -c)
    if kind == "v":
        return _mp_cycle(_mul(t, [1, -c, a + 1]), _quadratic_roots(1, -c, a + 1)[1], mpmath.inf)
    if kind == "Q":
        quad = [-16, 8 + a * a, -1]
        return _mp_cycle(_mul(one_m_t, quad), _quadratic_roots(*quad)[0], 1)
    quad = [2, a + 2, a - 2]  # R
    return _mp_cycle(_mul(one_m_t, [2, a - 4], quad), _quadratic_roots(*quad)[1], 1)


def _assert_matches_oracle(kind, a, value):
    with mpmath.workdps(30):
        exact = _oracle(kind, a)
    assert abs(value - exact) <= 1e-14 * exact, (kind, a, value, exact)


def involution_map(alpha: float, s: float) -> float:
    """s -> (1-s)/(1+alpha s), the "mobius-involution" substitution; its own inverse."""
    den = 1.0 + alpha * s
    if den == 0.0:
        raise MapDomainError(f"involution pole at s={s}")
    return (1.0 - s) / den


class TestCycleIntegral:
    @pytest.mark.parametrize(
        "family,param",
        [("P", 3.0), ("P", -2.0), ("S", 1.0), ("S", -5.0), ("Q", 5.0), ("R", 7.0),
         # next to the regime edges
         ("P", 0.01), ("P", 7.99), ("P", -1.001), ("P", -1.0000001), ("P", -20.0),
         ("S", 0.01), ("S", 7.99), ("S", -1.001), ("S", -20.0), ("Q", 4.0), ("R", 6.0)],
    )
    def test_positive_finite(self, family, param):
        ci = cycle_integral(family, param)
        assert ci.value > 0.0
        lo, hi = ci.limits
        assert lo < hi
        _assert_matches_oracle(family, param, ci.value)

    @pytest.mark.parametrize(
        "kind,alpha",
        [("K-unit", 0.5), ("K-unit", -8.0 / -1.01),
         ("K-outer", -1.001), ("K-outer", -20.0), ("K-inner", -1.001), ("K-inner", -20.0),
         ("u", -1.001), ("u", -20.0), ("v", -1.001), ("v", -20.0)],
    )
    def test_substitution_integrals_match_oracle(self, kind, alpha):
        if kind.startswith("K"):
            value = periods._k_integral(alpha, kind[2:])
        else:
            value = getattr(periods, f"_{kind}_integral")(alpha)
        _assert_matches_oracle(kind, alpha, value)

    def test_lemma32_and_sec42_run_no_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a cycle integral ran a quadrature")

        for name, module in list(sys.modules.items()):
            if name == "regulab" or name.startswith("regulab."):
                for attr in dir(numerics):
                    if attr.startswith("integrate_") and hasattr(module, attr):
                        monkeypatch.setattr(module, attr, no_quadrature)
        for target in ("lemma32", "sec42"):
            records = cli.CAMPAIGNS[target].records()
            assert records and all(r.passed for r in records), target

    @pytest.mark.parametrize(
        "family,param",
        [("P", 8.0), ("P", 0.0), ("P", -0.5), ("P", -1.0), ("S", 9.0), ("Q", 3.9), ("R", 5.0)],
    )
    def test_out_of_regime_raises(self, family, param):
        with pytest.raises(UnsupportedRegimeError):
            cycle_integral(family, param)

    def test_unknown_family_raises(self):
        with pytest.raises(Exception):
            cycle_integral("Z", 1.0)

    def test_residual_equal_to_tol_passes(self):
        assert ResidualReport("x", 1.0, 1.0, 1.5, 0.5).passed
        assert not ResidualReport("x", 1.0, 1.0, 1.5, 0.25).passed


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
        if map_id in ("reciprocal-t", "reciprocal-w", "degree2-isogeny",
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
