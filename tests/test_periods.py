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
from regulab.elliptic import period_lattice
from regulab.families import FAMILIES, family
from regulab.periods import (
    IDENTITIES,
    change_of_variable_check,
    verify_period_identity,
)

from golden_records import COMMANDS, golden

MAP_IDS = [key for key, row in IDENTITIES.items() if row.kind == "map"]


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
        raise numerics.DegenerateInputError(f"involution pole at s={s}")
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
        (lo, hi), value = FAMILIES[family].cycle(param)
        assert value > 0.0
        assert lo < hi
        _assert_matches_oracle(family, param, value)

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
        with pytest.raises(numerics.DegenerateInputError, match=f"family {family} undefined at"):
            FAMILIES[family].cycle(param)

    def test_unknown_family_raises(self):
        with pytest.raises(numerics.DegenerateInputError):
            family("Z").cycle(1.0)

    def test_residual_equal_to_tol_passes(self):
        assert numerics.Record("x@1", 1.0, 1.5, 0.5, 0.5).passed
        assert not numerics.Record("x@1", 1.0, 1.5, 0.5, 0.25).passed


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

    def test_identity_ids_complete(self, monkeypatch, capsys):
        # every record of a default campaign but diamonds comes from a row of the
        # table, and every row runs in a default campaign or a golden command
        made = []

        def spy(key, *args, **kw):
            made.append((key, periods.check(key, *args, **kw)))
            return made[-1][1]

        monkeypatch.setattr(cli, "check", spy)
        for target, campaign in cli.CAMPAIGNS.items():
            for rec in campaign.records():
                assert (target == "diamonds") != any(rec is r for _, r in made), rec.name
        for command in golden(COMMANDS):  # a lone measure is no identity
            assert command.startswith("mahler") or cli.main(command.split()) == 0
        capsys.readouterr()
        assert {key for key, _ in made} == set(IDENTITIES)
        # lemma32 and sec42 between them run every identity and every substitution
        names = {r.name.split("@")[0] for target in ("lemma32", "sec42")
                 for r in cli.CAMPAIGNS[target].records()}
        assert names == {key for key, row in IDENTITIES.items() if row.kind}
        assert {row.kind for row in IDENTITIES.values()} == {"", "identity", "map"}

    def test_unknown_identity_rejected(self):
        with pytest.raises(Exception):
            verify_period_identity("no-such-identity", 3.0)

    @pytest.mark.parametrize("key", ["shift-scale", "s-eq-2p", "regulator", "table1"])
    def test_a_row_of_another_kind_is_no_identity(self, key):
        with pytest.raises(numerics.DegenerateInputError, match=f"unknown identity '{key}'"):
            verify_period_identity(key, 3.0)

    @pytest.mark.parametrize("key", ["p-vs-s", "q-eq-r", "S-steinberg"])
    def test_a_row_of_another_kind_is_no_map(self, key):
        with pytest.raises(numerics.DegenerateInputError, match=f"unknown map '{key}'"):
            change_of_variable_check(key, -3.0)

    @pytest.mark.parametrize("which, param, message", [
        ("p-doubled-vs-s", 8.0, "^needs 0 < alpha < 8$"),
        ("p-vs-s", -1.0, "^needs alpha < -1$"),
    ])
    def test_guard_messages(self, which, param, message):
        with pytest.raises(numerics.DegenerateInputError, match=message):
            verify_period_identity(which, param)


class TestChangeOfVariable:
    @pytest.mark.parametrize("map_id", [m for m in MAP_IDS if m != "shift-scale"])
    def test_guard_message_names_the_map(self, map_id):
        with pytest.raises(numerics.DegenerateInputError, match=f"^{map_id} needs alpha < -1$"):
            change_of_variable_check(map_id, 0.5)

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
        with pytest.raises(numerics.DegenerateInputError, match="involution pole at s=0.5"):
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
        ratio = _cycle_over_lattice(family, param)
        assert Fraction(ratio).limit_denominator(4) == expect
        assert abs(ratio - float(expect)) < 1e-8

    def test_quartic_ratios_match_each_other(self):
        assert abs(_cycle_over_lattice("Q", 5.0) - _cycle_over_lattice("R", 7.0)) < 1e-10


def _cycle_over_lattice(name, param):
    """The family's cycle integral over the imaginary period of its curve's lattice."""
    fam = family(name)
    lat = period_lattice(fam.curve(param))
    # omega2 is i v on a rectangular lattice and (omega1 + i v) / 2 on a rhombic one
    v = lat.omega2.imag if lat.omega2.real == 0 else (2.0 * lat.omega2 - lat.omega1).imag
    return fam.cycle(param)[1] / abs(v)
