"""Curve arithmetic, period lattices, and the elliptic logarithm."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from curve_oracle import add, multiply, negate
from regulab.elliptic import (
    CurvePoint,
    WeierstrassCurve,
    complete_integral,
    deuring_curve,
    elliptic_log,
    period_lattice,
    quartic_twist_curve,
    reduce_mod_lattice,
    u_to_qz,
)
from regulab.families import FAMILIES
from regulab.numerics import DegenerateInputError, Tolerance, integrate_endpoint_singular


def _j_from_q(q: complex, terms: int = 40) -> complex:
    """j(tau) from the q-expansion of E4^3/Delta."""

    def sigma3(n):
        return sum(d**3 for d in range(1, n + 1) if n % d == 0)

    e4 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, terms):
        qn *= q
        e4 += 240.0 * sigma3(n) * qn
    delta = q
    qn = 1.0 + 0j
    for n in range(1, terms):
        qn *= q
        delta *= (1.0 - qn) ** 24
    return e4**3 / delta


def lattice_self_check(c: WeierstrassCurve, lat) -> float:
    """|j(q-series at lat.q) - j(curve)| / (1+|j|); small iff the basis is right."""
    b2, b4, _, _ = c.b_invariants()
    j_alg = complex((b2 * b2 - 24 * b4) ** 3 / c.discriminant())
    return abs(_j_from_q(lat.q) - j_alg) / (1.0 + abs(j_alg))


class TestCurveBasics:
    def test_rejects_singular_model(self):
        with pytest.raises(DegenerateInputError, match="discriminant is zero: singular model"):
            WeierstrassCurve()  # y^2 = x^3 has zero discriminant

    def test_discriminant_of_cubic_family(self):
        # Delta = alpha^3 (alpha+1)^2 (alpha-8) for the a1=alpha-2, a3=alpha model
        for a in (1, 3, -2, 7, -8):
            c = deuring_curve(Fraction(a))
            assert c.discriminant() == Fraction(a) ** 3 * (a + 1) ** 2 * (a - 8)

    def test_contains_and_group_law_exact(self):
        a = Fraction(3)
        c = deuring_curve(a)
        p = CurvePoint(a, a)
        assert c.residual(p.x, p.y) == 0
        assert multiply(c, 6, p) is None  # the base point is 6-torsion
        assert multiply(c, 3, p) is not None

    def test_group_associativity(self):
        c = deuring_curve(Fraction(3))
        p = CurvePoint(Fraction(3), Fraction(3))
        q = multiply(c, 2, p)
        r = multiply(c, 4, p)
        assert add(c, add(c, p, q), r) == add(c, p, add(c, q, r))

    def test_negate_inverse(self):
        c = deuring_curve(Fraction(5))
        p = CurvePoint(Fraction(5), Fraction(5))
        assert add(c, p, negate(c, p)) is None


class TestPeriodLattice:
    def test_real_period_against_direct_integral(self):
        # curve y^2 = x^3 - x; its lattice is computed from 4x^3 - 4x, so
        # omega1 = 2 int_1^oo dx/sqrt(4x^3-4x) = int_1^oo dx/sqrt(x^3-x)
        c = WeierstrassCurve(a4=-1.0)
        lat = period_lattice(c)

        # oracle: x = 1/s^2 turns the improper integral into
        # int_0^1 2 ds / sqrt(1 - s^4), singular only at s = 1, and u = 1 - s
        # puts that singularity at an exact 0:
        # int_0^1 2 du / sqrt(u (2 - u) (1 + (1 - u)^2))
        def f(u):
            return 2.0 / math.sqrt(u * (2.0 - u) * (1.0 + (1.0 - u) ** 2))

        direct = integrate_endpoint_singular(f, 0.0, 1.0, Tolerance(absolute=1e-13)).value
        assert abs(lat.omega1.real - direct) < 1e-12
        assert abs(direct - 2.6220575543) < 1e-9  # half of 5.2441151086

    def test_j_invariant_consistency(self):
        for c in (deuring_curve(3.0), deuring_curve(-2.0), quartic_twist_curve(5.0)):
            assert lattice_self_check(c, period_lattice(c)) < 1e-8

    def test_tau_in_upper_half_plane(self):
        for c in (deuring_curve(1.0), quartic_twist_curve(7.0)):
            lat = period_lattice(c)
            assert lat.tau.imag > 0
            assert abs(lat.q) < 1


class TestCompleteIntegral:
    def test_elementary_cases(self):
        # int_0^1 dt / sqrt(t (1-t)) and int_0^oo dt / (sqrt(t) (1+t)) are both pi
        assert abs(complete_integral(((0.0, 1.0), (1.0, -1.0), (1.0, 0.0)), 0.0, 1.0)
                   - math.pi) < 1e-15
        assert abs(complete_integral(((0.0, 1.0), (1.0, 1.0), (1.0, 1.0)), 0.0, math.inf)
                   - math.pi) < 1e-15

    @pytest.mark.parametrize("factors,y,x", [
        # P's cycle at alpha = -1: a double root at t = 1/4 inside (0, 1) diverges
        (((0.0, 1.0), (1.0, -1.0), (-4.0, 16.0), (-0.25, 1.0)), 0.0, 1.0),
        # t - 1 is negative on (0, 1)
        (((0.0, 1.0), (-1.0, 1.0), (1.0, 1.0)), 0.0, 1.0),
        # a double root at the lower limit
        (((0.0, 1.0), (0.0, 1.0), (1.0, 1.0)), 0.0, math.inf),
        # a quartic to infinity
        (((0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)), 0.0, math.inf),
        # -1 - t is negative on (0, 1)
        (((0.0, 1.0), (1.0, -1.0), (-1.0, -1.0)), 0.0, 1.0),
        # a double root at the upper limit
        (((0.0, 1.0), (1.0, -1.0), (1.0, -1.0)), 0.0, 1.0),
        # t - 1 is negative on (0, 1) on the way to infinity
        (((-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)), 0.0, math.inf),
    ])
    def test_divergent_or_complex_raises(self, factors, y, x):
        with pytest.raises(DegenerateInputError):
            complete_integral(factors, y, x)


class TestEllipticLog:
    @pytest.mark.parametrize("alpha", [1.0, 3.0, 7.0, -2.0, -4.0])
    def test_homomorphism_on_torsion(self, alpha):
        c = deuring_curve(alpha)
        lat = period_lattice(c)
        p = CurvePoint(alpha, alpha)
        u1 = elliptic_log(c, lat, p)
        for n in (2, 3, 4, 5):
            un = elliptic_log(c, lat, multiply(c, n, p))
            diff = reduce_mod_lattice(un - n * u1, lat)
            # distance to the nearest lattice point
            assert min(abs(diff), abs(diff - lat.omega1), abs(diff - lat.omega2)) < 1e-10

    def test_six_torsion_closes(self):
        c = deuring_curve(3.0)
        lat = period_lattice(c)
        u1 = elliptic_log(c, lat, CurvePoint(3.0, 3.0))
        closed = reduce_mod_lattice(6 * u1, lat)
        assert min(abs(closed), abs(closed - lat.omega1), abs(closed - lat.omega2)) < 1e-9

    def test_q_point_lands_in_annulus(self):
        c = deuring_curve(3.0)
        lat = period_lattice(c)
        qp = u_to_qz(elliptic_log(c, lat, CurvePoint(3.0, 3.0)), lat)
        assert abs(lat.q) < abs(qp.z) <= 1.0


# family curves: P and S live on the Deuring curve, Q and R on the quartic twist
# (R at beta sits at alpha = beta - 2); rhombic and rectangular lattices both occur
ORACLE_CURVES = {
    **{f"deuring{a}": deuring_curve(a) for a in (3.0, -2.0, 7.0, 0.5, 20.0, 12.0, -5.0)},
    **{f"twist{a}": quartic_twist_curve(a) for a in (5.0, 2.0, 9.561, 0.5)},
}


def _point(c, x, sign):
    """A point of c above x; ``sign`` picks the branch of w = 2y + a1 x + a3."""
    b = c.a1 * x + c.a3
    return CurvePoint(x, (-b + sign * cmath.sqrt(b * b + 4 * c.rhs(x))) / 2)


def _scale(lat) -> float:
    return 1.0 + max(abs(e) for e in lat.roots)


def _lattice_distance(u, lat) -> float:
    """Distance from u to the nearest corner of its fundamental parallelogram."""
    r = reduce_mod_lattice(u, lat)
    return min(abs(r - m * lat.omega1 - n * lat.omega2) for m in (0, 1) for n in (0, 1))


def _wp_pair(u, lat):
    """(wp(u), wp'(u)) on lat from the q-expansion of Silverman, Advanced Topics, Thm I.6.2.

    With z = e^{2 pi i u/omega1} and f(t) = t/(1-t)^2,
    wp = (2 pi i/omega1)^2 [1/12 + sum_{n in Z} f(q^n z) - 2 sum_{n>=1} q^n/(1-q^n)^2];
    wp' differentiates it termwise, using f(1/t) = f(t) and g(1/t) = -g(t)
    for g(t) = t(1+t)/(1-t)^3 = t f'(t).  Needs |q| < |z| <= 1.
    """
    k = 2j * math.pi / lat.omega1
    z = cmath.exp(k * u)

    def f(t):
        return t / (1 - t) ** 2

    def g(t):
        return t * (1 + t) / (1 - t) ** 3

    wp, dwp = 1 / 12 + f(z), g(z)
    qn = 1.0
    for _ in range(400):
        qn *= lat.q
        wp += f(qn * z) + f(qn / z) - 2 * qn / (1 - qn) ** 2
        dwp += g(qn * z) - g(qn / z)
        if abs(qn / z) < 1e-18:
            break
    return k * k * wp, k**3 * dwp


class TestEllipticLogOracles:
    @pytest.mark.parametrize("c", list(ORACLE_CURVES.values()), ids=list(ORACLE_CURVES))
    def test_inverts_wp(self, c):
        # P = (wp(u) - b2/12, wp'(u)) on the shifted cubic w^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
        lat = period_lattice(c)
        b2 = c.b_invariants()[0]
        rng = random.Random(7)
        s = _scale(lat)
        xs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * s for _ in range(20)]
        xs += [lat.roots[0].real - rng.uniform(1e-3, 3) * s for _ in range(5)]
        for x in xs:
            p = _point(c, x, rng.choice((1, -1)))
            w = 2 * p.y + c.a1 * x + c.a3
            wp, dwp = _wp_pair(elliptic_log(c, lat, p), lat)
            assert abs(wp - b2 / 12 - x) < 1e-12 * (abs(x) + abs(b2) / 12), x
            assert abs(dwp - w) < 1e-12 * abs(w), x

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(list(ORACLE_CURVES.values())),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.sampled_from((1, -1))),
        st.tuples(st.floats(1e-3, 3), st.floats(-3, 3), st.sampled_from((1, -1))),
        st.booleans(),
    )
    def test_homomorphism_on_complex_and_left_of_root_points(self, c, p_at, q_at, q_real):
        # Q is real with x left of the leading real root (w imaginary, or on
        # the bounded real component) or complex; the chord-tangent law must
        # map to addition, and negation to negation, mod the lattice
        lat = period_lattice(c)
        s = _scale(lat)
        p = _point(c, complex(p_at[0], p_at[1]) * s, p_at[2])
        x_q = lat.roots[0].real - q_at[0] * s if q_real else complex(q_at[0], q_at[1]) * s
        q = _point(c, x_q, q_at[2])
        assume(abs(p.x - q.x) > 1e-2 * s)  # the chord slope stays well conditioned
        u_p, u_q = elliptic_log(c, lat, p), elliptic_log(c, lat, q)
        tol = 1e-10 * abs(lat.omega1)
        assert _lattice_distance(elliptic_log(c, lat, add(c, p, q)) - u_p - u_q, lat) < tol
        for pt, u in ((p, u_p), (q, u_q)):
            assert _lattice_distance(elliptic_log(c, lat, negate(c, pt)) + u, lat) < tol

    @pytest.mark.parametrize("sign", [1, -1])
    def test_subnormal_imaginary_part_of_x(self, sign):
        # choosing the ray took cmath.phase of an argument with Im ~ 1e-322,
        # which raised OverflowError; u must be that of x = -0.9135 exactly
        c = deuring_curve(20.0)
        lat = period_lattice(c)
        u = elliptic_log(c, lat, _point(c, complex(-0.9135, 1.1e-322), sign))
        u_real = elliptic_log(c, lat, _point(c, complex(-0.9135, 0.0), sign))
        assert _lattice_distance(u - u_real, lat) < 1e-12 * abs(lat.omega1)

    @pytest.mark.parametrize("c", list(ORACLE_CURVES.values()), ids=list(ORACLE_CURVES))
    def test_real_identity_component_logs_are_real(self, c):
        # rounding noise in Im u would move the q-point off |z| = 1 and change
        # which q-translates the truncated elliptic dilogarithm sums
        lat = period_lattice(c)
        rng = random.Random(3)
        for _ in range(20):
            x = lat.roots[0].real + rng.uniform(1e-3, 3) * _scale(lat)
            assert elliptic_log(c, lat, _point(c, x, rng.choice((1, -1)))).imag == 0.0

    @pytest.mark.parametrize("c", list(ORACLE_CURVES.values()), ids=list(ORACLE_CURVES))
    def test_two_torsion_gives_the_half_periods(self, c):
        lat = period_lattice(c)
        logs = [elliptic_log(c, lat, CurvePoint(e, -(c.a1 * e + c.a3) / 2)) for e in lat.roots]
        for half in (lat.omega1 / 2, lat.omega2 / 2, (lat.omega1 + lat.omega2) / 2):
            assert min(_lattice_distance(u - half, lat) for u in logs) < 1e-14 * abs(lat.omega1)


class TestFamilyModels:
    @pytest.mark.parametrize(
        "family,param", [("P", 3.0), ("P", -2.0), ("S", 3.0), ("Q", 5.0), ("R", 7.0)]
    )
    def test_round_trip(self, family, param):
        from regulab.mahler import FamilySpec, family_poly

        fam = FAMILIES[family]
        poly = family_poly(FamilySpec(family, param))
        # take an actual zero of the family polynomial (the maps are only
        # defined on the curve)
        x = 0.37
        a, b, c = poly.coeffs_at(x)
        y = (-b + (b * b - 4 * a * c) ** 0.5) / (2 * a)
        try:
            pt = fam.to_curve(param, x, y)
        except (ZeroDivisionError, ValueError):
            pytest.skip("chosen point hits a coordinate pole")
        assert fam.curve(param).contains(pt, tol=1e-7)
        xb, yb = fam.from_curve(param, pt)
        # the quotient maps can be 2:1 (x and 1/x share an image)
        assert abs(xb - x) < 1e-7 or abs(xb - 1.0 / x) < 1e-7
        a, b, c = poly.coeffs_at(xb)
        assert abs((a * yb + b) * yb + c) < 1e-6
        back = fam.to_curve(param, xb, yb)
        assert abs(back.x - pt.x) < 1e-6 and abs(back.y - pt.y) < 1e-6

    @pytest.mark.parametrize(
        "family,param", [("P", 0.0), ("P", 8.0), ("P", -1.0), ("Q", 3.0), ("R", 5.0)]
    )
    def test_degenerate_parameters_raise(self, family, param):
        with pytest.raises(DegenerateInputError, match="singular (member|quartic twist) at alpha="):
            FAMILIES[family].curve(param)
