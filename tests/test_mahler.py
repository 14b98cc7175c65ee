"""Mahler measures: Jensen in c = cos theta against a 30-digit oracle, and torus quadrature."""

import cmath
import functools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from regulab import mahler
from regulab.families import FAMILIES
from regulab.mahler import (
    FamilySpec,
    family_poly,
    mahler_quadratic_y,
    mahler_torus2,
    split_angles,
)
from regulab.numerics import (
    _TS_LEVELS,
    DegenerateInputError,
    NoConvergenceError,
    Tolerance,
)


class TestFamilySpec:
    def test_uppercases_family(self):
        assert FamilySpec("p", 3.0).family == "P"

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            FamilySpec("Z", 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(DegenerateInputError, match="alpha"):
            FamilySpec("P", alpha)


class TestBivariatePoly:
    def test_evaluation_matches_rows(self):
        a, b, c = family_poly(FamilySpec("P", 3.0)).coeffs_at(0.3 + 0.4j)
        x, y = 0.3 + 0.4j, -1.1 + 0.2j
        expect = (x + x * x) + (1 + (2 - 3.0) * x + x * x) * y + (1 + x) * y * y
        assert abs((a * y + b) * y + c - expect) < 1e-14

    def test_coeffs_at_consistent_with_call(self):
        # an array of x against scalar calls, and each scalar against the family's rows
        p = family_poly(FamilySpec("Q", 5.0))
        xs = np.array([[0.7 - 0.2j, -1.5], [0.0, 2.0 + 1.0j]])
        rows = FAMILIES["Q"].rows(5.0)
        for got, x in zip(np.stack(p.coeffs_at(xs), axis=-1).reshape(-1, 3), xs.reshape(-1)):
            assert np.array_equal(got, p.coeffs_at(x))
            want = [sum(k * x**i for i, k in enumerate(r)) for r in reversed(rows)]
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


class TestMahlerMeasures:
    @pytest.mark.parametrize(
        "family,alpha",
        [("P", 3.0), ("P", -2.0), ("S", 1.0), ("Q", 5.0), ("R", 7.0)],
    )
    def test_two_methods_agree(self, family, alpha):
        poly = family_poly(FamilySpec(family, alpha))
        fast = mahler_quadratic_y(poly)
        slow = mahler_torus2(poly, Tolerance(absolute=1e-6))
        assert abs(fast - slow) < 1e-4

    def test_boundary_parameter_converges(self):
        # at alpha = 4 the zero locus of the base family meets the torus
        # along a whole arc; the panel splitter must isolate it exactly
        val = mahler_quadratic_y(family_poly(FamilySpec("P", 4.0)))
        assert abs(val - 0.799134279601) < 1e-8

    def test_split_angles_find_arc_boundary(self):
        p = family_poly(FamilySpec("P", 4.0))
        cuts = split_angles(p)
        assert cuts[0] == 0.0 and abs(cuts[-1] - math.pi) < 1e-12
        assert any(1.80 < c < 1.82 for c in cuts)  # end of the on-torus arc
        assert all(b > a for a, b in zip(cuts, cuts[1:]))
        # S at alpha=3 has its kink at the exact toric angle 2 pi / 3
        cuts = split_angles(family_poly(FamilySpec("S", 3.0)))
        assert any(abs(c - 2 * math.pi / 3) < 1e-14 for c in cuts)

    @pytest.mark.parametrize("alpha", [-1.000001, -1.0000001, -1.00000001])
    def test_jensen_just_below_p_minus_one(self, alpha):
        # discriminant roots lie 1e-3..1e-4 off the circle near theta = 2 pi / 3;
        # without a panel boundary there the Jensen rule stalls
        poly = family_poly(FamilySpec("P", alpha))
        slow = mahler_torus2(poly, Tolerance(absolute=1e-7))
        assert abs(mahler_quadratic_y(poly) - slow) < 1e-6

    @pytest.mark.parametrize(
        "family,alpha",
        [("Q", 5.5807), ("R", 9.38), ("R", 11.561), ("S", 3.9887), ("S", 4.0001), ("P", 4.0)],
    )
    def test_torus2_does_not_step_over_kinks(self, family, alpha):
        # an outer theta panel that straddles a kink of the integrand is off
        # by up to 4.6e-3 at the first three without raising a convergence
        # error; the S points have double y-roots on the circle, and P at 4
        # meets the torus along an arc
        poly = family_poly(FamilySpec(family, alpha))
        slow = mahler_torus2(poly, Tolerance(absolute=1e-5))
        assert abs(mahler_quadratic_y(poly) - slow) < 1e-4

    @pytest.mark.parametrize(
        "family,lo,hi", [("P", -3.0, 7.0), ("S", -3.0, 7.0), ("Q", 4.0, 12.0), ("R", 6.0, 14.0)]
    )
    def test_torus2_agrees_with_jensen_on_ac10_ranges(self, family, lo, hi):
        @settings(max_examples=4, deadline=None)
        @given(st.floats(lo, hi))
        def check(alpha):
            poly = family_poly(FamilySpec(family, alpha))
            slow = mahler_torus2(poly, Tolerance(absolute=1e-5))
            assert abs(mahler_quadratic_y(poly) - slow) < 1e-4

        check()

    # mahler_torus2 at tol 1e-5, bit for bit: values of the kernel before its
    # levels shared one bincount and its integrand lost its complex temporaries,
    # on theta panels that end at the correctly rounded kinks
    @pytest.mark.parametrize("family,alpha,bits", [
        ("P", 3.0, "0x1.3bd681f7e86d5p-1"), ("P", -2.0, "0x1.32de18a20efc8p+0"),
        ("S", 2.7, "0x1.1f5f1bceea395p+0"), ("S", -3.0, "0x1.7ef40babe54d4p+0"),
        ("Q", 5.3, "0x1.a91ca7c7a1752p+0"), ("Q", 5.5807, "0x1.b6a8dec05f663p+0"),
        ("R", 7.3, "0x1.a91ca7c7a1736p+0"), ("R", 11.561, "0x1.20e5415c60835p+1"),
    ])
    def test_torus2_bits_are_pinned(self, family, alpha, bits):
        poly = family_poly(FamilySpec(family, alpha))
        assert mahler_torus2(poly, Tolerance(absolute=1e-5)).hex() == bits

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
    def test_torus2_calls_fault_in_no_fresh_pages(self):
        # A fresh process makes one warm-up call and then 200 more over the bench's
        # torus ranges, reading its own minor page faults.  While no one array led
        # an inner call's peak (ten complex temporaries of 16 B a node in the
        # integrand), glibc gave its heap top back after each call and faulted it
        # in again: about 180 faults per call here; under 1 with the one gather.
        code = textwrap.dedent("""
            import resource
            from regulab.mahler import FamilySpec, family_poly, mahler_torus2
            from regulab.numerics import Tolerance
            ranges = (("P", -3.0, 7.0), ("S", -3.0, 7.0), ("Q", 4.0, 12.0), ("R", 6.0, 14.0))
            grid = [(f, lo + (hi - lo) * (k + 0.5) / 50)
                    for k in range(50) for f, lo, hi in ranges]
            def run(f, a):
                mahler_torus2(family_poly(FamilySpec(f, a)), Tolerance(absolute=1e-5))
            run("P", 3.0)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for f, a in grid:
                run(f, a)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(grid))
        """)
        env = {"PYTHONPATH": str(Path(mahler.__file__).parents[1]), "PATH": ""}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 2.0

    @pytest.mark.parametrize("rotation", [1e-3, 0.3])
    @pytest.mark.parametrize("family,alpha", [("P", 3.0), ("S", 1.0), ("Q", 5.0), ("R", 7.0)])
    def test_torus2_with_misplaced_phi_panel_ends_is_not_silently_wrong(
        self, family, alpha, rotation, monkeypatch
    ):
        # the y-roots only place the inner panel ends; misplaced ends leave a
        # log singularity inside a panel, which must not pass as converged
        poly = family_poly(FamilySpec(family, alpha))
        fast = mahler_quadratic_y(poly)
        place = mahler._phi_panel_rows
        monkeypatch.setattr(mahler, "_phi_panel_rows",
                            lambda roots: place(roots * cmath.exp(1j * rotation)))
        try:
            slow = mahler_torus2(poly, Tolerance(absolute=1e-5))
        except NoConvergenceError:
            return
        assert abs(fast - slow) < 1e-4

    @pytest.mark.parametrize("family,alpha", [("Q", 5.5807), ("R", 11.561)])
    def test_torus2_batches_each_outer_level_into_one_inner_call(
        self, family, alpha, monkeypatch
    ):
        poly = family_poly(FamilySpec(family, alpha))
        fast = mahler_quadratic_y(poly)  # Jensen's own row call is not counted
        calls = []
        rows = mahler.integrate_panel_rows
        monkeypatch.setattr(mahler, "integrate_panel_rows",
                            lambda *args: calls.append(1) or rows(*args))
        slow = mahler_torus2(poly, Tolerance(absolute=1e-5))
        assert abs(fast - slow) < 1e-4
        n_panels = len(split_angles(poly)) - 1
        assert 0 < len(calls) <= (_TS_LEVELS + 1) * n_panels

    def test_jensen_and_torus2_share_one_panel_search(self, monkeypatch):
        calls = []
        find = mahler.split_angles
        monkeypatch.setattr(mahler, "split_angles", lambda p: calls.append(1) or find(p))
        poly = family_poly(FamilySpec("Q", 5.0))
        fast = mahler_quadratic_y(poly)
        slow = mahler_torus2(poly, Tolerance(absolute=1e-5))
        assert len(calls) == 1
        assert abs(fast - slow) < 1e-4

    @pytest.mark.parametrize("family,alpha", [("P", 3.0), ("S", 3.0), ("Q", 5.0), ("R", 7.0)])
    def test_jensen_makes_at_most_two_integrand_calls(self, family, alpha, monkeypatch):
        # the first row call covers tanh-sinh levels 0-3; these panels stop by level 4
        calls = []
        rows = mahler.integrate_panel_rows

        def counted(f, ends, tol):
            return rows(lambda x, row: calls.append(1) or f(x, row), ends, tol)

        monkeypatch.setattr(mahler, "integrate_panel_rows", counted)
        mahler_quadratic_y(family_poly(FamilySpec(family, alpha)))
        assert 0 < len(calls) <= 2

    def test_measure_nonnegative_for_integer_families(self):
        for family, alpha in (("P", 1.0), ("S", 3.0), ("Q", 6.0), ("R", 8.0)):
            assert mahler_quadratic_y(family_poly(FamilySpec(family, alpha))) >= -1e-12


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-17, -3.5, 7.0,
          1e22, -1e300, 1.7976931348623157e308])
def test_cis_is_complex_exp_bit_for_bit(t):
    t = np.array(t, dtype=float)
    assert mahler._cis(t).tobytes() == np.exp(1j * t).tobytes()


# ---------------------------------------------------------------------------
# reference: the families' polynomials on |x| = 1 as polynomials in c = cos theta,
# expanded from ``rows`` alone, and a 30-digit measure on the panels they give
# ---------------------------------------------------------------------------


def _on_circle(coeffs):
    """|f(e^{i theta})|^2 as ascending coefficients in c, for real ascending ``coeffs``.

    Its autocorrelation r_k gives r_0 + 2 sum_k r_k cos k theta, and cos k theta = T_k(c).
    """
    n = len(coeffs)
    out, t_prev, t_k = [0] * n, [1] + [0] * n, [0, 1] + [0] * (n - 1)
    for k in range(n):
        r_k = sum(coeffs[j] * coeffs[j + k] for j in range(n - k)) * (2 if k else 1)
        for i in range(n):
            out[i] += r_k * (t_prev if k == 0 else t_k)[i]
        if k:  # T_{k+1} = 2c T_k - T_{k-1}
            t_prev, t_k = t_k, [2 * t - s for t, s in zip([0] + t_k[:-1], t_prev)]
    return out


def _expanded(factors):
    """The product of factors (f(-1), f(1), a) as ascending coefficients in c."""
    out = [1]
    for lo, hi, a in factors:
        f = [Fraction(lo + hi) / 2 - a, Fraction(hi - lo) / 2, a]
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < 3)
               for k in range(len(out) + 2)]
    return out


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@pytest.mark.parametrize("family,params", [
    ("P", (3, Fraction(-5, 2), Fraction(1, 7))), ("S", (Fraction(27, 10), -3, Fraction(9, 2))),
    # Q's roots are rational where alpha^2 + 16 is a square
    ("Q", (Fraction(15, 2), Fraction(5, 3), Fraction(-48, 5))),
    ("R", (Fraction(73, 10), 6, Fraction(-1, 5))),
])
def test_c_factors_multiply_out_to_the_polynomials(family, params):
    for param in map(Fraction, params):
        _c, b, a = FAMILIES[family].rows(param)
        k, a2 = FAMILIES[family].c_factors(param)
        b2, four_a2 = _on_circle(b), [4 * v for v in _on_circle(a)]
        want_k = [x - y for x, y in zip(b2 + [0] * len(four_a2), four_a2 + [0] * len(b2))]
        assert _trimmed(_expanded(k)) == _trimmed(want_k)
        assert _trimmed(_expanded(a2)) == _trimmed(_on_circle(a))


@functools.lru_cache(maxsize=None)
def _measure_30_digits(family: str, alpha: float) -> mpmath.mpf:
    """m(F_alpha) = m(A) + (1/pi) int_0^pi sum_i log+|y_i| dtheta by mpmath.quad at 30 digits.

    The y-roots come from the quadratic formula at each node.  The panels
    end at the roots of K and |A|^2, expanded from ``rows`` and solved by
    mpmath.polyroots, whose real part lies in (-1, 1): a real one is a kink,
    and a complex pair bends the integrand sharply there when it is close.
    """
    with mpmath.workdps(30):
        c, b, a = (list(map(mpmath.mpf, r)) for r in FAMILIES[family].rows(mpmath.mpf(alpha)))
        b2, a2 = _on_circle(b), _on_circle(a)
        k = [x - 4 * y for x, y in zip(b2 + [0] * len(a2), a2 + [0] * len(b2))]
        ends = [mpmath.mpf(0), +mpmath.pi]
        for poly in (k, a2):
            roots = mpmath.polyroots(_trimmed(poly)[::-1], maxsteps=200, extraprec=300)
            ends += [mpmath.acos(r.real) for r in map(mpmath.mpc, roots) if -1 < r.real < 1]

        def log_plus_sum(theta):
            x = mpmath.expj(theta)
            aa, bb, cc = (mpmath.polyval(r[::-1], x) for r in (a, b, c))
            d = mpmath.sqrt(bb * bb - 4 * aa * cc)
            return sum(max(mpmath.log(abs((-bb + s * d) / (2 * aa))), 0) for s in (1, -1))

        lead = mpmath.log(abs(_trimmed(a)[-1])) + sum(
            max(mpmath.log(abs(r)), 0) for r in mpmath.polyroots(_trimmed(a)[::-1]))
        value, error = mpmath.quad(log_plus_sum, sorted(set(ends)), error=True)
        assert error < 1e-25
        return lead + value / mpmath.pi


@pytest.mark.parametrize("family,alpha", [
    ("S", 4.0), ("R", 6.0), ("Q", 4.0), ("P", 8.0), ("P", -1.0), ("P", 1e-6), ("P", 4.4e-4),
])
def test_jensen_is_within_its_tolerance_of_a_30_digit_measure(family, alpha):
    # boundary and singular members: double roots of K at c = -1 (S 4, R 6) and
    # c = -1/2 (P -1), a root at c = 1 (P 8), Q's regime end, and kinks 5e-7
    # and 2.2e-4 from pi (P 1e-6, P 4.4e-4); R 6 read 4.99e-13 off with a panel
    # end that was not a kink
    exact = _measure_30_digits(family, alpha)
    poly = family_poly(FamilySpec(family, alpha))
    for tol in (1e-10, 1e-12, 1e-13):
        assert abs(mahler_quadratic_y(poly, Tolerance(absolute=tol)) - exact) <= tol
