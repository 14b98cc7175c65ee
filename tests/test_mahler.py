"""Mahler measures: Jensen reduction, torus quadrature, and path integrals."""

import cmath
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from regulab import mahler
from regulab.mahler import (
    BivariatePoly,
    FamilySpec,
    eta_path_integral,
    family_poly,
    jensen_path_eta,
    jensen_univariate,
    mahler_quadratic_y,
    mahler_torus2,
    split_angles,
)
from regulab.numerics import (
    _TS_LEVELS,
    DegenerateInputError,
    NoConvergenceError,
    Tolerance,
    solve_quadratic_stable_array,
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
        p = family_poly(FamilySpec("P", 3.0))
        x, y = 0.3 + 0.4j, -1.1 + 0.2j
        expect = (x + x * x) + (1 + (2 - 3.0) * x + x * x) * y + (1 + x) * y * y
        assert abs(p(x, y) - expect) < 1e-14

    def test_coeffs_at_consistent_with_call(self):
        p = family_poly(FamilySpec("Q", 5.0))
        x = 0.7 - 0.2j
        a, b, c = p.coeffs_at(x)
        y = 1.3 + 0.1j
        assert abs((a * y * y + b * y + c) - p(x, y)) < 1e-12

    def test_y_degree(self):
        assert family_poly(FamilySpec("S", 2.0)).y_degree == 2
        assert family_poly(FamilySpec("R", 7.0)).y_degree == 2


class TestJensenUnivariate:
    def test_known_values(self):
        assert abs(jensen_univariate([1, -2]) - math.log(2)) < 1e-12
        assert abs(jensen_univariate([1, 1, 1])) < 1e-12  # cyclotomic
        assert abs(jensen_univariate([3]) - math.log(3)) < 1e-15

    def test_rejects_zero_polynomial(self):
        with pytest.raises(DegenerateInputError):
            jensen_univariate([0, 0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6).filter(
            lambda c: abs(c[0]) > 1e-2
        ),
        st.floats(0.1, 10),
    )
    def test_scaling_law(self, coeffs, c):
        # m(c * p) = log c + m(p)
        scaled = [c * a for a in coeffs]
        assert abs(
            jensen_univariate(scaled) - (math.log(c) + jensen_univariate(coeffs))
        ) < 1e-9

    def test_reciprocal_polynomial_invariance(self):
        # x^n p(1/x) has the same measure when p(0) != 0
        coeffs = [2.0, -3.0, 1.0, 0.5]
        assert abs(
            jensen_univariate(coeffs) - jensen_univariate(coeffs[::-1])
        ) < 1e-12


class TestMahlerMeasures:
    def test_constant_in_x(self):
        # y^2 - 4 factors as (y-2)(y+2): measure log 4, no x dependence
        p = BivariatePoly([[-4], [0], [1]])
        assert abs(mahler_quadratic_y(p) - math.log(4)) < 1e-10

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

    def test_non_self_inversive_kink_from_resultant(self):
        # (y - 1 - x)(y - 3): the root 1 + x crosses |y| = 1 at theta = 2 pi / 3,
        # which only the resultant with the reciprocal polynomial reveals
        p = BivariatePoly([[3, 3], [-4, -1], [1]])
        assert any(abs(c - 2 * math.pi / 3) < 1e-12 for c in split_angles(p))
        # m = log 3 + m(1 + x + y) = log 3 + (3 sqrt 3 / 4 pi) L(chi_-3, 2)
        l_chi = float(mpmath.dirichlet(2, [0, 1, -1]))
        expect = math.log(3) + 3 * math.sqrt(3) / (4 * math.pi) * l_chi
        assert abs(mahler_quadratic_y(p) - expect) < 1e-10

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
    # levels shared one bincount and its integrand lost its complex temporaries
    @pytest.mark.parametrize("family,alpha,bits", [
        ("P", 3.0, "0x1.3bd681f7e86d6p-1"), ("P", -2.0, "0x1.32de18a20efc8p+0"),
        ("S", 2.7, "0x1.1f5f1bceea394p+0"), ("S", -3.0, "0x1.7ef40babe54d3p+0"),
        ("Q", 5.3, "0x1.a91ca7c7a1752p+0"), ("Q", 5.5807, "0x1.b6a8dec05f663p+0"),
        ("R", 7.3, "0x1.a91ca7c7a1735p+0"), ("R", 11.561, "0x1.20e5415c60836p+1"),
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

    @pytest.mark.parametrize("rows", [[[2, 1]], [[1, 1], [1]], [[3, 3], [-4, -1], [1]]])
    def test_torus2_handles_every_y_degree(self, rows):
        # 2 + x, 1 + x + y and the non-self-inversive (y - 1 - x)(y - 3)
        poly = BivariatePoly(rows)
        slow = mahler_torus2(poly, Tolerance(absolute=1e-7))
        assert abs(mahler_quadratic_y(poly) - slow) < 1e-8

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

    def test_root_free_log_plus_sum_matches_the_roots(self):
        rng = np.random.default_rng(18)

        def draw(n):
            return (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
                    + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n))

        a, b, c = draw(2000), draw(2000), draw(2000)
        c[:200] = 0.0
        b[200:400] = 0.0
        b[400:600] = c[400:600] = 0.0
        roots = np.stack(solve_quadratic_stable_array(a, b, c))
        want = np.log(np.maximum(np.abs(roots), 1.0)).sum(axis=0)
        got = mahler._log_plus_sum(a, b, c)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), 1.0))
        with pytest.raises(DegenerateInputError):
            mahler._log_plus_sum(np.array([1.0, 0.0]), b[:2], c[:2])

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
# reference oracle: the panel search on np.roots, with a per-root angle loop
# and the resultant always formed, kept here to check split_angles exactly
# ---------------------------------------------------------------------------


def _ref_roots(coeffs):
    return np.roots(np.asarray(coeffs, dtype=float)[::-1])


def _ref_unit_circle_angles(roots, band=mahler.ON_CIRCLE):
    return [float(np.angle(r)) for r in roots
            if abs(abs(r) - 1.0) < band and np.angle(r) > 0.0]


def _ref_toric_resultant(p):
    f = p.matrix.T[:p.y_degree + 1]
    g = f[::-1, ::-1]

    def det(i, j):
        return np.convolve(f[i], g[j]) - np.convolve(g[i], f[j])

    if p.y_degree == 1:
        return det(1, 0)
    if p.y_degree == 2:
        return np.convolve(det(2, 0), det(2, 0)) - np.convolve(det(2, 1), det(1, 0))
    return []


def _ref_split_angles(p):
    kinks = (_ref_unit_circle_angles(_ref_roots(p.rows[-1]))
             + _ref_unit_circle_angles(_ref_roots(_ref_toric_resultant(p))))
    if p.y_degree == 2:
        c, b, a = p.matrix.T
        kinks += _ref_unit_circle_angles(_ref_roots(np.convolve(b, b) - 4.0 * np.convolve(a, c)),
                                         mahler.NEAR_CIRCLE)
    pts = [0.0]
    for t in sorted(kinks):
        if t - pts[-1] > mahler.ON_CIRCLE and t < math.pi - mahler.ON_CIRCLE:
            pts.append(t)
    return pts + [math.pi]


class TestPanelSearchOracle:
    def test_roots_equal_np_roots(self):
        rng = np.random.default_rng(28)
        cases = [[], [0.0], [0.0, 0.0, 0.0], [2.0], [0.0, 0.0, 5.0, 0.0]]
        cases += [[-1.0, 1.0], [1.0, 1.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0]]  # on |x| = 1
        for _ in range(3000):
            c = rng.normal(size=rng.integers(1, 12)) * 10.0 ** rng.uniform(-5, 5)
            c[rng.random(c.size) < 0.25] = 0.0  # leading, inner and trailing zeros
            cases.append(c.tolist())
        cases += [rng.normal(size=2).tolist() for _ in range(2000)]  # degree 1: -c0/c1
        for c in cases:
            got, want = mahler._roots(c), _ref_roots(c)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), c
            for band in (mahler.ON_CIRCLE, mahler.NEAR_CIRCLE):
                assert mahler._unit_circle_angles(got, band) == _ref_unit_circle_angles(want, band)

    def test_split_angles_equal_the_reference(self):
        # all four families over [-20, 20] in steps of 0.25, which holds the
        # boundary and singular members S 4, R 6, P 8, P -1 and Q 4
        polys = [family_poly(FamilySpec(name, k / 4)) for name in "PSQR" for k in range(-80, 81)]
        # y - x and y^2 - x^2 equal minus their reciprocals
        polys += [BivariatePoly([[0, -1], [1]]), BivariatePoly([[0, 0, -1], [0], [1]])]
        for p in polys:
            assert mahler._toric_resultant(p) == []  # self-inversive: never formed
            assert split_angles(p) == _ref_split_angles(p), p.rows
        # (y - 1 - x)(y - 3) is not self-inversive: its kink at 2 pi / 3 comes
        # from the resultant alone
        p = BivariatePoly([[3, 3], [-4, -1], [1]])
        assert np.any(mahler._toric_resultant(p))
        assert split_angles(p) == _ref_split_angles(p)
        assert any(abs(t - 2 * math.pi / 3) < 1e-12
                   for t in mahler._unit_circle_angles(mahler._roots(mahler._toric_resultant(p))))


class TestPathIntegral:
    @pytest.mark.parametrize("family,alpha", [
        ("P", 1.0), ("P", 3.0), ("S", 3.0), ("Q", 5.0), ("R", 7.0), ("P", -3.0), ("S", -3.0),
    ])
    def test_matches_measure(self, family, alpha):
        # the boundary-path integral of eta equals -2 pi (m(P) - m(P*)), P*
        # the leading coefficient in y
        p = family_poly(FamilySpec(family, alpha))
        lead = jensen_univariate(p.rows[-1][::-1])
        path = jensen_path_eta(FamilySpec(family, alpha))
        assert abs(path + 2 * math.pi * (mahler_quadratic_y(p) - lead)) < 1e-7

    def test_circle_against_a_constant(self):
        # x = 2 e^{it}, y = 3: eta = -log 3 dt, so one loop gives -2 pi log 3;
        # the central differences (step 1e-7 of a panel) leave about 1e-9
        value = eta_path_integral(lambda t: 2.0 * np.exp(1j * t),
                                  lambda t: np.full(t.shape, 3.0 + 0j), [0.0, 1.0, 2 * math.pi])
        assert abs(value + 2 * math.pi * math.log(3.0)) < 1e-7

    def test_zero_of_x_on_the_path_raises(self):
        # the midpoint node of [0, 1] is t = 0.5 exactly, where x = 0
        with pytest.raises(DegenerateInputError, match="path hits a zero of x or y at t=0.5"):
            eta_path_integral(lambda t: t - 0.5 + 0j, lambda t: np.exp(1j * t), [0.0, 1.0])

    @pytest.mark.parametrize("partition", [[0.0], [0.0, 0.0], [0.0, 2.0, 1.0]])
    def test_rejects_bad_partition(self, partition):
        with pytest.raises(DegenerateInputError):
            eta_path_integral(np.exp, np.exp, partition)
