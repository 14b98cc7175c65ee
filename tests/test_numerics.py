"""Quadrature and root-solver unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regulab.numerics import (
    DegenerateInputError,
    NoConvergenceError,
    QuadratureResult,
    Tolerance,
    integrate_adaptive,
    integrate_endpoint_singular,
    integrate_panels_singular,
    solve_quadratic_stable,
)


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.absolute == 1e-10 and t.relative == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_rejects_nonpositive_absolute(self, bad):
        with pytest.raises(ValueError):
            Tolerance(absolute=bad)

    def test_rejects_negative_relative(self):
        with pytest.raises(ValueError):
            Tolerance(relative=-1.0)


class TestAdaptive:
    def test_polynomial(self):
        r = integrate_adaptive(lambda x: 3 * x * x, 0.0, 2.0)
        assert abs(r.value - 8.0) < 1e-12

    def test_oscillatory(self):
        r = integrate_adaptive(math.sin, 0.0, math.pi)
        assert abs(r.value - 2.0) < 1e-12
        assert r.evaluations > 0

    def test_interval_validation(self):
        with pytest.raises(DegenerateInputError):
            integrate_adaptive(math.sin, 1.0, 1.0)


class TestTanhSinh:
    def test_smooth(self):
        r = integrate_endpoint_singular(lambda x: x * x, 0.0, 1.0)
        assert abs(r.value - 1.0 / 3.0) < 1e-13

    def test_pi_from_arcsine_weight(self):
        # int_0^1 dt/sqrt(t(1-t)) = pi; the classic endpoint-singular case
        r = integrate_endpoint_singular(
            lambda t: 1.0 / math.sqrt(t * (1.0 - t)), 0.0, 1.0,
            Tolerance(absolute=1e-7),
        )
        # the plain f(x) form is documented to cap near 1e-8 on 1/sqrt
        # singularities; the offsets test below goes to machine precision
        assert abs(r.value - math.pi) < 5e-8

    def test_pi_offsets_form_reaches_machine_precision(self):
        r = integrate_endpoint_singular(
            lambda da, db: 1.0 / math.sqrt(da * db), 0.0, 1.0,
            Tolerance(absolute=1e-13), offsets=True,
        )
        assert abs(r.value - math.pi) < 1e-13

    def test_log_singularity(self):
        r = integrate_endpoint_singular(math.log, 0.0, 1.0)
        assert abs(r.value - (-1.0)) < 1e-12

    def test_shifted_interval(self):
        r = integrate_endpoint_singular(
            lambda x: 1.0 / math.sqrt(x - 2.0), 2.0, 3.0,
            Tolerance(absolute=1e-7),
        )
        assert abs(r.value - 2.0) < 5e-8

    def test_nonconvergence_carries_best_estimate(self):
        # 1/x is not integrable; the rule must give up, not hang
        with pytest.raises(NoConvergenceError) as err:
            integrate_endpoint_singular(
                lambda x: 1.0 / x, 0.0, 1.0, Tolerance(max_evaluations=2000)
            )
        assert isinstance(err.value.best, QuadratureResult)

    def test_never_evaluates_endpoints(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.sqrt(x)

        integrate_endpoint_singular(f, 0.0, 1.0)
        assert all(0.0 < x < 1.0 for x in seen)


class TestPanelsTanhSinh:
    @pytest.mark.parametrize("f,a,b,tol", [
        (math.log, 0.0, 1.0, 1e-10),
        (lambda t: 1.0 / math.sqrt(t * (1.0 - t)), 0.0, 1.0, 1e-7),
        (lambda x: 1.0 / math.sqrt(x - 2.0), 2.0, 3.0, 1e-7),
    ])
    def test_matches_scalar_rule_on_one_panel(self, f, a, b, tol):
        scalar = integrate_endpoint_singular(f, a, b, Tolerance(absolute=tol))
        array = integrate_panels_singular(np.vectorize(f), [(a, b)], Tolerance(absolute=tol))
        assert abs(array.value - scalar.value) < 1e-12
        assert array.evaluations <= scalar.evaluations

    def test_sums_several_panels(self):
        # log|x| over [-1, 2] in three panels with the singularity at a shared end
        panels = [(-1.0, 0.0), (0.0, 0.5), (0.5, 2.0)]
        r = integrate_panels_singular(lambda x: np.log(np.abs(x)), panels)
        assert abs(r.value - (2.0 * math.log(2.0) - 3.0)) < 1e-12
        assert r.evaluations > 0

    def test_never_evaluates_panel_ends(self):
        seen = []

        def f(x):
            seen.extend(x)
            return np.log(np.abs(x - 1.0))

        integrate_panels_singular(f, [(0.0, 1.0), (1.0, 3.0)])
        assert all(x not in (0.0, 1.0, 3.0) for x in seen)
        # on a panel one ulp wide every node rounds onto one end or the other
        seen.clear()
        integrate_panels_singular(f, [(3.0, math.nextafter(3.0, 4.0))])
        assert seen == []

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(NoConvergenceError) as err:
            integrate_panels_singular(lambda x: 1.0 / x, [(0.0, 1.0)])
        assert isinstance(err.value.best, QuadratureResult)

    @pytest.mark.parametrize("panels", [[], [(1.0, 1.0)], [(0.0, 1.0), (2.0, 1.5)]])
    def test_rejects_empty_or_reversed_panels(self, panels):
        with pytest.raises(DegenerateInputError):
            integrate_panels_singular(np.log, panels)


class TestQuadraticSolver:
    def test_cancellation_case(self):
        # classic catastrophic-cancellation example
        r1, r2 = solve_quadratic_stable(1.0, -1e8, 1.0)
        prod = sorted([abs(r1), abs(r2)])
        assert abs(prod[0] - 1e-8) / 1e-8 < 1e-12

    def test_zero_leading_coefficient(self):
        with pytest.raises(DegenerateInputError):
            solve_quadratic_stable(0.0, 1.0, 1.0)

    def test_zero_constant(self):
        roots = solve_quadratic_stable(2.0, 4.0, 0.0)
        assert 0.0 in roots and -2.0 in roots

    @given(
        st.floats(-50, 50).filter(lambda a: abs(a) > 1e-3),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
    def test_roots_satisfy_equation(self, a, b, c):
        if c == 0:
            return
        for r in solve_quadratic_stable(a, b, c):
            scale = max(abs(a * r * r), abs(b * r), abs(c), 1.0)
            assert abs(a * r * r + b * r + c) / scale < 1e-9
