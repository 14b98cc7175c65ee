"""Quadrature and root-solver unit tests."""

import math

import cmath
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab import mahler, numerics
from regulab.mahler import FamilySpec, family_poly, mahler_torus2
from regulab.numerics import (
    _TS_LEVELS,
    DegenerateInputError,
    NoConvergenceError,
    QuadratureResult,
    Tolerance,
    carlson_rf,
    integrate_adaptive,
    integrate_endpoint_singular,
    integrate_panel_rows,
    solve_quadratic_stable,
    solve_quadratic_stable_array,
    upper_gamma,
)


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.absolute == 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_nonpositive_absolute(self, bad):
        with pytest.raises(ValueError):
            Tolerance(absolute=bad)


class TestAdaptive:
    def test_polynomial(self):
        r = integrate_adaptive(lambda x: 3 * x * x, 0.0, 2.0)
        assert abs(r.value - 8.0) < 1e-12

    def test_oscillatory(self):
        r = integrate_adaptive(np.sin, 0.0, math.pi)
        assert abs(r.value - 2.0) < 1e-12
        assert r.evaluations > 0

    def test_calls_f_once_per_level_with_an_array(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.sqrt(x) * np.cos(x)

        r = integrate_adaptive(f, 0.0, 5.0, Tolerance(absolute=1e-12))
        assert abs(r.value - -2.728190928480553) < 1e-11  # mpmath.quad
        assert 0 < len(calls) <= _TS_LEVELS + 1
        assert all(isinstance(x, np.ndarray) for x in calls)
        assert r.evaluations == sum(x.size for x in calls)

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
        # x cannot resolve offsets below ~1e-16 from the end at 1, which
        # caps the accuracy near 1e-8 on 1/sqrt singularities there
        assert abs(r.value - math.pi) < 5e-8

    def test_log_singularity(self):
        r = integrate_endpoint_singular(math.log, 0.0, 1.0)
        assert abs(r.value - (-1.0)) < 1e-12

    def test_shifted_interval(self):
        r = integrate_endpoint_singular(
            lambda x: 1.0 / math.sqrt(x - 2.0), 2.0, 3.0,
            Tolerance(absolute=1e-7),
        )
        assert abs(r.value - 2.0) < 5e-8

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        # 1/x is not integrable; the rule must give up at the level cap, not hang
        groups = []
        node_group = numerics._ts_group
        monkeypatch.setattr(numerics, "_ts_group", lambda *g: groups.append(g) or node_group(*g))
        with pytest.raises(NoConvergenceError) as err:
            integrate_endpoint_singular(lambda x: 1.0 / x, 0.0, 1.0)
        assert isinstance(err.value.best, QuadratureResult)
        assert groups == list(numerics._TS_GROUPS)

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
        array = integrate_panel_rows(
            lambda x, row: np.vectorize(f)(x), [[(a, b)]], Tolerance(absolute=tol))[0]
        assert abs(array.value - scalar.value) < 1e-12
        assert array.evaluations <= scalar.evaluations

    def test_sums_several_panels(self):
        # log|x| over [-1, 2] in three panels with the singularity at a shared end
        panels = [(-1.0, 0.0), (0.0, 0.5), (0.5, 2.0)]
        (r,) = integrate_panel_rows(lambda x, row: np.log(np.abs(x)), [panels])
        assert abs(r.value - (2.0 * math.log(2.0) - 3.0)) < 1e-12
        assert r.evaluations > 0

    def test_never_evaluates_panel_ends(self):
        seen = []

        def f(x, row):
            seen.extend(x)
            return np.log(np.abs(x - 1.0))

        integrate_panel_rows(f, [[(0.0, 1.0), (1.0, 3.0)]])
        assert all(x not in (0.0, 1.0, 3.0) for x in seen)
        # on a panel one ulp wide every node rounds onto one end or the other
        seen.clear()
        integrate_panel_rows(f, [[(3.0, math.nextafter(3.0, 4.0))]])
        assert seen == []

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(NoConvergenceError) as err:
            integrate_panel_rows(lambda x, row: 1.0 / x, [[(0.0, 1.0)]])
        assert isinstance(err.value.best, QuadratureResult)

    # an empty panel (a == b) is allowed in a row and adds nothing; a row
    # with no panels or a panel reversed by as little as one ulp is not
    @pytest.mark.parametrize("panels", [[], [(1.0, math.nextafter(1.0, 0.0))],
                                        [(0.0, 1.0), (2.0, 1.5)]])
    def test_rejects_empty_or_reversed_panels(self, panels):
        with pytest.raises(DegenerateInputError):
            integrate_panel_rows(lambda x, row: np.log(x), [panels])


class TestPanelRows:
    # row k integrates log|x - s_k| + cos(3 k x); panels end at s_k, and an
    # empty panel pads row 0 to the common panel count
    SHIFTS = np.array([0.0, 0.3, 2.0])
    ENDS = [[(0.0, 1.0), (1.0, 1.0)], [(-1.0, 0.3), (0.3, 2.0)], [(2.0, 2.5), (2.5, 3.0)]]

    def _f(self, x, row):
        return np.log(np.abs(x - self.SHIFTS[row])) + np.cos(3.0 * row * x)

    def test_each_row_equals_its_solo_run(self):
        tol = Tolerance(absolute=1e-10)
        rows = integrate_panel_rows(self._f, self.ENDS, tol)
        assert len(rows.value) == len(self.ENDS)
        for k, (row, ends) in enumerate(zip(rows, self.ENDS)):
            (solo,) = integrate_panel_rows(
                lambda x, row: self._f(x, row + k), [[e for e in ends if e[0] < e[1]]], tol)
            assert abs(row.value - solo.value) <= 1e-15 * max(abs(solo.value), 1.0)
            assert row.evaluations == solo.evaluations
        assert len({r.evaluations for r in rows}) > 1  # rows stop at different levels

    def test_stalled_row_raises_with_its_own_best_estimate(self):
        def f(x, row):  # 1/x is not integrable on (0, 1)
            return np.where(row == 1, 1.0 / x, np.log(x))

        with pytest.raises(NoConvergenceError) as err:
            integrate_panel_rows(f, [[(0.0, 1.0)], [(0.0, 1.0)]])
        with pytest.raises(NoConvergenceError) as solo:
            integrate_panel_rows(lambda x, row: 1.0 / x, [[(0.0, 1.0)]])
        assert err.value.best == solo.value.best

    def test_fused_first_call_keeps_each_levels_stop_and_error(self, monkeypatch):
        # one call per level stops these at levels 1 (zero integrand), 3 and
        # 5 (16, 64 and 255 nodes); the first fused call holds levels 0-3
        tol = Tolerance(absolute=1e-10)
        calls = []

        def f(x, row):
            calls.append(x.size)
            return np.select([row == 0, row == 1], [0.0 * x, np.log(x)], np.cos(20.0 * x))

        rows = integrate_panel_rows(f, [[(0.0, 1.0)]] * 3, tol)
        assert len(calls) <= _TS_LEVELS + 1 - 3
        assert rows[0].evaluations == rows[1].evaluations == calls[0] // 3  # all of levels 0-3
        monkeypatch.setattr(numerics, "_TS_GROUPS", tuple((j, j) for j in range(_TS_LEVELS + 1)))
        unfused = integrate_panel_rows(f, [[(0.0, 1.0)]] * 3, tol)
        for row, solo, evals in zip(rows, unfused, (16, 64, 255)):
            assert solo.evaluations == evals
            assert abs(row.value - solo.value) <= 1e-15
            assert abs(row.error_estimate - solo.error_estimate) <= 1e-15

    @pytest.mark.parametrize("ends", [[(0.0, 1.0)], [[(1.0, 0.0)]], [[(0.0, math.inf)]]])
    def test_rejects_malformed_rows(self, ends):
        with pytest.raises(DegenerateInputError):
            integrate_panel_rows(lambda x, row: x, ends)


# ---------------------------------------------------------------------------
# reference oracle: integrate_panel_rows as it was before single levels got
# their own update, kept here to check the kernel bit for bit.  It still
# reads the relative tolerance and the evaluation budget the kernel then
# had, so it runs on a stand-in tolerance with both at their old defaults.
# ---------------------------------------------------------------------------


def _reference_panel_rows(f, ends, tol):
    ends = np.asarray(ends, dtype=float)
    if (ends.ndim != 3 or ends.shape[2] != 2 or not np.all(np.isfinite(ends))
            or np.any(ends[..., 0] > ends[..., 1])):
        raise DegenerateInputError(
            f"need shape (rows, panels, 2) with finite panels a <= b, got {ends.tolist()!r}")
    lo, hi = ends[..., :1], ends[..., 1:]
    width = hi - lo
    total = np.zeros(len(ends))
    estimate = np.zeros(len(ends))
    err = np.full(len(ends), math.inf)
    evals = np.zeros(len(ends), dtype=int)
    active = np.arange(len(ends))
    for first, last in numerics._TS_GROUPS:
        active = active[evals[active] <= tol.max_evaluations]
        if not active.size:
            break
        nodes = numerics._ts_group(first, last)
        a, b, w = lo[active], hi[active], width[active]
        x = np.where(nodes.left, a, b) + w * nodes.step
        inside = (a < x) & (x < b)  # else rounded onto an end; weighted term is ~1e-37
        pos, _, node = np.nonzero(inside)  # ``pos`` indexes ``active``
        fx = f(x[inside], active[pos])
        # one bin per (row, level): each level's sum adds the same terms in
        # the same order as a call for that level alone would
        shape = (active.size, last - first + 1)
        key = pos * shape[1] + nodes.level[node]
        sums = np.bincount(key, (w * nodes.weight)[inside] * fx, math.prod(shape)).reshape(shape)
        seen = evals[active, None] + np.cumsum(  # evaluations through each level
            np.bincount(key, minlength=math.prod(shape)).reshape(shape), axis=1)
        # total, estimate and error after each level, as one call per level leaves them
        running = np.cumsum(np.concatenate([total[active, None], sums], axis=1), axis=1)[:, 1:]
        est = nodes.h * running
        diff = np.abs(est - np.concatenate([estimate[active, None], est[:, :-1]], axis=1))
        if first == 0:
            diff[:, 0] = math.inf  # level 0 alone has no error estimate
        # a row stops at its first level that converges, or before a level
        # that would start over the budget
        stop = diff <= np.maximum(tol.absolute, tol.relative * np.abs(est)) * 0.1
        stop[:, :-1] |= seen[:, :-1] > tol.max_evaluations
        stopped = stop.any(axis=1)
        row, j = np.arange(active.size), np.where(stopped, stop.argmax(axis=1), shape[1] - 1)
        total[active], estimate[active], err[active] = running[row, j], est[row, j], diff[row, j]
        evals[active] = seen[:, -1]  # every node of the group was evaluated
        active = active[~stopped]
    # rows left unconverged at the level cap or the budget pass up to tol
    stalled = np.nonzero(~(err <= np.maximum(tol.absolute, tol.relative * np.abs(estimate))))[0]
    results = [QuadratureResult(v, e, max(n, 1))
               for v, e, n in zip(estimate.tolist(), err.tolist(), evals.tolist())]
    if stalled.size:
        i = stalled[0]
        raise NoConvergenceError(
            f"tanh-sinh quadrature stalled at error {err[i]:.3g}", results[i]
        )
    return results


def _panel_rows_bits(kernel, f, ends, tol):
    """Each row's (value, error, evaluations) bit for bit, or the stall and its best."""
    def bits(results):
        return [(r.value.hex(), r.error_estimate.hex(), r.evaluations) for r in results]

    try:
        return bits(kernel(f, ends, tol))
    except NoConvergenceError as exc:
        return str(exc), bits([exc.best])


@st.composite
def _panel(draw):
    """(a, b): empty, one ulp wide or wide, with one end at an anchor that may be exactly 0."""
    anchor = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    kind = draw(st.sampled_from(["empty", "ulp", "wide"]))
    other = {"empty": anchor, "ulp": math.nextafter(anchor, math.inf),
             "wide": anchor + draw(st.floats(0.01, 2.0))}[kind]
    return (anchor, other) if draw(st.booleans()) else (2 * anchor - other, anchor)


class TestPanelRowsOracle:
    @given(data=st.data(), rows=st.integers(1, 6), panels=st.integers(1, 3),
           absolute=st.floats(-13.0, -6.0).map(lambda e: 10.0**e))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_bit_for_bit(self, data, rows, panels, absolute):
        ends = np.array([[data.draw(_panel()) for _ in range(panels)] for _ in range(rows)])
        # per row: log|x - s|, cos(k x), 1/sqrt(x - a) with a the row's lowest end, or 0
        kind = np.array([data.draw(st.integers(0, 3)) for _ in range(rows)])
        par = np.array([data.draw(st.floats(-3.0, 3.0)) for _ in range(rows)])
        par = np.where(kind == 1, 10.0 * par, np.where(kind == 2, ends[..., 0].min(axis=1), par))

        def f(x, row):
            k, p = kind[row], par[row]
            return np.select([k == 0, k == 1, k == 2],
                             [np.log(np.abs(x - p)), np.cos(p * x), 1.0 / np.sqrt(x - p)], 0.0)

        tol = Tolerance(absolute=absolute)
        old_tol = SimpleNamespace(absolute=absolute, relative=0.0, max_evaluations=200_000)
        unfused = tuple((j, j) for j in range(_TS_LEVELS + 1))
        with np.errstate(all="ignore"):
            assert (_panel_rows_bits(integrate_panel_rows, f, ends, tol)
                    == _panel_rows_bits(_reference_panel_rows, f, ends, old_tol))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numerics, "_TS_GROUPS", unfused)
                assert (_panel_rows_bits(integrate_panel_rows, f, ends, tol)
                        == _panel_rows_bits(_reference_panel_rows, f, ends, old_tol))

    @given(data=st.data(), rows=st.integers(1, 6), panels=st.integers(1, 3),
           absolute=st.floats(-13.0, -6.0).map(lambda e: 10.0**e))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_when_every_group_splits_into_blocks(
        self, data, rows, panels, absolute
    ):
        # 64 node slots are fewer than one panel of one row holds in any group,
        # so each integrand call takes a single row
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_TS_BLOCK_NODES", 64)
            self.test_equals_the_reference_bit_for_bit.hypothesis.inner_test(
                self, data, rows, panels, absolute)

    def test_no_integrand_call_exceeds_a_block(self, monkeypatch):
        # torus2 of P at 3 with its phi panel ends rotated by 1e-3 leaves a log
        # singularity inside a panel: every inner row refines to the level cap
        place = mahler._phi_panel_rows
        monkeypatch.setattr(mahler, "_phi_panel_rows",
                            lambda roots: place(roots * cmath.exp(1e-3j)))
        calls = []

        def kernel(f, ends, tol):
            def spy(x, row):
                calls.append((x.size, np.unique(row).size))
                return f(x, row)

            return integrate_panel_rows(spy, ends, tol)

        monkeypatch.setattr(mahler, "integrate_panel_rows", kernel)
        with pytest.raises(NoConvergenceError):
            mahler_torus2(family_poly(FamilySpec("P", 3.0)), Tolerance(absolute=1e-5))
        # a call over the limit holds one row: at most panels x group nodes
        assert all(size <= numerics._TS_BLOCK_NODES or rows == 1 for size, rows in calls)
        assert max(size for size, _ in calls) > numerics._TS_BLOCK_NODES  # the one-row case
        assert len(calls) > len(numerics._TS_GROUPS)  # some group took several calls

    def test_a_stall_raises_after_the_first_block_that_holds_it(self, monkeypatch):
        # the case above: the inner call that stalls runs one row per block from
        # level 10 on, and at the level cap the first block already holds a stalled row
        place = mahler._phi_panel_rows
        monkeypatch.setattr(mahler, "_phi_panel_rows",
                            lambda roots: place(roots * cmath.exp(1e-3j)))
        firsts = []
        refine = numerics._refine

        def spy(f, active, ends, nodes, first, *state):
            firsts.append(first)
            return refine(f, active, ends, nodes, first, *state)

        monkeypatch.setattr(numerics, "_refine", spy)
        with pytest.raises(NoConvergenceError) as err:
            mahler_torus2(family_poly(FamilySpec("P", 3.0)), Tolerance(absolute=1e-5))
        # the message and best estimate of a kernel that ran every block first
        best = err.value.best
        assert str(err.value) == "tanh-sinh quadrature stalled at error 8.17e-06"
        assert (best.value.hex(), best.error_estimate.hex(), best.evaluations) == (
            "0x1.16bb19d0e1b54p+2", "0x1.1242fca100000p-17", 51637)
        stalled_call = firsts[len(firsts) - firsts[::-1].index(0) - 1:]  # its groups' blocks
        assert stalled_call.count(_TS_LEVELS - 1) > 1
        assert stalled_call.count(_TS_LEVELS) == 1


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

    def test_array_form_matches_scalar_form(self):
        rng = np.random.default_rng(5)

        def draw(n):
            return (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
                    + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n))

        a, b, c = draw(2000), draw(2000), draw(2000)
        c[::7] = 0.0
        b[::11] = 0.0
        roots = solve_quadratic_stable_array(a, b, c)
        for i in range(a.size):
            expected = solve_quadratic_stable(complex(a[i]), complex(b[i]), complex(c[i]))
            for got, want in zip((roots[0][i], roots[1][i]), expected):
                assert abs(got - want) <= 1e-15 * abs(want)

    def test_array_form_rejects_zero_leading_coefficient(self):
        with pytest.raises(DegenerateInputError):
            solve_quadratic_stable_array(np.array([1.0, 0.0]), 1.0, 1.0)


def _rel(got, want) -> float:
    return abs(got - want) / abs(want)


class TestCarlsonRF:
    """R_F against mpmath's 30-digit elliprf."""

    def test_cut_plane_triples(self):
        rng = np.random.default_rng(11)
        with mpmath.workdps(30):
            for _ in range(100):
                # moduli over six decades, phases up to 0.001 rad from the cut at pi
                args = [cmath.rect(10.0 ** rng.uniform(-3, 3), 3.1406 * rng.uniform(-1, 1))
                        for _ in range(3)]
                assert _rel(carlson_rf(*args), complex(mpmath.elliprf(*args))) < 2e-15, args

    def test_one_zero_argument_forms_of_period_lattice(self):
        # (0, e1-e2, e1-e3) and (0, e1-e3, e2-e3) for three real roots; for one
        # real root r and a pair c, conj(c): (0, r-c, r-conj c) and (0, c-r, conj c-r),
        # with the pair as near as 0.01 to the real axis
        rng = np.random.default_rng(12)
        with mpmath.workdps(30):
            for _ in range(25):
                e1, e2, e3 = sorted(rng.uniform(-5, 5, 3), reverse=True)
                r, c = rng.uniform(-5, 5), complex(rng.uniform(-5, 5), rng.uniform(0.01, 5))
                for args in ((0.0, e1 - e2, e1 - e3), (0.0, e1 - e3, e2 - e3),
                             (0.0, r - c, r - c.conjugate()), (0.0, c - r, c.conjugate() - r)):
                    assert _rel(carlson_rf(*args), complex(mpmath.elliprf(*args))) < 2e-15, args

    def test_two_zero_arguments_diverge(self):
        assert carlson_rf(0.0, 0.0, 2.0) == math.inf


class TestUpperGamma:
    # s < 0 is the 2 - s half-sum of Lambda(s) for s > 2
    @pytest.mark.parametrize("s", [-1.7, -0.3, 0.0, 0.7, 1.0, 1.3, 2.0])
    def test_against_mpmath_on_a_log_grid(self, s):
        x = np.geomspace(1e-3, 700.0, 120)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.gammainc(s, v)) for v in x])
        assert np.max(np.abs(upper_gamma(s, x) / want - 1.0)) < 2e-14

    @pytest.mark.parametrize("s", [-1.001, -0.999, -0.001, 0.001, 0.03])
    def test_near_s_zero_and_minus_one_below_x_one(self, s):
        # where Gamma(1+a) - x^a cancels in the series' lead term, worst near x = 0.89
        x = np.geomspace(1e-3, 1.0, 120, endpoint=False)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.gammainc(s, v)) for v in x])
        assert np.max(np.abs(upper_gamma(s, x) / want - 1.0)) < 2e-14

    def test_exactly_zero_where_exp_underflows(self):
        assert not np.any(upper_gamma(0.7, np.array([746.0, 800.0, 1e4])))
