"""Exact divisor calculus: canonical forms, diamonds, derivation chains, catalog lines."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab.divisors import (
    GROUPS,
    FormalDivisor,
    MinusDivisor,
    MixedGroupError,
    PointGroup,
    SymbolicPoint,
    _line,
    canonicalize_minus,
    derive_equivalence,
    diamond,
    family_divisor_catalog,
    family_embedding,
    map_r_to_q,
    strip_self_inverse,
)
from regulab.elliptic import CurvePoint
from regulab.families import FAMILIES
from regulab.numerics import DegenerateInputError, solve_quadratic_stable


class TestPointGroup:
    def test_torsion_reduction(self):
        # with P of order 6, -P is stored as 5P
        p = GROUPS["P"].point(P=-1)
        assert p.coeffs == (5,)
        assert p.label == "5P"

    def test_six_torsion_wraps(self):
        assert GROUPS["P"].point(P=7) == GROUPS["P"].point(P=1)
        assert GROUPS["P"].point(P=6).is_zero()

    def test_free_generator_is_not_reduced(self):
        g = PointGroup(("P", "U"), (("P", 6),))
        assert g.point(U=-3).coeffs == (0, -3)

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            PointGroup(("P",), (("Q", 2),))

    def test_mixed_group_addition_rejected(self):
        g = PointGroup(("Q",), (("Q", 6),))
        with pytest.raises(MixedGroupError):
            GROUPS["P"].point(P=1) + g.point(Q=1)


class TestFormalDivisor:
    def test_zero_multiplicities_dropped(self):
        d = FormalDivisor([(GROUPS["P"].point(P=1), 2), (GROUPS["P"].point(P=1), -2)])
        assert not d
        assert d.degree == 0

    def test_degree_and_arithmetic(self):
        a = FormalDivisor({GROUPS["P"].point(P=1): 3})
        b = FormalDivisor({GROUPS["P"].point(P=2): -1})
        assert (a + b).degree == 2
        assert (2 * a - b).multiplicity(GROUPS["P"].point(P=2)) == 1

    def test_canonicalize_minus_inversion(self):
        # (P) + (-P) dies; (2P) - (-2P) becomes 2(2P)
        d = FormalDivisor(
            {GROUPS["P"].point(P=1): 1, GROUPS["P"].point(P=5): 1,
             GROUPS["P"].point(P=2): 1, GROUPS["P"].point(P=4): -1}
        )
        m = canonicalize_minus(d)
        assert m.multiplicity(GROUPS["P"].point(P=1)) == 0
        # the orbit {2P, 4P} keeps one representative with total weight 2
        total = abs(m.multiplicity(GROUPS["P"].point(P=2))) + abs(
            m.multiplicity(GROUPS["P"].point(P=4))
        )
        assert total == 2

    def test_self_inverse_mod_two(self):
        # 3P is 2-torsion under P of order 6: multiplicity is kept mod 2
        d = FormalDivisor({GROUPS["P"].point(P=3): 5})
        assert canonicalize_minus(d).multiplicity(GROUPS["P"].point(P=3)) == 1
        assert not strip_self_inverse(d)

    def test_a_minus_divisor_is_returned_as_it_is(self):
        cat = family_divisor_catalog("S")
        for m in (diamond(cat["a"], cat["b"]), canonicalize_minus(cat["minus_x1_diamond_y1"])):
            assert canonicalize_minus(m) is m


class TestDiamond:
    def test_antisymmetry(self):
        cat = family_divisor_catalog("P")
        lhs = diamond(cat["x"], cat["y"])
        rhs = diamond(cat["y"], cat["x"])
        assert canonicalize_minus(lhs + rhs) == canonicalize_minus(FormalDivisor())

    def test_bilinearity(self):
        cat = family_divisor_catalog("P")
        x, y = cat["x"], cat["y"]
        assert diamond(2 * x, y) == canonicalize_minus(2 * FormalDivisor(dict(diamond(x, y).items())))
        assert diamond(x + y, y) == canonicalize_minus(
            FormalDivisor(dict(diamond(x, y).items()))
            + FormalDivisor(dict(diamond(y, y).items()))
        )

    def test_self_diamond_vanishes(self):
        cat = family_divisor_catalog("P")
        assert not diamond(cat["x"], cat["x"])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_scaling_both_slots(self, k, m, n):
        cat = family_divisor_catalog("P")
        x, y = cat["x"], cat["y"]
        d = diamond(k * x, m * y)
        e = diamond(x, y)
        assert d == canonicalize_minus(k * m * FormalDivisor(dict(e.items())))
        # unused n keeps hypothesis shrinking honest about independence
        assert isinstance(n, int)


class TestDerivationChains:
    @pytest.mark.parametrize("chain", ["S", "QR"])
    def test_chain_passes_exactly(self, chain):
        report = derive_equivalence(chain)
        assert report.passed, report.first_failure()
        assert report.first_failure() is None

    def test_s_chain_base_diamond_is_torsion_class(self):
        report = derive_equivalence("S")
        step = report.steps[0]
        # the base-family diamond is exactly -6(P) - 6(2P) in the quotient
        target = canonicalize_minus(
            FormalDivisor({GROUPS["P"].point(P=1): -6, GROUPS["P"].point(P=2): -6})
        )
        assert step.lhs == target

    @pytest.mark.parametrize("chain", ["qr", "Q/R", "Q", ""])
    def test_unknown_chain_is_rejected(self, chain):
        with pytest.raises(DegenerateInputError, match="unknown chain"):
            derive_equivalence(chain)

    def test_discrepancies_live_on_self_inverse_classes(self):
        for chain in ("S", "QR"):
            for step in derive_equivalence(chain).steps:
                for p, m in step.discrepancy.items():
                    assert p == -p, f"{chain}/{step.name}: {p.label} x{m}"


class TestRtoQTransport:
    def test_even_a_coefficients_transport(self):
        d = FormalDivisor({GROUPS["R"].point(A=2, S=1): 1, GROUPS["R"].point(P=1): -1})
        out = map_r_to_q(d)
        assert out.degree == 0

    def test_odd_a_coefficient_rejected(self):
        d = FormalDivisor({GROUPS["R"].point(A=1, S=1): 1})
        with pytest.raises(MixedGroupError):
            map_r_to_q(d)


# each catalog line c0 + cX X + cY Y, as (c0, cX, cY) at the family's parameter
LINES = {
    "P": {
        "X-Y": lambda a: (0.0, 1.0, -1.0),
        "Y+(alpha-1)X+alpha": lambda a: (a, a - 1.0, 1.0),
        "X-alpha": lambda a: (-a, 1.0, 0.0),
    },
    "S": {
        "X-alpha": lambda a: (-a, 1.0, 0.0),
        "X+alpha": lambda a: (a, 1.0, 0.0),
        "alphaX+2Y+alpha^2": lambda a: (a * a, a, 2.0),
        "Y": lambda a: (0.0, 0.0, 1.0),
    },
    "Q": {
        "W-alphaZ": lambda a: (0.0, -a, 1.0),
        "W+alphaZ": lambda a: (0.0, a, 1.0),
        "3Z+4(alpha^2-9)": lambda a: (4.0 * (a * a - 9.0), 3.0, 0.0),
    },
    "R": {
        "W": lambda b: (0.0, 0.0, 1.0),
        "Z-4(beta+1)": lambda b: (-4.0 * (b + 1.0), 1.0, 0.0),
        "3Z+4(beta-5)(beta+1)": lambda b: (4.0 * (b - 5.0) * (b + 1.0), 3.0, 0.0),
        "W-3Z-4(beta-5)(beta+1)": lambda b: (-4.0 * (b - 5.0) * (b + 1.0), -3.0, 1.0),
    },
}
# at S alpha = 3, V - P is 4-torsion, a coincidence the words do not record
LINE_PARAMS = {"P": (2.7, 5.9, -2.3, -5.5), "S": (1.3, 2.7, -2.3, -5.5), "Q": (5.3, 9.1),
               "R": (7.3, 11.2)}
LONG_FORMS = {"minus_x1_diamond_y1", "minus_x2_diamond_y2", "minus_x3_diamond_y3",
              "steinberg_diamond_claimed"}


def _line_errors(emb, coeffs, divisor):
    """How the line c0 + cX X + cY Y on emb's curve fails to have ``divisor``; [] if it has it.

    The line vanishes at each affine point of the divisor; for a vertical
    line (cY = 0) that puts each at X = -c0/cX, and it meets the curve in two
    affine points.  Any other line meets it in three, the roots of the monic
    cubic got by substituting the line into the curve's equation, so that
    cubic is the product of (X - x_p)^m_p.
    """
    c0, cx, cy = coeffs
    zeros = [(emb.coordinates(p), m) for p, m in divisor.items() if not p.is_zero()]
    errors = [f"pole {m} at {pt}" for pt, m in zeros if m < 0]
    for pt, _ in zeros:
        value = c0 + cx * pt.x + cy * pt.y
        # coordinates carry absolute roundoff, so one that is 0 counts as size 1
        if abs(value) > 1e-9 * (abs(c0) + abs(cx) * (1 + abs(pt.x)) + abs(cy) * (1 + abs(pt.y))):
            errors.append(f"value {value:.3g} at {pt}")
    xs = [pt.x for pt, m in zeros for _ in range(max(m, 0))]
    if cy == 0:
        return errors + ([] if len(xs) == 2 else [f"{len(xs)} affine zeros on a vertical line"])
    c = emb.curve
    m, k = -cx / cy, -c0 / cy  # Y = m X + k
    cubic = [1.0, c.a2 - m * m - c.a1 * m, c.a4 - 2 * m * k - c.a1 * k - c.a3 * m,
             c.a6 - k * k - c.a3 * k]
    if len(xs) != 3:
        return errors + [f"{len(xs)} affine zeros, the cubic has 3"]
    scale = 1.0 + max(abs(x) for x in xs)  # coefficient j is of size scale^j
    for j, (want, got) in enumerate(zip(cubic, np.poly(xs))):
        if abs(want - got) > 1e-9 * scale**j:
            errors.append(f"X^{3 - j} coefficient {got} against {want}")
    return errors


@functools.cache
def _embedding(family, param):
    return family_embedding(family, param)


class TestCatalogLines:
    @pytest.mark.parametrize("family,param,name", [
        (f, a, name) for f, lines in LINES.items() for a in LINE_PARAMS[f] for name in lines])
    def test_each_line_has_its_divisor(self, family, param, name):
        emb = _embedding(family, param)
        coeffs = LINES[family][name](param)
        assert _line_errors(emb, coeffs, family_divisor_catalog(family)[name]) == []

    @pytest.mark.parametrize("alpha", LINE_PARAMS["S"])
    def test_wrong_divisors_are_caught(self, alpha):
        g, emb, lines = GROUPS["S"], _embedding("S", alpha), LINES["S"]
        P, V = g.point(P=1), g.point(V=1)
        # V in place of U, and the flex's triple zero cut to a double one
        assert _line_errors(emb, lines["alphaX+2Y+alpha^2"](alpha), _line(5 * P, V))
        assert _line_errors(emb, lines["Y"](alpha), FormalDivisor({2 * P: 2, g.zero(): -2}))

    def test_p_lines_give_the_map_to_the_cubic(self):
        # x = (X - Y)/(X - alpha) and y = (Y + (alpha-1)X + alpha)/(X - alpha)
        alpha, X = 2.7, 1.7
        curve = FAMILIES["P"].curve(alpha)
        Y = solve_quadratic_stable(1.0, curve.a1 * X + curve.a3, -curve.rhs(X))[0]
        x, y = FAMILIES["P"].from_curve(alpha, CurvePoint(X, Y))
        c = {name: line(alpha) for name, line in LINES["P"].items()}
        value = {name: c0 + cx * X + cy * Y for name, (c0, cx, cy) in c.items()}
        assert x == pytest.approx(value["X-Y"] / value["X-alpha"], rel=1e-12)
        assert y == pytest.approx(value["Y+(alpha-1)X+alpha"] / value["X-alpha"], rel=1e-12)

    @pytest.mark.parametrize("family", sorted(GROUPS))
    def test_functions_have_degree_zero_and_sum_to_o(self, family):
        g = GROUPS[family]
        for name, d in family_divisor_catalog(family).items():
            if name in LONG_FORMS:
                continue
            assert d.degree == 0, name
            assert sum((m * p for p, m in d.items()), g.zero()).is_zero(), name

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.data())
    def test_line_is_symmetric_in_its_three_points(self, name, data):
        group = GROUPS[name]
        coeffs = st.tuples(*[st.integers(-7, 7)] * len(group.generators))
        a, b = (SymbolicPoint(group, data.draw(coeffs)) for _ in range(2))
        line = _line(a, b)
        assert line == _line(b, a) == _line(a, -a - b)
        assert line.degree == 0
        assert sum((m * p for p, m in line.items()), group.zero()).is_zero()


class TestEmbeddings:
    @pytest.mark.parametrize("family,param", [("P", 3.0), ("S", 3.0), ("Q", 5.0), ("R", 7.0)])
    def test_generators_lie_on_curve(self, family, param):
        emb = family_embedding(family, param)
        for name, pt in emb.generator_points.items():
            assert emb.curve.contains(pt, tol=1e-8), name

    def test_log_is_generator_linear(self):
        emb = family_embedding("S", 3.0)
        g = emb.group
        p = g.point(P=2, U=1, V=-1)
        expect = (
            2 * emb.generator_logs["P"]
            + emb.generator_logs["U"]
            - emb.generator_logs["V"]
        )
        assert abs(emb.log(p) - expect) < 1e-14


# ---------------------------------------------------------------------------
# reference oracle: the object-based calculus, on dicts from SymbolicPoint to
# multiplicity, kept here to check the coefficient-tuple implementation
# ---------------------------------------------------------------------------


def _ref_add(terms, p, m):
    if m == 0:
        return
    new = terms.get(p, 0) + m
    if new:
        terms[p] = new
    else:
        terms.pop(p, None)


def _ref(pairs):
    terms = {}
    for p, m in pairs:
        _ref_add(terms, p, m)
    return terms


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for p, m in b.items():
        _ref_add(out, p, sign * m)
    return out


def ref_canonicalize_minus(terms):
    out = {}
    for p, m in terms.items():
        q = -p
        if q == p:
            _ref_add(out, p, m % 2)
        elif q.coeffs > p.coeffs:
            _ref_add(out, q, -m)
        else:
            _ref_add(out, p, m)
    return _ref((p, m % 2 if p == -p else m) for p, m in out.items() if m)


def ref_diamond(f, g):
    acc = {}
    for s, m in f.items():
        for t, n in g.items():
            _ref_add(acc, s + (-t), m * n)
    return ref_canonicalize_minus(acc)


def ref_strip_self_inverse(terms):
    return {p: m for p, m in ref_canonicalize_minus(terms).items() if p != -p}


def ref_map_r_to_q(terms):
    out = {}
    for p, m in terms.items():
        c = dict(zip(p.group.generators, p.coeffs))
        assert c.get("A", 0) % 2 == 0
        _ref_add(out, GROUPS["Q"].point(P=c.get("P", 0), S=c.get("S", 0), T=c.get("T", 0)), m)
    return out


def ref_chain_steps(chain):
    """(lhs, rhs) of each step of the chain, replayed on the reference."""
    cat = {f: {k: _ref(d.items()) for k, d in family_divisor_catalog(f).items()} for f in FAMILIES}
    P, S, Q, R = (cat[f] for f in "PSQR")

    def torsion(group, k):
        return ref_canonicalize_minus(_ref([(GROUPS[group].point(P=1), k),
                                            (GROUPS[group].point(P=2), k)]))

    if chain == "S":
        return [
            (ref_diamond(P["x"], P["y"]), torsion("P", -6)),
            (ref_diamond(S["a"], S["b"]), ref_canonicalize_minus(S["minus_x1_diamond_y1"])),
            (ref_diamond(S["steinberg_f"], S["steinberg_1mf"]),
             ref_canonicalize_minus(S["steinberg_diamond_claimed"])),
            (ref_canonicalize_minus(_ref_sum(S["minus_x1_diamond_y1"],
                                             S["steinberg_diamond_claimed"])), torsion("S", 6)),
        ]
    diff = ref_canonicalize_minus(
        _ref_sum(R["minus_x3_diamond_y3"], R["steinberg_diamond_claimed"], -1))
    return [
        (ref_diamond(Q["a"], Q["b"]), ref_canonicalize_minus(Q["minus_x2_diamond_y2"])),
        (ref_diamond(R["a"], R["b"]), ref_canonicalize_minus(R["minus_x3_diamond_y3"])),
        (ref_diamond(R["steinberg_f"], R["steinberg_1mf"]),
         ref_canonicalize_minus(R["steinberg_diamond_claimed"])),
        (ref_canonicalize_minus(ref_map_r_to_q(diff)),
         ref_canonicalize_minus(Q["minus_x2_diamond_y2"])),
    ]


def _ordered(d):
    """Terms in order: equal order keeps every D^E sum over them bit-identical."""
    return list(d.items())


def _divisor_terms(group, multiplicities=st.integers(-3, 3), min_size=0):
    coeffs = st.tuples(*[st.integers(-7, 7)] * len(group.generators))
    return st.lists(st.tuples(coeffs, multiplicities), min_size=min_size, max_size=8)


def _build(group, raw):
    pairs = [(SymbolicPoint(group, c), m) for c, m in raw]
    return FormalDivisor(pairs), _ref(pairs)


class TestAgainstTheObjectReference:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.data())
    def test_canonical_forms_and_diamonds_match(self, name, data):
        group = GROUPS[name]
        f, ref_f = _build(group, data.draw(_divisor_terms(group)))
        g, ref_g = _build(group, data.draw(_divisor_terms(group)))
        assert _ordered(f) == _ordered(ref_f)
        assert _ordered(canonicalize_minus(f)) == _ordered(ref_canonicalize_minus(ref_f))
        assert _ordered(strip_self_inverse(f)) == _ordered(ref_strip_self_inverse(ref_f))
        assert _ordered(f + g) == _ordered(_ref_sum(ref_f, ref_g))
        assert _ordered(f - g) == _ordered(_ref_sum(ref_f, ref_g, -1))
        fg = diamond(f, g)
        assert isinstance(fg, MinusDivisor)
        assert _ordered(fg) == _ordered(ref_diamond(ref_f, ref_g))
        # antisymmetry in Z[E]^-: negating flips the self-inverse parities back
        assert diamond(g, f) == canonicalize_minus(-fg)
        assert diamond(f, f + g) == canonicalize_minus(diamond(f, f) + fg)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(sorted(GROUPS)), st.data())
    def test_mixed_groups_raise(self, names, data):
        # positive multiplicities cannot cancel, so both operands have terms
        f, g = (_build(GROUPS[n], data.draw(_divisor_terms(GROUPS[n], st.integers(1, 3), 1)))[0]
                for n in names[:2])
        for op in (FormalDivisor.__add__, FormalDivisor.__sub__, diamond):
            with pytest.raises(MixedGroupError):
                op(f, g)

    @pytest.mark.parametrize("chain", ["S", "QR"])
    def test_chain_steps_match(self, chain):
        steps = derive_equivalence(chain).steps
        want = ref_chain_steps(chain)
        assert len(steps) == len(want)
        for step, (lhs, rhs) in zip(steps, want):
            assert _ordered(step.lhs) == _ordered(lhs), step.name
            assert _ordered(step.rhs) == _ordered(rhs), step.name
            disc = ref_canonicalize_minus(_ref_sum(lhs, rhs, -1))
            assert _ordered(step.discrepancy) == _ordered(disc), step.name

    def test_catalog_is_a_fresh_dict_per_call(self):
        first, second = family_divisor_catalog("S"), family_divisor_catalog("S")
        assert first is not second and first == second
        first.clear()
        assert family_divisor_catalog("S") == second
