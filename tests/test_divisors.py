"""Exact divisor calculus: canonical forms, diamonds, derivation chains."""

import pytest
from hypothesis import given, settings, strategies as st

from regulab.divisors import (
    GROUPS,
    FormalDivisor,
    MixedGroupError,
    PointGroup,
    canonicalize_minus,
    derive_equivalence,
    diamond,
    family_divisor_catalog,
    family_embedding,
    map_r_to_q,
    strip_self_inverse,
    verify_claimed_divisor,
)
from regulab.elliptic import CurvePoint
from regulab.families import FAMILIES


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


class TestClaimedDivisors:
    @pytest.mark.parametrize("alpha", [3.0, 7.0])
    def test_base_family_coordinate_functions(self, alpha):
        emb = family_embedding("P", alpha)
        cat = family_divisor_catalog("P")
        for name, idx in (("x", 0), ("y", 1)):
            f = lambda X, Y: FAMILIES["P"].from_curve(alpha, CurvePoint(X, Y))[idx]
            rep = verify_claimed_divisor(emb.curve, f, cat[name], emb)
            assert rep.degree_zero
            assert rep.abel_jacobi_residual < 1e-6
            assert rep.passed, [(c.point, c.claimed, c.slope) for c in rep.checks]

    def test_empty_divisor_trivially_passes(self):
        emb = family_embedding("P", 3.0)
        rep = verify_claimed_divisor(emb.curve, lambda X, Y: 1.0, FormalDivisor(), emb)
        assert rep.passed and not rep.checks

    def test_wrong_multiplicity_detected(self):
        emb = family_embedding("P", 3.0)
        cat = family_divisor_catalog("P")
        wrong = FormalDivisor(dict(cat["x"].items())) + FormalDivisor(
            {GROUPS["P"].point(P=2): 1, GROUPS["P"].point(P=5): -1}
        )
        f = lambda X, Y: FAMILIES["P"].from_curve(3.0, CurvePoint(X, Y))[0]
        rep = verify_claimed_divisor(emb.curve, f, wrong, emb)
        assert not rep.passed


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
