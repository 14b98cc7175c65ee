"""Numeric and symbolic verification of Mahler-measure / elliptic-regulator
identities for four families of two-variable polynomials."""

from .numerics import (
    DegenerateInputError,
    NoConvergenceError,
    QuadratureResult,
    Tolerance,
    integrate_adaptive,
    integrate_endpoint_singular,
    integrate_panel_rows,
    integrate_panels_singular,
    solve_quadratic_stable,
    solve_quadratic_stable_array,
)
from .dilogarithm import QPoint, bloch_wigner, elliptic_dilog, elliptic_dilog_divisor, li2
from .elliptic import (
    CurvePoint,
    PeriodLattice,
    WeierstrassCurve,
    deuring_curve,
    elliptic_log,
    family_models,
    period_lattice,
    q_point,
    quartic_twist_curve,
)
from .divisors import (
    FormalDivisor,
    MinusDivisor,
    PointGroup,
    SymbolicPoint,
    derive_equivalence,
    diamond,
    family_divisor_catalog,
    family_embedding,
    verify_claimed_divisor,
)
from .mahler import (
    BivariatePoly,
    FamilySpec,
    eta_path_integral,
    family_poly,
    jensen_univariate,
    mahler_quadratic_y,
    mahler_torus2,
)
from .periods import (
    CycleIntegral,
    change_of_variable_check,
    cycle_integral,
    cycle_vs_lattice,
    verify_period_identity,
)
from .lfunctions import (
    LSeries,
    TABLE_ONE,
    an_coefficients,
    ap_bad,
    ap_good,
    epsilon_detect,
    l_prime_zero,
    lambda_completed,
    table_one_lseries,
)

__version__ = "0.1.0"
