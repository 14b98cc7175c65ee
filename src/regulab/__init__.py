"""Numeric and symbolic verification of Mahler-measure / elliptic-regulator
identities for four families of two-variable polynomials."""

from .numerics import (
    DegenerateInputError,
    NoConvergenceError,
    QuadratureResult,
    Tolerance,
    integrate_adaptive,
    integrate_panel_rows,
    solve_quadratic_stable_array,
)
from .dilogarithm import QPoint, elliptic_dilog_divisor
from .elliptic import (
    CurvePoint,
    PeriodLattice,
    WeierstrassCurve,
    deuring_curve,
    elliptic_log,
    period_lattice,
    quartic_twist_curve,
)
from .families import FAMILIES, Family, family
from .divisors import (
    FormalDivisor,
    MinusDivisor,
    PointGroup,
    SymbolicPoint,
    derive_equivalence,
    diamond,
    family_divisor_catalog,
    family_embedding,
)
from .mahler import (
    BivariatePoly,
    FamilySpec,
    family_poly,
    mahler_quadratic_y,
    mahler_torus2,
)
from .periods import change_of_variable_check, verify_period_identity
from .lfunctions import (
    LSeries,
    TABLE_ONE,
    an_coefficients,
    l_prime_zero,
    lambda_completed,
    table_one_lseries,
)

__version__ = "0.1.0"
