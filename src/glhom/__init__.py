"""Exact counting of homomorphisms from a finite group A into GL_n(q).

Given the degree profile of A (order plus irreducible representation
degrees over a splitting field), this package computes the polynomial
|Hom(A, GL_n(q))| in q exactly, its leading term m_r * q^(n^2(1-1/a) -
eps_r), and the stability bound N past which that formula is certified --
with a built-in brute-force oracle over small finite matrix groups that
independently verifies the numbers.
"""

from .counting import (
    LeadingTerm,
    VarietyReport,
    hom_count_poly,
    leading_term,
    orbit_poly,
    variety_report,
)
from .errors import (
    DivisionByZero,
    GlhomError,
    IneligibleTuple,
    InvariantViolation,
    LengthMismatch,
    NonZeroRemainder,
    ParseError,
    RangeError,
    ResourceLimit,
    UnstableRegime,
    UnsupportedFamily,
    ValidationError,
)
from .intpoly import NEG_INFINITY, IntPolynomial, div_exact, gl_order_poly
from .minimize import (
    LiftedReport,
    MinimalReport,
    StabilityBound,
    eligible_tuples,
    epsilon,
    lift_minimal,
    minimal_tuples,
    minimal_tuples_direct,
    minimal_tuples_for_n,
    stability_bound,
    weight,
)
from .profiles import (
    DegreeProfile,
    GroupSpec,
    parse_group_spec,
    profile_of,
    splitting_field_check,
    validate_profile,
)

__version__ = "0.1.0"

# the oracle, and numpy with it, is imported on first use: only ``verify`` needs it
_ORACLE_NAMES = frozenset({
    "Presentation", "builtin_presentation", "gl_count", "hom_count_bruteforce",
    "minimal_tuples_naive", "parse_presentation",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DegreeProfile",
    "DivisionByZero",
    "GlhomError",
    "GroupSpec",
    "IneligibleTuple",
    "IntPolynomial",
    "InvariantViolation",
    "LeadingTerm",
    "LengthMismatch",
    "LiftedReport",
    "MinimalReport",
    "NEG_INFINITY",
    "NonZeroRemainder",
    "ParseError",
    "Presentation",
    "RangeError",
    "ResourceLimit",
    "StabilityBound",
    "UnstableRegime",
    "UnsupportedFamily",
    "ValidationError",
    "VarietyReport",
    "builtin_presentation",
    "div_exact",
    "eligible_tuples",
    "epsilon",
    "gl_count",
    "gl_order_poly",
    "hom_count_bruteforce",
    "hom_count_poly",
    "leading_term",
    "lift_minimal",
    "minimal_tuples",
    "minimal_tuples_direct",
    "minimal_tuples_for_n",
    "minimal_tuples_naive",
    "orbit_poly",
    "parse_group_spec",
    "parse_presentation",
    "profile_of",
    "splitting_field_check",
    "stability_bound",
    "validate_profile",
    "variety_report",
    "weight",
]
