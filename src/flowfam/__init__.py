"""flowfam: numerical toolkit for two-parameter flow-map families.

A flow family F assigns to each time pair (tau, sigma) a map of the state
space, with F_{tau,tau} the identity and composition across a middle time.
The package evaluates such families from closed forms or by integrating a
vector field, verifies the defining conditions on sampled grids, tabulates
the generating field back out of a family, and reduces the autonomous and
affine special cases to their small normal forms.
"""

from .autonomous import (
    NotAutonomous,
    check_group_law,
    check_time_shift,
    to_group,
)
from .core import (
    DomainSpec,
    DomainViolation,
    EscapeInterval,
    FlowFamily,
    VectorField,
    closed_form_family,
)
from .integrate import (
    IntegratorConfig,
    advance,
    escape_interval,
    numeric_family,
)
from .linear import (
    AffineMap,
    Mollifier,
    NotAffine,
    NotAffineField,
    NotInvertible,
    SincovDecomposition,
    SingularWronskian,
    check_affine,
    family_from_decomposition,
    mollify,
    sincov_decompose,
    smooth_apply,
    wronski_consistency,
)
from .reconstruct import (
    ReconstructionConfig,
    ReconstructionFailed,
    TabulatedVectorField,
    diagonal_rate,
    field_from_family,
    roundtrip_error,
)
from .verify import (
    ConditionReport,
    SamplePlan,
    SuiteTolerances,
    VerificationReport,
    default_plan,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "ConditionReport",
    "DomainSpec",
    "DomainViolation",
    "EscapeInterval",
    "FlowFamily",
    "IntegratorConfig",
    "Mollifier",
    "NotAffine",
    "NotAffineField",
    "NotAutonomous",
    "NotInvertible",
    "ReconstructionConfig",
    "ReconstructionFailed",
    "SamplePlan",
    "SincovDecomposition",
    "SingularWronskian",
    "SuiteTolerances",
    "TabulatedVectorField",
    "VectorField",
    "VerificationReport",
    "advance",
    "check_affine",
    "check_group_law",
    "check_time_shift",
    "closed_form_family",
    "default_plan",
    "diagonal_rate",
    "escape_interval",
    "family_from_decomposition",
    "field_from_family",
    "mollify",
    "numeric_family",
    "roundtrip_error",
    "run_suite",
    "sincov_decompose",
    "smooth_apply",
    "to_group",
    "wronski_consistency",
]
