"""Time-translation invariance and the one-parameter reduction.

A family that only depends on the difference of its two times collapses to
a single map G with G_alpha = F_{alpha, 0}; composing G with itself walks
the family along the diagonal, and the group law G_alpha(G_beta(a)) =
G_{alpha+beta}(a) replaces the two-parameter composition rule.  Detection
is sampled: shift every (tau, rho, a) sample by each plan time and compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import DomainViolation, FlowFamily, as_state, check_tol_hint, inf_norm, scaled_tol
from .verify import Accumulator, ConditionReport, SamplePlan, default_plan

__all__ = [
    "OneParamGroup",
    "NotAutonomous",
    "check_time_shift",
    "detect_autonomous",
    "to_group",
    "group_from_family",
    "check_group_law",
    "family_from_group",
]


class NotAutonomous(Exception):
    """The family failed (or never passed) the time-shift check."""


@dataclass(frozen=True)
class OneParamGroup:
    """One-parameter family of maps G_alpha with G_0 the identity.

    g(alpha, a) returns the moved state or raises DomainViolation;
    membership is derived from it: true iff g succeeds.  tol_hint carries
    the accuracy of a numerically-backed group.
    """

    n: int
    g: Callable = field(repr=False)
    tol_hint: float = 0.0

    def __post_init__(self):
        check_tol_hint(self.tol_hint)

    def evaluate(self, alpha: float, a) -> np.ndarray:
        arr = as_state(a, self.n)
        if not math.isfinite(alpha):
            raise ValueError("group parameter must be finite")
        return as_state(self.g(float(alpha), arr), self.n)

    def in_domain(self, alpha: float, a) -> bool:
        arr = as_state(a, self.n)
        if not math.isfinite(alpha):
            return False
        try:
            self.g(float(alpha), arr)
            return True
        except DomainViolation:
            return False


def check_time_shift(fam: FlowFamily, plan: SamplePlan, tol: float | None = None) -> ConditionReport:
    """Residual of F_{tau+c, rho+c}(a) = F_{tau, rho}(a) over plan shifts c."""
    tol = scaled_tol(fam.tol_hint) if tol is None else tol
    acc = Accumulator()
    for tau, rho, a in plan.samples(2):
        with acc:
            base = fam.evaluate(tau, rho, a)
            for c in plan.time_grid:
                with acc:
                    shifted = fam.evaluate(tau + c, rho + c, a)
                    acc.record(
                        inf_norm(shifted - base),
                        {"tau": tau, "rho": rho, "shift": c, "a": list(map(float, a))},
                    )
    return acc.report("time_shift", tol)


def detect_autonomous(fam: FlowFamily, plan: SamplePlan | None = None) -> bool:
    plan = plan or default_plan(fam.n)
    return check_time_shift(fam, plan).passed


def to_group(fam: FlowFamily, plan: SamplePlan | None = None) -> OneParamGroup:
    """Collapse an autonomous family to G_alpha = F_{alpha, 0}.

    Runs the time-shift check first and refuses families that fail it;
    pass a tailored plan when the default grid sits outside the family's
    useful range.
    """
    plan = plan or default_plan(fam.n)
    report = check_time_shift(fam, plan)
    if not report.passed:
        raise NotAutonomous(
            f"time-shift residual {report.max_residual:.3g} exceeds {report.tolerance:.3g} "
            f"at {report.worst_case}"
        )
    return group_from_family(fam)


def group_from_family(fam: FlowFamily) -> OneParamGroup:
    """G_alpha = F_{alpha, 0} without the time-shift check; to_group checks first."""

    def g(alpha: float, a: np.ndarray) -> np.ndarray:
        return fam.evaluate(alpha, 0.0, a)

    return OneParamGroup(n=fam.n, g=g, tol_hint=fam.tol_hint)


def check_group_law(group: OneParamGroup, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Residual of G_alpha(G_beta(a)) = G_{alpha+beta}(a) over guarded triples.

    The guard requires both legs of the composition; a sample whose legs
    exist while the direct map is undefined scores an infinite residual,
    matching the two-parameter composition check.
    """
    acc = Accumulator()
    for alpha, beta, a in plan.samples(2):
        with acc:
            outer = group.evaluate(alpha, group.evaluate(beta, a))
            witness = {"alpha": alpha, "beta": beta, "a": list(map(float, a))}
            acc.compare(outer, lambda: group.evaluate(alpha + beta, a), witness,
                        "legs of the composition exist but the direct map is undefined")
    return acc.report("group_law", tol)


def family_from_group(group: OneParamGroup) -> FlowFamily:
    """Spread a one-parameter group back out as F_{tau, sigma} = G_{tau-sigma}."""

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> np.ndarray:
        return group.g(tau - sigma, a)

    return FlowFamily(n=group.n, kind="group_backed", evaluator=evaluator, tol_hint=group.tol_hint)
