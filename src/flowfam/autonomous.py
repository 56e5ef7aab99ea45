"""Time-translation invariance and the one-parameter reduction.

A family that only depends on the difference of its two times collapses to
a single map G with G_alpha = F_{alpha, 0}; composing G with itself walks
the family along the diagonal, and the group law G_alpha(G_beta(a)) =
G_{alpha+beta}(a) replaces the two-parameter composition rule.  Detection
is sampled: shift every (tau, rho, a) sample by each plan time and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import FlowFamily, scaled_tol
from .verify import Accumulator, ConditionReport, SamplePlan, default_plan, evaluate_where, lane_gap

__all__ = [
    "OneParamGroup",
    "NotAutonomous",
    "check_time_shift",
    "to_group",
    "group_from_family",
    "check_group_law",
]


class NotAutonomous(Exception):
    """The family failed (or never passed) the time-shift check."""


@dataclass(frozen=True)
class OneParamGroup:
    """One-parameter family of maps G_alpha with G_0 the identity.

    A view of its group-backed family F_{tau, sigma} = G_{tau - sigma}
    (``family``): G_alpha is F_{alpha, 0}, so evaluation, membership and
    validation are the family's.  g(alpha, a) returns the moved state or
    raises DomainViolation; tol_hint carries the accuracy of a
    numerically-backed group.

    batch_g(alpha[m], a[m, n]) -> (values[m, n], ok[m]), when given, is a
    lane form of g, as FlowFamily.batch_evaluator is of its evaluator: it
    changes no result.  The family then answers its batches by it, at
    tau - sigma subtracted lane by lane as the scalar subtraction does.
    """

    n: int
    g: Callable = field(repr=False)
    tol_hint: float = 0.0
    batch_g: Callable | None = field(default=None, repr=False)
    family: FlowFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, batch_g = self.g, self.batch_g
        spread = FlowFamily(
            self.n, "group_backed", lambda tau, sigma, a: g(tau - sigma, a), self.tol_hint,
            None if batch_g is None else lambda tau, sigma, a: batch_g(tau - sigma, a),
        )
        object.__setattr__(self, "family", spread)

    def evaluate(self, alpha: float, a) -> np.ndarray:
        return self.family.evaluate(alpha, 0.0, a)

    def in_domain(self, alpha: float, a) -> bool:
        return self.family.in_domain(alpha, 0.0, a)


def check_time_shift(fam: FlowFamily, plan: SamplePlan, tol: float | None = None) -> ConditionReport:
    """Residual of F_{tau+c, rho+c}(a) = F_{tau, rho}(a) over plan shifts c.

    A sample whose unshifted map is undefined is one skip; otherwise each
    shift is a lane of its own.
    """
    tol = scaled_tol(fam.tol_hint) if tol is None else tol
    (tau, rho), (a,) = plan.columns(2)
    base, ok = fam.evaluate_batch(tau, rho, a)
    rows = np.flatnonzero(ok)
    shifts = np.array(plan.time_grid)
    shifted, shifted_ok = fam.evaluate_batch(
        (tau[rows, None] + shifts).reshape(-1),
        (rho[rows, None] + shifts).reshape(-1),
        np.repeat(a[rows], len(shifts), axis=0),
    )
    shifted = shifted.reshape(len(rows), len(shifts), fam.n)

    def witness(i, j):
        return {"tau": float(tau[rows[i]]), "rho": float(rho[rows[i]]), "shift": plan.time_grid[j],
                "a": a[rows[i]].tolist()}

    acc = Accumulator()
    acc.skip(len(ok) - len(rows))
    acc.lanes(lane_gap(shifted, base[rows, None, :]), shifted_ok.reshape(len(rows), len(shifts)), witness)
    return acc.report("time_shift", tol)


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
    """G_alpha = F_{alpha, 0} without the time-shift check; to_group checks first.

    The group's lane form is fam's batch_evaluator at sigma = 0, when fam has one.
    """
    batch = fam.batch_evaluator
    return OneParamGroup(
        fam.n, lambda alpha, a: fam.evaluator(alpha, 0.0, a), fam.tol_hint,
        None if batch is None else lambda alpha, a: batch(alpha, np.zeros(len(alpha)), a),
    )


def check_group_law(group: OneParamGroup, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Residual of G_alpha(G_beta(a)) = G_{alpha+beta}(a) over guarded triples.

    The guard requires both legs of the composition; a sample whose legs
    exist while the direct map is undefined scores an infinite residual,
    matching the two-parameter composition check.
    """
    (alpha, beta), (a,) = plan.columns(2)
    fam, zero = group.family, np.zeros(len(alpha))
    inner, ok = fam.evaluate_batch(beta, zero, a)
    outer, ok = evaluate_where(fam, alpha, zero, inner, ok)
    direct, direct_ok = evaluate_where(fam, alpha + beta, zero, a, ok)
    acc = Accumulator()
    acc.lanes(
        lane_gap(outer, direct),
        ok,
        lambda i: {"alpha": float(alpha[i]), "beta": float(beta[i]), "a": a[i].tolist()},
        direct_ok,
        "legs of the composition exist but the direct map is undefined",
    )
    return acc.report("group_law", tol)
