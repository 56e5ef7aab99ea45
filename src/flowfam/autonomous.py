"""Time-translation invariance and the one-parameter reduction.

A family that only depends on the difference of its two times is a local
one-parameter group: G_alpha = F_{alpha, 0}, so the family itself is the
group, read at sigma = 0.  Composing G with itself walks the family along
the diagonal, and the group law G_alpha(G_beta(a)) = G_{alpha+beta}(a)
replaces the two-parameter composition rule.  Detection is sampled: shift
every (tau, rho, a) sample by each plan time and compare.  A hand-written
group g(alpha, a) is the family
FlowFamily(n, "group_backed", lambda tau, sigma, a: g(tau - sigma, a), tol_hint).
"""

from __future__ import annotations

import numpy as np

from .core import FlowFamily, scaled_tol
from .verify import Accumulator, ConditionReport, SamplePlan, default_plan, evaluate_where, lane_gap

__all__ = [
    "NotAutonomous",
    "check_time_shift",
    "to_group",
    "check_group_law",
]


class NotAutonomous(Exception):
    """The family failed (or never passed) the time-shift check."""


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


def to_group(fam: FlowFamily, plan: SamplePlan | None = None) -> FlowFamily:
    """fam itself, once it passes the time-shift check: read as G_alpha = F_{alpha, 0}.

    Refuses families that fail the check; pass a tailored plan when the
    default grid sits outside the family's useful range.
    """
    plan = plan or default_plan(fam.n)
    report = check_time_shift(fam, plan)
    if not report.passed:
        raise NotAutonomous(
            f"time-shift residual {report.max_residual:.3g} exceeds {report.tolerance:.3g} "
            f"at {report.worst_case}"
        )
    return fam


def check_group_law(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Residual of G_alpha(G_beta(a)) = G_{alpha+beta}(a) over guarded triples, G_alpha = F_{alpha, 0}.

    The guard requires both legs of the composition; a sample whose legs
    exist while the direct map is undefined scores an infinite residual,
    matching the two-parameter composition check.
    """
    (alpha, beta), (a,) = plan.columns(2)
    zero = np.zeros(len(alpha))
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
