"""The sampled checks one sample at a time: the reference the lane-batched checks must equal.

Each check here draws its samples from ``samples`` (the grid product, then
numpy.random's draws on the plan seed), evaluates every leg with scalar
``FlowFamily.evaluate`` and keeps its report in ``ScalarAccumulator``, whose
guard makes an out_of_domain DomainViolation one skip.  These are the
per-sample checks flowfam ran before its checks became batches, kept
verbatim in their arithmetic, so a batched report must equal this one in
every field: counts, residual, worst case, note and verdict.
"""

import math
from itertools import product

import numpy as np

from flowfam.core import DomainViolation, inf_norm, scaled_tol
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.reconstruct import ReconstructionFailed, field_from_family
from flowfam.verify import Accumulator, ConditionReport, default_plan


def samples(plan, k, m=1):
    """(t_1, ..., t_k, a_1, ..., a_m) samples: the grid product, then the random batch."""
    for point in product(*[plan.time_grid] * k, *[plan.state_grid] * m):
        yield (*point[:k], *(np.asarray(s, dtype=float) for s in point[k:]))
    if not plan.random_count:
        return
    rng = np.random.default_rng(plan.seed)
    box = np.asarray(plan.state_grid, dtype=float)
    times = rng.uniform(plan.time_grid[0], plan.time_grid[-1], size=(k, plan.random_count))
    states = rng.uniform(box.min(axis=0), box.max(axis=0), size=(m, plan.random_count, plan.n))
    for draw in zip(*times, *states):
        yield (*map(float, draw[:k]), *draw[k:])


class ScalarAccumulator(Accumulator):
    """``with acc:`` guards one sample; ``compare`` scores an undefined direct map."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, DomainViolation) and exc.kind == "out_of_domain":
            self.skipped += 1
            return True
        return False

    def count(self, violations, witness=None):
        self.checked += 1
        self.max_residual = max(self.max_residual, 0.0) + violations
        if violations and self.worst is None:
            self.worst = witness

    def compare(self, value, direct, witness, note):
        try:
            residual = inf_norm(value - direct())
        except DomainViolation:
            residual = math.inf
            self.note = note
        self.record(residual, witness)


def check_identity(fam, plan, tol=1e-9) -> ConditionReport:
    acc = ScalarAccumulator()
    for sigma, a in samples(plan, 1):
        with acc:
            acc.record(inf_norm(fam.evaluate(sigma, sigma, a) - a), {"sigma": sigma, "a": list(a)})
    return acc.report("identity", tol)


def check_inverse(fam, plan, tol=1e-9) -> ConditionReport:
    acc = ScalarAccumulator()
    for rho, sigma, a in samples(plan, 2):
        with acc:
            back = fam.evaluate(rho, sigma, fam.evaluate(sigma, rho, a))
            acc.record(inf_norm(back - a), {"rho": rho, "sigma": sigma, "a": list(a)})
    return acc.report("inverse", tol)


def check_cocycle(fam, plan, tol=1e-9) -> ConditionReport:
    acc = ScalarAccumulator()
    for tau, sigma, rho, a in samples(plan, 3):
        with acc:
            two_leg = fam.evaluate(tau, sigma, fam.evaluate(sigma, rho, a))
            witness = {"tau": tau, "sigma": sigma, "rho": rho, "a": list(a)}
            acc.compare(two_leg, lambda: fam.evaluate(tau, rho, a), witness,
                        "guard held but the direct map was undefined")
    return acc.report("cocycle", tol)


def check_domain_inclusion(fam, plan) -> ConditionReport:
    acc = ScalarAccumulator()
    for rho, sigma, a in samples(plan, 2):
        if not fam.in_domain(rho, sigma, a):
            acc.skip()
            continue
        acc.count(not fam.in_domain(sigma, sigma, a), {"rho": rho, "sigma": sigma, "a": list(a)})
    return acc.report("domain_inclusion", 0.0)


def check_interval(fam, plan) -> ConditionReport:
    acc = ScalarAccumulator()
    for rho, a in samples(plan, 1):
        flags = [fam.in_domain(tau, rho, a) for tau in plan.time_grid]
        inside = [i for i, f in enumerate(flags) if f]
        gaps = [i for i in range(inside[0], inside[-1] + 1) if not flags[i]] if inside else []
        witness = {"rho": rho, "a": list(a), "tau": plan.time_grid[gaps[0]]} if gaps else None
        acc.count(len(gaps), witness)
    return acc.report("interval", 0.0)


def _axis_probes(tau, sigma, a, eps):
    yield tau + eps, sigma, a
    yield tau - eps, sigma, a
    yield tau, sigma + eps, a
    yield tau, sigma - eps, a
    for k in range(a.shape[0]):
        for sign in (eps, -eps):
            shifted = a.copy()
            shifted[k] += sign
            yield tau, sigma, shifted


def check_openness(fam, plan, delta=1e-4) -> ConditionReport:
    acc = ScalarAccumulator()
    nonempty = False
    for tau, sigma, a in samples(plan, 2):
        if not fam.in_domain(tau, sigma, a):
            acc.skip()
            continue
        nonempty = True
        if not all(fam.in_domain(*p) for p in _axis_probes(tau, sigma, a, delta)):
            acc.skip()
            continue
        bad = sum(not fam.in_domain(*p) for p in _axis_probes(tau, sigma, a, delta / 2.0))
        acc.count(bad, {"tau": tau, "sigma": sigma, "a": list(a)})
    if not nonempty:
        return acc.report("openness", 0.0, note="K empty over plan", empty_residual=math.inf)
    return acc.report("openness", 0.0)


def check_time_shift(fam, plan, tol=None) -> ConditionReport:
    tol = scaled_tol(fam.tol_hint) if tol is None else tol
    acc = ScalarAccumulator()
    for tau, rho, a in samples(plan, 2):
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


def check_group_law(group, plan, tol=1e-9) -> ConditionReport:
    acc = ScalarAccumulator()
    for alpha, beta, a in samples(plan, 2):
        with acc:
            outer = group.evaluate(alpha, group.evaluate(beta, a))
            witness = {"alpha": alpha, "beta": beta, "a": list(map(float, a))}
            acc.compare(outer, lambda: group.evaluate(alpha + beta, a), witness,
                        "legs of the composition exist but the direct map is undefined")
    return acc.report("group_law", tol)


def check_affine(fam, plan) -> ConditionReport:
    acc = ScalarAccumulator()
    for tau, sigma, a, b in samples(plan, 2, 2):
        if np.array_equal(a, b):
            continue
        for lam in (-1.0, 0.5, 2.0):
            with acc:
                left = fam.evaluate(tau, sigma, lam * a + (1.0 - lam) * b)
                right = lam * fam.evaluate(tau, sigma, a) + (1.0 - lam) * fam.evaluate(tau, sigma, b)
                acc.record(
                    inf_norm(left - right),
                    {
                        "tau": tau,
                        "sigma": sigma,
                        "lambda": lam,
                        "a": list(map(float, a)),
                        "b": list(map(float, b)),
                    },
                )
    return acc.report("affinity", scaled_tol(fam.tol_hint))


def roundtrip_error(fam, cfg, icfg=None, eval_plan=None) -> float:
    icfg = icfg or IntegratorConfig()
    rebuilt = numeric_family(field_from_family(fam, cfg), icfg)
    plan = eval_plan or default_plan(fam.n, random_count=0)
    acc = ScalarAccumulator()
    for tau, sigma, a in samples(plan, 2):
        with acc:
            acc.record(inf_norm(fam.evaluate(tau, sigma, a) - rebuilt.evaluate(tau, sigma, a)), None)
    if not acc.checked:
        raise ReconstructionFailed("no evaluation-plan triple was defined on both routes")
    return acc.max_residual
