"""Scalar references: the one-step DOPRI5 body, the step loop and the sampled checks, one sample at a time.

``dopri5_step`` is the step as it was written before flowfam generated it
per dimension: a ``zip`` over the components for every stage, summed left
to right in the tableau's order.  The generated step must equal it bit for
bit.  ``attempt`` is the step loop's try as the loop wrote it before the
try was generated: that step, its finite checks, ``error_norm`` and the
blow-up test's norm.  ``drive`` is the step loop as flowfam wrote it by
hand around ``attempt``, with its escape refinement (``bisect_escape``,
over ``integrate_to``, this loop's ``_integrate``).  The driver flowfam
generates per field must equal it bit for bit, hooked or not.

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
from flowfam.expr import EvalError
from flowfam.integrate import EscapeEvent, IntegratorConfig, StepBudgetExceeded, numeric_family
from flowfam.reconstruct import ReconstructionFailed, field_from_family
from flowfam.verify import Accumulator, ConditionReport, default_plan

# Dormand-Prince 5(4) tableau; zero entries (a_72, e_2) are left out of the sums
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40


def dopri5_step(f, t, y, h, k1=None):
    """One Dormand-Prince step of size h from (t, y): (y5, err, k_last), generic over n."""
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + _C2 * h, tuple([y0 + h * (_A21 * a) for y0, a in zip(y, k1)]))
    k3 = f(t + _C3 * h, tuple([y0 + h * (_A31 * a + _A32 * b) for y0, a, b in zip(y, k1, k2)]))
    k4 = f(t + _C4 * h, tuple([y0 + h * (_A41 * a + _A42 * b + _A43 * c)
                               for y0, a, b, c in zip(y, k1, k2, k3)]))
    k5 = f(t + _C5 * h, tuple([y0 + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                               for y0, a, b, c, d in zip(y, k1, k2, k3, k4)]))
    k6 = f(t + h, tuple([y0 + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                         for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
    y5 = tuple([y0 + h * (_A71 * a + _A73 * c + _A74 * d + _A75 * e + _A76 * g)
                for y0, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)])
    k7 = f(t + h, y5)
    err = tuple([h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * q)
                 for a, c, d, e, g, q in zip(k1, k3, k4, k5, k6, k7)])
    return y5, err, k7


def error_norm(err, y0, y1, abs_tol, rel_tol):
    """max_i |e_i| / (abs_tol + rel_tol * max(|y0_i|, |y1_i|)): the scaled error the step loop accepts at 1."""
    return max([abs(e) / (abs_tol + rel_tol * max(abs(a), abs(b))) for e, a, b in zip(err, y0, y1)])


def attempt(f, t, y, h, k1, abs_tol, rel_tol):
    """One try of the step loop: None where y5 or the error estimate is not finite, else (y5, k7, err, y5_norm).

    An EvalError from f propagates.  y5_norm is the norm the blow-up test
    compares with the blow-up radius.
    """
    y5, err, k7 = dopri5_step(f, t, y, h, k1)
    if not (all(map(math.isfinite, y5)) and all(map(math.isfinite, err))):
        return None
    return y5, k7, error_norm(err, y, y5, abs_tol, rel_tol), max(map(abs, y5))


_SAFETY, _FACTOR_MIN, _FACTOR_MAX = 0.9, 0.2, 5.0


def drive(field, tau, cfg, refine, state, record=None):
    """The step loop: make tries from state (t, h, steps, y, k1) until one lands on tau.

    A try's step is clipped at tau when |h| >= |tau - t|.  Each try is one
    call of attempt over field.slope.  record, when given, is called as
    record(row, steps) before each try, with row the list of floats [t, h,
    *y, *k1] and steps the tries made; returning True ends the loop, which
    then returns None.
    """
    t, h, steps, y, k1 = state
    slope, contains = field.slope, field.domain.contains
    abs_tol, rel_tol, h_min, max_steps = cfg.abs_tol, cfg.rel_tol, cfg.h_min, cfg.max_steps
    blowup_radius = cfg.blowup_radius
    while True:
        if record is not None and record([t, h, *y, *k1], steps):
            return None
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(f"integration exceeded {max_steps} steps at t={t}")
        last = abs(h) >= abs(tau - t)
        if last:
            h = tau - t
        try:
            tried = attempt(slope, t, y, h, k1, abs_tol, rel_tol)
        except EvalError:
            tried = None
        if tried is None:
            # rhs not evaluable (or overflowed) somewhere inside the step;
            # shrink and retry until the step cannot shrink further
            h *= 0.5
            if abs(h) < h_min:
                raise EscapeEvent("step_underflow", t)
            continue
        y_new, k_last, err, y_norm = tried
        factor = _FACTOR_MAX if err == 0.0 else min(
            _FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err ** -0.2)
        )
        if err <= 1.0:
            t_new = tau if last else t + h
            kind = "blow_up" if y_norm > blowup_radius else (None if contains(t_new, y_new) else "left_domain")
            if kind is not None:
                if refine:
                    t_star, kind = bisect_escape(field, t, y, t_new, cfg, kind)
                    raise EscapeEvent(kind, t_star)
                raise EscapeEvent(kind, t_new)
            if last:
                return y_new
            t, y, k1 = t_new, y_new, k_last
            h *= factor
            if abs(h) < h_min:  # keep crawling; only a failed step underflows
                h = math.copysign(h_min, h)
        else:
            h *= factor
            if abs(h) < h_min:
                raise EscapeEvent("step_underflow", t)


def integrate_to(field, rho, a, tau, cfg, refine):
    """drive from (rho, a) to tau, with the start rule of flowfam's _integrate."""
    lo, hi = cfg.window
    if not (lo <= rho <= hi and lo <= tau <= hi):
        raise ValueError(f"start time {rho} and target time {tau} must lie in the integration window [{lo}, {hi}]")
    if not field.domain.contains(rho, a):
        raise ValueError(f"initial condition ({rho}, {list(a)}) outside the field domain")
    try:
        k1 = field.slope(rho, a)
    except EvalError as err:
        raise ValueError(f"field cannot be evaluated at the initial condition ({rho}, {list(a)}): {err}") from err
    h = (1.0 if tau > rho else -1.0) * min(cfg.h_init, abs(tau - rho))
    return a if tau == rho else drive(field, tau, cfg, refine, (rho, h, 0, a, k1))


def bisect_escape(field, t_good, y_good, t_bad, cfg, kind):
    """Bisect the last accepted step down to a 5e-7 bracket around the escape, re-integrating from the good end."""
    while abs(t_bad - t_good) > 5e-7:
        mid = 0.5 * (t_good + t_bad)
        try:
            y_good = integrate_to(field, t_good, y_good, mid, cfg, refine=False)
            t_good = mid  # the step loop has classified the point it landed on
        except EscapeEvent as ev:
            t_bad, kind = ev.time, ev.kind
    return 0.5 * (t_good + t_bad), kind


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
    """G_alpha = F_{alpha, 0}, one point query per leg."""
    acc = ScalarAccumulator()
    for alpha, beta, a in samples(plan, 2):
        with acc:
            outer = group.evaluate(alpha, 0.0, group.evaluate(beta, 0.0, a))
            witness = {"alpha": alpha, "beta": beta, "a": list(map(float, a))}
            acc.compare(outer, lambda: group.evaluate(alpha + beta, 0.0, a), witness,
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
