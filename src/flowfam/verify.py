"""Sampled verification of the flow-family conditions.

A family that genuinely comes from an ODE satisfies, wherever defined:

  identity          F_{ss}(a) = a
  inverse           F_{rs}(F_{sr}(a)) = a
  cocycle           F_{ts}(F_{sr}(a)) = F_{tr}(a) under the domain guard
  domain_inclusion  (r,s,a) in K implies (s,s,a) in K
  interval          {t : (t,r,a) in K} has no gaps
  openness          K is open (probed along coordinate axes)

These quantify over continua, so the checks sample: a deterministic grid
(the plan's time and state grids) plus seeded random draws.  Identical
(plan, family) pairs produce bit-identical reports; each check builds its
own generator from the plan seed, so report content does not depend on
which checks run or in what order.

The residual checks run each sample under their Accumulator's guard, so
an out_of_domain DomainViolation in it counts as one skip and never
escapes, while a plan of the wrong dimension raises dimension_mismatch.
When the cocycle's two legs succeed but the direct map is undefined, that
is itself a violation of the condition, reported with an infinite
residual.  Bijectivity is certified through the inverse check
(injectivity plus surjectivity at the sampled points); surjectivity onto
an analytically-specified codomain is not separately sampled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .core import DomainViolation, FlowFamily, inf_norm

__all__ = [
    "SamplePlan",
    "SuiteTolerances",
    "ConditionReport",
    "Accumulator",
    "VerificationReport",
    "default_plan",
    "check_identity",
    "check_inverse",
    "check_cocycle",
    "check_domain_inclusion",
    "check_interval",
    "check_openness",
    "run_suite",
    "CONDITION_NAMES",
]

CONDITION_NAMES = (
    "identity",
    "inverse",
    "cocycle",
    "domain_inclusion",
    "interval",
    "openness",
)


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic grids plus a seeded budget of random samples."""

    time_grid: tuple[float, ...]
    state_grid: tuple[tuple[float, ...], ...]
    random_count: int = 25
    seed: int = 12345

    def __post_init__(self):
        if len(self.time_grid) == 0 or len(self.state_grid) == 0:
            raise ValueError("time_grid and state_grid must be nonempty")
        times = tuple(float(t) for t in self.time_grid)
        if any(not math.isfinite(t) for t in times):
            raise ValueError("time_grid entries must be finite")
        if list(times) != sorted(times):
            raise ValueError("time_grid must be sorted")
        object.__setattr__(self, "time_grid", times)
        states = tuple(tuple(float(c) for c in s) for s in self.state_grid)
        widths = {len(s) for s in states}
        if len(widths) != 1:
            raise ValueError("state_grid entries must share one dimension")
        object.__setattr__(self, "state_grid", states)
        if self.random_count < 0:
            raise ValueError("random_count must be non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def n(self) -> int:
        return len(self.state_grid[0])

    def samples(self, k: int, m: int = 1) -> Iterator[tuple]:
        """(t_1, ..., t_k, a_1, ..., a_m) samples: the grid product, then the random batch.

        The grid part runs t_1 slowest and a_m fastest.  The random batch
        draws its k time columns and then its m state columns from a fresh
        generator on the plan seed, so every caller sees the same draws.
        """
        for point in product(*[self.time_grid] * k, *[self.state_grid] * m):
            yield (*point[:k], *(np.asarray(s, dtype=float) for s in point[k:]))
        if not self.random_count:
            return  # grid-only plans skip loading numpy.random (about 6 MB resident, numpy 2.4)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        box = np.asarray(self.state_grid, dtype=float)
        times = rng.uniform(self.time_grid[0], self.time_grid[-1], size=(k, self.random_count))
        states = rng.uniform(box.min(axis=0), box.max(axis=0), size=(m, self.random_count, self.n))
        for draw in zip(*times, *states):
            yield (*map(float, draw[:k]), *draw[k:])


def default_plan(n: int, random_count: int = 25) -> SamplePlan:
    """Stock plan used by the command-line tool; sensible for n <= 3."""
    times = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
    if n == 1:
        states = ((-1.0,), (-0.5,), (0.0,), (0.25,), (0.5,))
    else:
        states = tuple(product((-1.0, 0.0, 1.0), repeat=n))
    return SamplePlan(times, states, random_count=random_count)


@dataclass(frozen=True)
class SuiteTolerances:
    """Residual thresholds; the set-based checks count violations against 0."""

    identity: float = 1e-9
    inverse: float = 1e-9
    cocycle: float = 1e-9
    openness_delta: float = 1e-4

    def __post_init__(self):
        residual = (self.identity, self.inverse, self.cocycle)
        if not all(isinstance(v, numbers.Real) and v >= 0 for v in residual):
            raise ValueError("identity, inverse and cocycle tolerances must be non-negative numbers")
        if not (isinstance(self.openness_delta, numbers.Real) and self.openness_delta > 0):
            raise ValueError("openness_delta must be a positive number")


@dataclass(frozen=True)
class ConditionReport:
    condition_name: str
    samples_checked: int
    samples_skipped: int
    max_residual: float
    worst_case: dict | None
    tolerance: float
    passed: bool
    note: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple[ConditionReport, ...]
    passed: bool

    def by_name(self, name: str) -> ConditionReport:
        for rep in self.conditions:
            if rep.condition_name == name:
                return rep
        raise KeyError(name)


class Accumulator:
    """Builds one ConditionReport from per-sample outcomes.

    Residual checks ``record`` each sample and keep the first sample with
    the largest residual as the worst case.  Set-based checks ``count``
    violations instead: the residual is the violation total and the worst
    case is the first violating sample.

    ``with acc:`` guards one sample: an ``out_of_domain`` DomainViolation
    raised inside it counts as one skip and ends the sample; any other
    exception propagates, ``dimension_mismatch`` included, since a state of
    the wrong length is a caller's error and not a point outside the domain.
    ``compare`` scores an undefined direct map as an infinite residual and
    leaves its note for the report.
    """

    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.max_residual = -math.inf
        self.worst = None
        self.note = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, DomainViolation) and exc.kind == "out_of_domain":
            self.skipped += 1
            return True
        return False

    def skip(self):
        self.skipped += 1

    def record(self, residual: float, witness: dict | None):
        self.checked += 1
        if residual > self.max_residual:
            self.max_residual = residual
            self.worst = witness

    def compare(self, value, direct, witness: dict, note: str):
        """Record |value - direct()|, or an infinite residual and note when direct() is undefined."""
        try:
            residual = inf_norm(value - direct())
        except DomainViolation:
            residual = math.inf
            self.note = note
        self.record(residual, witness)

    def count(self, violations: int, witness: dict | None = None):
        self.checked += 1
        self.max_residual = max(self.max_residual, 0.0) + violations
        if violations and self.worst is None:
            self.worst = witness

    def report(
        self,
        name: str,
        tol: float,
        note: str | None = None,
        force_fail: bool = False,
        empty_residual: float = 0.0,
    ) -> ConditionReport:
        """The report; empty_residual stands in for the residual when nothing was checked."""
        max_res = self.max_residual if self.checked else empty_residual
        passed = (not force_fail) and max_res <= tol
        return ConditionReport(
            condition_name=name,
            samples_checked=self.checked,
            samples_skipped=self.skipped,
            max_residual=max_res,
            worst_case=self.worst,
            tolerance=tol,
            passed=passed,
            note=self.note if note is None else note,
        )


def check_identity(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """F_{ss}(a) must return a wherever the diagonal triple is in the domain."""
    acc = Accumulator()
    for sigma, a in plan.samples(1):
        with acc:
            acc.record(inf_norm(fam.evaluate(sigma, sigma, a) - a), {"sigma": sigma, "a": list(a)})
    return acc.report("identity", tol)


def check_inverse(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Composing F_{sr} with F_{rs} must restore the state when both legs exist."""
    acc = Accumulator()
    for rho, sigma, a in plan.samples(2):
        with acc:
            back = fam.evaluate(rho, sigma, fam.evaluate(sigma, rho, a))
            acc.record(inf_norm(back - a), {"rho": rho, "sigma": sigma, "a": list(a)})
    return acc.report("inverse", tol)


def check_cocycle(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Two-hop versus direct transport under the exact domain guard.

    Guard: (sigma, rho, a) in K and (tau, sigma, F_{sigma rho}(a)) in K.
    A guarded sample whose direct map F_{tau rho}(a) is undefined violates
    the condition and scores an infinite residual.
    """
    acc = Accumulator()
    for tau, sigma, rho, a in plan.samples(3):
        with acc:
            two_leg = fam.evaluate(tau, sigma, fam.evaluate(sigma, rho, a))
            witness = {"tau": tau, "sigma": sigma, "rho": rho, "a": list(a)}
            acc.compare(two_leg, lambda: fam.evaluate(tau, rho, a), witness,
                        "guard held but the direct map was undefined")
    return acc.report("cocycle", tol)


def check_domain_inclusion(fam: FlowFamily, plan: SamplePlan) -> ConditionReport:
    """Membership of (rho, sigma, a) must imply membership of (sigma, sigma, a).

    The residual is the violation count over the applicable samples.
    """
    acc = Accumulator()
    for rho, sigma, a in plan.samples(2):
        if not fam.in_domain(rho, sigma, a):
            acc.skip()
            continue
        acc.count(not fam.in_domain(sigma, sigma, a), {"rho": rho, "sigma": sigma, "a": list(a)})
    return acc.report("domain_inclusion", 0.0)


def check_interval(fam: FlowFamily, plan: SamplePlan) -> ConditionReport:
    """The in-domain times over the grid must form one contiguous block per (rho, a).

    Each (rho, a) anchor scans the sorted time grid; a false between the
    first and last true is a gap.  The residual counts gaps over all anchors.
    """
    acc = Accumulator()
    for rho, a in plan.samples(1):
        flags = [fam.in_domain(tau, rho, a) for tau in plan.time_grid]
        inside = [i for i, f in enumerate(flags) if f]
        # an anchor with nothing defined is vacuously contiguous
        gaps = [i for i in range(inside[0], inside[-1] + 1) if not flags[i]] if inside else []
        witness = {"rho": rho, "a": list(a), "tau": plan.time_grid[gaps[0]]} if gaps else None
        acc.count(len(gaps), witness)
    return acc.report("interval", 0.0)


def check_openness(fam: FlowFamily, plan: SamplePlan, delta: float = 1e-4) -> ConditionReport:
    """Axis-probe openness of the domain set K.

    An in-domain sample whose 2(n+2) axis perturbations at distance delta
    all stay in-domain counts as strictly interior; its delta/2 probes must
    then be in-domain too, and each failed half-probe counts as a violation.
    Samples with any delta probe outside sit within delta of a boundary and
    are skipped.  An empty K over the whole plan fails outright.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    acc = Accumulator()
    nonempty = False
    for tau, sigma, a in plan.samples(2):
        if not fam.in_domain(tau, sigma, a):
            acc.skip()
            continue
        nonempty = True
        if not all(fam.in_domain(*p) for p in _axis_probes(tau, sigma, a, delta)):
            acc.skip()  # within delta of a boundary
            continue
        bad = sum(not fam.in_domain(*p) for p in _axis_probes(tau, sigma, a, delta / 2.0))
        acc.count(bad, {"tau": tau, "sigma": sigma, "a": list(a)})
    if not nonempty:
        return acc.report("openness", 0.0, note="K empty over plan", empty_residual=math.inf)
    return acc.report("openness", 0.0)


def _axis_probes(tau: float, sigma: float, a: np.ndarray, eps: float):
    yield tau + eps, sigma, a
    yield tau - eps, sigma, a
    yield tau, sigma + eps, a
    yield tau, sigma - eps, a
    for k in range(a.shape[0]):
        for sign in (eps, -eps):
            shifted = a.copy()
            shifted[k] += sign
            yield tau, sigma, shifted


def run_suite(
    fam: FlowFamily,
    plan: SamplePlan,
    tolerances: SuiteTolerances | None = None,
) -> VerificationReport:
    """All six checks in canonical order; overall pass is their conjunction."""
    tols = tolerances or SuiteTolerances()
    reports = (
        check_identity(fam, plan, tols.identity),
        check_inverse(fam, plan, tols.inverse),
        check_cocycle(fam, plan, tols.cocycle),
        check_domain_inclusion(fam, plan),
        check_interval(fam, plan),
        check_openness(fam, plan, tols.openness_delta),
    )
    return VerificationReport(conditions=reports, passed=all(r.passed for r in reports))
