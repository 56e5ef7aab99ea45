"""Sampled verification of the flow-family conditions.

A family that genuinely comes from an ODE satisfies, wherever defined:

  identity          F_{ss}(a) = a
  inverse           F_{rs}(F_{sr}(a)) = a
  cocycle           F_{ts}(F_{sr}(a)) = F_{tr}(a) under the domain guard
  domain_inclusion  (r,s,a) in K implies (s,s,a) in K
  interval          {t : (t,r,a) in K} has no gaps
  openness          K is open (probed along coordinate axes)

These quantify over continua, so the checks sample: a deterministic grid
(the plan's time and state grids) plus seeded random draws, numpy's PCG64
stream made in the standard library (``flowfam.pcg``).  Identical (plan,
family) pairs produce bit-identical reports; each check draws afresh from
the plan seed, so report content does not depend on which checks run or
in what order.

Each check takes its samples as lanes (``SamplePlan.columns``) and makes
one ``evaluate_batch`` call per leg.  The skip rule applies per lane: a
lane where a leg is out of the domain counts as one skip, and a later leg
runs only on the lanes where the legs before it exist, while a plan of the
wrong dimension raises dimension_mismatch.  When the cocycle's two legs
succeed but the direct map is undefined, that is itself a violation of the
condition, reported with an infinite residual.  Bijectivity is certified
through the inverse check (injectivity plus surjectivity at the sampled
points); surjectivity onto an analytically-specified codomain is not
separately sampled.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import FlowFamily
from .pcg import PCG64

__all__ = [
    "SamplePlan",
    "SuiteTolerances",
    "ConditionReport",
    "Accumulator",
    "VerificationReport",
    "evaluate_where",
    "lane_gap",
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
    """Deterministic grids plus a seeded budget of random samples.

    random_count and seed are integers (a bool is not one); the draws are
    those numpy.random.default_rng(seed) would give, so when there are any,
    the time grid and each state axis must have a finite max - min, as
    numpy's uniform requires of its bounds.  A check takes the samples as
    lanes (``columns``), and the skip rule applies per lane.
    """

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
        if not all(math.isfinite(c) for s in states for c in s):
            raise ValueError("state_grid entries must be finite")
        object.__setattr__(self, "state_grid", states)
        for name in ("random_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.random_count < 0:
            raise ValueError("random_count must be non-negative")
        if self.random_count and not all(math.isfinite(max(axis) - min(axis)) for axis in (times, *zip(*states))):
            raise ValueError("random draws need a time grid and state axes whose max - min is finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def n(self) -> int:
        return len(self.state_grid[0])

    def columns(self, k: int, m: int = 1) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The (t_1, ..., t_k, a_1, ..., a_m) samples as lanes: k time arrays and m (L, n) state arrays.

        Lanes run over the grid product first, t_1 slowest and a_m fastest,
        then over the random batch.  The random batch draws its k time
        columns and then its m state columns from a fresh stream on the plan
        seed, so every caller sees the same draws.
        """
        times, states = np.array(self.time_grid), np.array(self.state_grid)
        lane = np.arange(len(times) ** k * len(states) ** m)
        digits = []
        for size in [len(states)] * m + [len(times)] * k:  # fastest first
            lane, digit = np.divmod(lane, size)
            digits.insert(0, digit)
        time_cols = [times[d] for d in digits[:k]]
        state_cols = [states[d] for d in digits[k:]]
        if self.random_count:
            stream, count = PCG64(self.seed), self.random_count
            drawn = stream.uniform(self.time_grid[:1], self.time_grid[-1:], k * count)
            time_cols = [np.concatenate([c, d]) for c, d in zip(time_cols, np.reshape(drawn, (k, count)))]
            drawn = stream.uniform(states.min(axis=0).tolist(), states.max(axis=0).tolist(), m * count)
            state_cols = [np.concatenate([c, d]) for c, d in zip(state_cols, np.reshape(drawn, (m, count, self.n)))]
        return time_cols, state_cols


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
        for name in ("identity", "inverse", "cocycle", "openness_delta"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not min(self.identity, self.inverse, self.cocycle) >= 0:
            raise ValueError("identity, inverse and cocycle tolerances must be non-negative numbers")
        if not self.openness_delta > 0:
            raise ValueError("openness_delta must be a positive number")


@dataclass(frozen=True)
class ConditionReport:
    condition_name: str
    samples_checked: int
    samples_skipped: int
    max_residual: float
    worst_case: dict | None
    tolerance: float
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.conditions)

    def by_name(self, name: str) -> ConditionReport:
        for rep in self.conditions:
            if rep.condition_name == name:
                return rep
        raise KeyError(name)


class Accumulator:
    """Builds one ConditionReport from lanes of outcomes.

    Residual checks hand ``lanes`` a batch of residuals with the lanes whose
    legs all exist: a lane without one is a skip, and the worst case is the
    first lane with the largest residual.  Set-based checks ``count``
    violations instead: the residual is the violation total and the worst
    case is the first violating lane.  ``record`` takes one residual.
    """

    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.max_residual = -math.inf
        self.worst = None
        self.note = None

    def skip(self, count: int = 1):
        self.skipped += count

    def record(self, residual: float, witness: dict | None):
        self.checked += 1
        if residual > self.max_residual:
            self.max_residual = residual
            self.worst = witness

    def lanes(self, residual, ok, witness, direct_ok=None, note: str | None = None):
        """Record a batch of lanes in lane order, which is sample order.

        ok[i] says every leg of lane i exists; where one does not, the lane
        is a skip.  direct_ok, when given, marks the lanes whose direct map
        exists: a lane whose legs exist but whose direct map does not scores
        an infinite residual and leaves note for the report.  witness(*index)
        builds the worst case.  residual and ok may carry a second axis (per
        shift or per lambda), which runs fastest.
        """
        residual, ok = np.asarray(residual, dtype=float), np.asarray(ok, dtype=bool)
        if direct_ok is not None:
            undefined = ok & ~direct_ok
            if undefined.any():
                residual = np.where(undefined, math.inf, residual)
                self.note = note
        checked = int(ok.sum())
        self.checked += checked
        self.skipped += ok.size - checked
        scores = np.where(ok & ~np.isnan(residual), residual, -math.inf).reshape(-1)
        if scores.size:
            j = int(np.argmax(scores))
            if scores[j] > self.max_residual:
                self.max_residual = float(scores[j])
                self.worst = witness(*map(int, np.unravel_index(j, ok.shape)))

    def count(self, violations, witness):
        """Count a batch of lanes' violations; witness(i) builds the first violating lane's case."""
        violations = np.asarray(violations)
        if not violations.size:
            return
        self.checked += violations.size
        self.max_residual = max(self.max_residual, 0.0) + violations.sum().item()
        if self.worst is None and violations.any():
            self.worst = witness(int(np.flatnonzero(violations)[0]))

    def report(
        self,
        name: str,
        tol: float,
        note: str | None = None,
        empty_residual: float = 0.0,
    ) -> ConditionReport:
        """The report; empty_residual stands in for the residual when nothing was checked."""
        return ConditionReport(
            condition_name=name,
            samples_checked=self.checked,
            samples_skipped=self.skipped,
            max_residual=self.max_residual if self.checked else empty_residual,
            worst_case=self.worst,
            tolerance=tol,
            note=self.note if note is None else note,
        )


def evaluate_where(fam: FlowFamily, tau, sigma, a, where) -> tuple[np.ndarray, np.ndarray]:
    """fam.evaluate_batch on the lanes where ``where`` holds: (values, ok) over every lane.

    A leg that follows another runs only where the one before it exists;
    elsewhere its values are NaN and ok is False.
    """
    values, ok = np.full(np.shape(a), math.nan), np.zeros(len(where), dtype=bool)
    values[where], ok[where] = fam.evaluate_batch(tau[where], sigma[where], a[where])
    return values, ok


def lane_gap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """inf_norm(u[i] - v[i]) for every lane i; NaN where either is NaN."""
    return np.abs(u - v).max(axis=-1)


def check_identity(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """F_{ss}(a) must return a wherever the diagonal triple is in the domain."""
    (sigma,), (a,) = plan.columns(1)
    values, ok = fam.evaluate_batch(sigma, sigma, a)
    acc = Accumulator()
    acc.lanes(lane_gap(values, a), ok, lambda i: {"sigma": float(sigma[i]), "a": a[i].tolist()})
    return acc.report("identity", tol)


def check_inverse(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Composing F_{sr} with F_{rs} must restore the state when both legs exist."""
    (rho, sigma), (a,) = plan.columns(2)
    there, ok = fam.evaluate_batch(sigma, rho, a)
    back, ok = evaluate_where(fam, rho, sigma, there, ok)
    acc = Accumulator()
    acc.lanes(
        lane_gap(back, a), ok, lambda i: {"rho": float(rho[i]), "sigma": float(sigma[i]), "a": a[i].tolist()}
    )
    return acc.report("inverse", tol)


def check_cocycle(fam: FlowFamily, plan: SamplePlan, tol: float = 1e-9) -> ConditionReport:
    """Two-hop versus direct transport under the exact domain guard.

    Guard: (sigma, rho, a) in K and (tau, sigma, F_{sigma rho}(a)) in K.
    A guarded sample whose direct map F_{tau rho}(a) is undefined violates
    the condition and scores an infinite residual.
    """
    (tau, sigma, rho), (a,) = plan.columns(3)
    hop, ok = fam.evaluate_batch(sigma, rho, a)
    two_leg, ok = evaluate_where(fam, tau, sigma, hop, ok)
    direct, direct_ok = evaluate_where(fam, tau, rho, a, ok)

    def witness(i):
        return {"tau": float(tau[i]), "sigma": float(sigma[i]), "rho": float(rho[i]), "a": a[i].tolist()}

    acc = Accumulator()
    acc.lanes(lane_gap(two_leg, direct), ok, witness, direct_ok, "guard held but the direct map was undefined")
    return acc.report("cocycle", tol)


def check_domain_inclusion(fam: FlowFamily, plan: SamplePlan) -> ConditionReport:
    """Membership of (rho, sigma, a) must imply membership of (sigma, sigma, a).

    The residual is the violation count over the applicable samples.
    """
    (rho, sigma), (a,) = plan.columns(2)
    _, inside = fam.evaluate_batch(rho, sigma, a)
    _, diagonal = evaluate_where(fam, sigma, sigma, a, inside)
    rows = np.flatnonzero(inside)
    acc = Accumulator()
    acc.skip(len(inside) - len(rows))
    acc.count(
        ~diagonal[rows],
        lambda i: {"rho": float(rho[rows[i]]), "sigma": float(sigma[rows[i]]), "a": a[rows[i]].tolist()},
    )
    return acc.report("domain_inclusion", 0.0)


def check_interval(fam: FlowFamily, plan: SamplePlan) -> ConditionReport:
    """The in-domain times over the grid must form one contiguous block per (rho, a).

    Each (rho, a) anchor scans the sorted time grid; a false between the
    first and last true is a gap.  The residual counts gaps over all anchors.
    """
    (rho,), (a,) = plan.columns(1)
    times = np.array(plan.time_grid)
    width = len(times)
    _, flags = fam.evaluate_batch(np.tile(times, len(rho)), np.repeat(rho, width), np.repeat(a, width, axis=0))
    flags = flags.reshape(len(rho), width)
    # an anchor with nothing defined is vacuously contiguous
    begun = np.logical_or.accumulate(flags, axis=1)
    unfinished = np.logical_or.accumulate(flags[:, ::-1], axis=1)[:, ::-1]
    gaps = begun & unfinished & ~flags
    acc = Accumulator()
    acc.count(
        gaps.sum(axis=1),
        lambda i: {"rho": float(rho[i]), "a": a[i].tolist(), "tau": plan.time_grid[int(np.argmax(gaps[i]))]},
    )
    return acc.report("interval", 0.0)


def check_openness(fam: FlowFamily, plan: SamplePlan, delta: float = 1e-4) -> ConditionReport:
    """Axis-probe openness of the domain set K.

    An in-domain sample whose 2(n+2) axis perturbations at distance delta
    all stay in-domain counts as strictly interior; its delta/2 probes must
    then be in-domain too, and each failed half-probe counts as a violation.
    Samples with any delta probe outside sit within delta of a boundary and
    are skipped.  An empty K over the whole plan fails outright.

    A sample's tau probes start from the sample's own Cauchy datum, so they
    run in the sample's batch; the other probes follow for the samples that
    still need them.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    (tau, sigma), (a,) = plan.columns(2)
    full, half = _axis_probes(tau, sigma, a, delta), _axis_probes(tau, sigma, a, delta / 2.0)
    own = np.column_stack([tau, full[0][:, :2], half[0][:, :2]])  # the sample, tau +- delta, tau +- delta/2
    _, own_ok = fam.evaluate_batch(own.reshape(-1), np.repeat(sigma, 5), np.repeat(a, 5, axis=0))
    own_ok = own_ok.reshape(-1, 5)
    inside = own_ok[:, 0]
    interior = inside & own_ok[:, 1:3].all(axis=1)
    interior &= _other_probes(fam, full, interior).all(axis=1)
    half_ok = np.column_stack([own_ok[:, 3:], _other_probes(fam, half, interior)])
    rows = np.flatnonzero(interior)
    acc = Accumulator()
    acc.skip(len(inside) - len(rows))  # outside K, or within delta of a boundary
    acc.count(
        (~half_ok[rows]).sum(axis=1),
        lambda i: {"tau": float(tau[rows[i]]), "sigma": float(sigma[rows[i]]), "a": a[rows[i]].tolist()},
    )
    if not inside.any():
        return acc.report("openness", 0.0, note="K empty over plan", empty_residual=math.inf)
    return acc.report("openness", 0.0)


def _axis_probes(tau: np.ndarray, sigma: np.ndarray, a: np.ndarray, eps: float):
    """Each lane's 2(n+2) axis probes at distance eps: tau, sigma, then each state axis, + before -.

    Returns (tau, sigma, state) arrays of shape (L, 2(n+2)) and (L, 2(n+2), n).
    """
    width = 2 * (a.shape[1] + 2)
    taus = np.repeat(tau[:, None], width, axis=1)
    sigmas = np.repeat(sigma[:, None], width, axis=1)
    states = np.repeat(a[:, None, :], width, axis=1)
    taus[:, 0] += eps
    taus[:, 1] -= eps
    sigmas[:, 2] += eps
    sigmas[:, 3] -= eps
    for k in range(a.shape[1]):
        states[:, 4 + 2 * k, k] += eps
        states[:, 5 + 2 * k, k] -= eps
    return taus, sigmas, states


def _other_probes(fam: FlowFamily, probes, where: np.ndarray) -> np.ndarray:
    """Membership of each lane's probes past its two tau probes, where ``where`` holds: an (L, 2(n+1)) mask."""
    taus, sigmas, states = (p[:, 2:] for p in probes)
    width = taus.shape[1]
    _, ok = evaluate_where(
        fam, taus.reshape(-1), sigmas.reshape(-1), states.reshape(-1, states.shape[2]), np.repeat(where, width)
    )
    return ok.reshape(-1, width)


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
    return VerificationReport(conditions=reports)
