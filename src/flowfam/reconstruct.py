"""Recover the generating vector field of a flow family.

The family's diagonal rate of change,

    f(t, a) = d/dtau F_{tau, t}(a)  at tau = t,

is estimated by central differences [F_{t+h,t}(a) - F_{t-h,t}(a)] / 2h,
optionally sharpened by one Richardson step (4 D_{h/2} - D_h) / 3, and
tabulated over a rectangular grid (the per-axis unique values of the plan's
state points crossed with its time grid).  The result behaves like a
VectorField: it has a dimension, a domain (the closed tabulated box), and
is callable at (t, x) via multilinear interpolation, so it can be handed
straight back to the integrator to close the loop family -> field ->
family.

Sites whose two-sided stencil leaves the family's domain are skipped and
left as holes (never extrapolated); a reconstruction with more than half
its sites skipped is refused.  Queries that touch a hole, or stray more
than one cell beyond the box, fail evaluation the same way an expression
would, which the integrator already knows how to handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .core import DomainViolation, FlowFamily, as_state, inf_norm
from .integrate import IntegratorConfig, numeric_family
from .verify import Accumulator, SamplePlan, default_plan

__all__ = [
    "ReconstructionConfig",
    "ReconstructionFailed",
    "BoxDomain",
    "TabulatedVectorField",
    "diagonal_rate",
    "field_from_family",
    "field_gap",
    "roundtrip_error",
]


class ReconstructionFailed(Exception):
    """Too few usable sites to tabulate a field."""


@dataclass(frozen=True)
class ReconstructionConfig:
    """Tabulation plan, finite-difference step and Richardson switch.

    The plan's state points are decomposed into per-axis knot sets, so a
    product grid is reproduced exactly and a scattered set is completed to
    its bounding product.
    """

    grid: SamplePlan
    h: float = 1e-4
    richardson: bool = True

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("finite-difference step must be positive and finite")


@dataclass(frozen=True)
class BoxDomain:
    """Closed axis-aligned box in (t, x) space; the home of a tabulated field."""

    n: int
    time_lo: float
    time_hi: float
    state_lo: tuple[float, ...]
    state_hi: tuple[float, ...]

    def contains(self, t: float, x) -> bool:
        if not (self.time_lo <= t <= self.time_hi):
            return False
        arr = np.asarray(x, dtype=float)
        return bool(
            np.all(arr >= np.asarray(self.state_lo))
            and np.all(arr <= np.asarray(self.state_hi))
        )


def _sites(times: np.ndarray, axes: list[np.ndarray]):
    """(table index, t, x) for every site of the time-major product grid."""
    for it, t in enumerate(times):
        for idx in np.ndindex(*[len(ax) for ax in axes]):
            yield (it, *idx), float(t), np.array([ax[i] for ax, i in zip(axes, idx)])


class TabulatedVectorField:
    """Multilinear interpolation over a rectangular (time x state) table.

    Duck-compatible with VectorField for the integrator: exposes n, domain,
    and __call__(t, x).  Values one cell beyond an edge are linearly
    continued from the edge cell so Runge-Kutta stage points may overshoot
    slightly; anything farther out, or touching a skipped-site hole, raises
    an evaluation error.
    """

    def __init__(self, times: np.ndarray, axes: list[np.ndarray], table: np.ndarray,
                 skipped_sites: int = 0):
        self.times = np.asarray(times, dtype=float)
        self.axes = [np.asarray(ax, dtype=float) for ax in axes]
        self.table = np.asarray(table, dtype=float)
        self.n = len(self.axes)
        self.skipped_sites = int(skipped_sites)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("need at least two time knots")
        for ax in self.axes:
            if ax.ndim != 1 or len(ax) < 2:
                raise ValueError("need at least two knots per state axis")
            if np.any(np.diff(ax) <= 0):
                raise ValueError("state knots must be strictly increasing")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time knots must be strictly increasing")
        expected = (len(self.times), *[len(ax) for ax in self.axes], self.n)
        if self.table.shape != expected:
            raise ValueError(f"table shape {self.table.shape} != {expected}")
        self.domain = BoxDomain(
            n=self.n,
            time_lo=float(self.times[0]),
            time_hi=float(self.times[-1]),
            state_lo=tuple(float(ax[0]) for ax in self.axes),
            state_hi=tuple(float(ax[-1]) for ax in self.axes),
        )

    def sites(self):
        """(t, x, tabulated value) for every site, time-major; holes are NaN."""
        for index, t, x in _sites(self.times, self.axes):
            yield t, x, self.table[index]

    def __call__(self, t: float, x) -> np.ndarray:
        coords = [float(t), *[float(c) for c in np.asarray(x, dtype=float)]]
        all_axes = [self.times, *self.axes]
        if len(coords) != len(all_axes):
            raise ValueError(f"state has wrong dimension for this field ({self.n})")
        cells = []
        weights = []
        for ax, c in zip(all_axes, coords):
            i = int(np.searchsorted(ax, c)) - 1
            i = min(max(i, 0), len(ax) - 2)
            lo, hi = ax[i], ax[i + 1]
            w = (c - lo) / (hi - lo)
            if w < -1.0 or w > 2.0:  # more than one cell beyond the box
                raise ex.EvalError("domain", f"query {c} outside the tabulated box")
            cells.append(i)
            weights.append(w)
        out = np.zeros(self.n)
        dims = len(all_axes)
        for corner in range(1 << dims):
            weight = 1.0
            key = []
            for d in range(dims):
                bit = (corner >> d) & 1
                weight *= weights[d] if bit else (1.0 - weights[d])
                key.append(cells[d] + bit)
            if weight != 0.0:
                out += weight * self.table[tuple(key)]
        if not np.all(np.isfinite(out)):
            raise ex.EvalError("domain", "query touches a skipped tabulation site")
        return out


def diagonal_rate(
    fam: FlowFamily,
    tau: float,
    a,
    h: float = 1e-4,
    richardson: bool = True,
) -> np.ndarray:
    """Central-difference estimate of the family's diagonal rate at (tau, a).

    [F_{tau+h,tau}(a) - F_{tau-h,tau}(a)] / 2h, optionally sharpened by one
    Richardson step.  The family's DomainViolation passes through when the
    stencil leaves its domain.
    """
    arr = as_state(a, fam.n)

    def central(step: float) -> np.ndarray:
        return (fam.evaluate(tau + step, tau, arr) - fam.evaluate(tau - step, tau, arr)) / (2.0 * step)

    d_h = central(h)
    if not richardson:
        return d_h
    return (4.0 * central(h / 2.0) - d_h) / 3.0


def field_from_family(fam: FlowFamily, cfg: ReconstructionConfig) -> TabulatedVectorField:
    """Tabulate the family's diagonal rate into an interpolating vector field.

    The family must act as the identity on the diagonal at the sample sites
    (families that fail the identity condition produce garbage rates).
    Sites where the stencil cannot stay in-domain become holes; more than
    50% holes aborts with ReconstructionFailed.
    """
    plan = cfg.grid
    if plan.n != fam.n:
        raise ValueError(f"plan dimension {plan.n} != family dimension {fam.n}")
    times = np.asarray(plan.time_grid, dtype=float)
    points = np.asarray(plan.state_grid, dtype=float)
    axes = [np.unique(points[:, k]) for k in range(fam.n)]
    table = np.empty((len(times), *[len(ax) for ax in axes], fam.n))
    skipped = 0
    total = len(times) * int(np.prod([len(ax) for ax in axes]))
    for index, tau, a in _sites(times, axes):
        try:
            table[index] = diagonal_rate(fam, tau, a, h=cfg.h, richardson=cfg.richardson)
        except DomainViolation:
            table[index] = np.nan
            skipped += 1
    if skipped * 2 > total:
        raise ReconstructionFailed(
            f"{skipped} of {total} sites skipped; the grid barely touches the domain"
        )
    return TabulatedVectorField(times, axes, table, skipped_sites=skipped)


def field_gap(tab: TabulatedVectorField, fld) -> tuple[float | None, int]:
    """Worst |tabulated - fld| over the sites where both are defined, and their count.

    A site counts when its tabulated value is finite, it lies in fld's
    domain and fld evaluates there; the worst gap is None when none does.
    """
    worst = -math.inf
    compared = 0
    for t, x, value in tab.sites():
        if not np.all(np.isfinite(value)) or not fld.domain.contains(t, x):
            continue
        try:
            ref = fld(t, x)
        except ex.EvalError:
            continue
        compared += 1
        worst = max(worst, float(np.max(np.abs(value - ref))))
    return (worst if compared else None), compared


def roundtrip_error(
    fam: FlowFamily,
    cfg: ReconstructionConfig,
    icfg: IntegratorConfig | None = None,
    eval_plan: SamplePlan | None = None,
) -> float:
    """Worst disagreement between a family and its field->integration rebuild.

    Reconstructs the field, integrates it back into a numeric family, and
    returns the max infinity-norm gap over the evaluation plan's (tau,
    sigma, a) samples, guarded so both routes are defined; samples where
    either route is undefined are skipped.
    """
    icfg = icfg or IntegratorConfig()
    field = field_from_family(fam, cfg)
    rebuilt = numeric_family(field, icfg)
    plan = eval_plan or default_plan(fam.n, random_count=0)
    acc = Accumulator()
    for tau, sigma, a in plan.samples(2):
        with acc:
            acc.record(inf_norm(fam.evaluate(tau, sigma, a) - rebuilt.evaluate(tau, sigma, a)), None)
    if not acc.checked:
        raise ReconstructionFailed("no evaluation-plan triple was defined on both routes")
    return acc.max_residual
