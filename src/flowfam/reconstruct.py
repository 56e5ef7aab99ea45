"""Recover the generating vector field of a flow family.

The family's diagonal rate of change,

    f(t, a) = d/dtau F_{tau, t}(a)  at tau = t,

is estimated by central differences [F_{t+h,t}(a) - F_{t-h,t}(a)] / 2h,
optionally sharpened by one Richardson step (4 D_{h/2} - D_h) / 3, and
tabulated over a rectangular grid (the per-axis unique values of the plan's
state points crossed with its time grid).  The result behaves like a
VectorField: it has a dimension, a domain (the closed tabulated box), and
is callable at (t, x) via multilinear interpolation, one call per lane
for a batch of points, so it can be handed straight back to the integrator
to close the loop family -> field -> family.

Sites whose two-sided stencil leaves the family's domain are skipped and
left as holes (never extrapolated); a reconstruction with more than half
its sites skipped is refused.  Queries that touch a hole, or stray more
than one cell beyond the box, fail evaluation the same way an expression
would, which the integrator already knows how to handle.

Tabulation evaluates the stencil one time knot at a time, every state site
of the knot in one ``FlowFamily.evaluate_batch`` call per stencil point (four
with Richardson, two without); ``diagonal_rate`` is the same stencil over a
batch of one, so a table entry and a direct rate agree bit for bit.
Interpolation reads the field's own contiguous arrays through memoryviews:
it locates each coordinate's cell with ``bisect_left``, then sums the
2^(n+1) cell corners in a fixed order (corner c takes the upper knot on
axis d when bit d of c is set; its weight is 1.0 times the per-axis
factors in axis order, time first; the sum starts at 0.0 and skips zero
weights), so a query's value is fixed bit for bit by the table, and a hole
under a zero weight is never read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .core import DomainViolation, FlowFamily, as_state
from .integrate import IntegratorConfig, numeric_family
from .verify import Accumulator, SamplePlan, default_plan, evaluate_where, lane_gap

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
        return all(lo <= v <= hi for lo, v, hi in zip(self.state_lo, x, self.state_hi, strict=True))

    def contains_lanes(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """contains over lanes (t[m], x[m, n]): a bool mask, lane i equal to contains(t[i], x[i])."""
        inside = (self.time_lo <= t) & (t <= self.time_hi)
        return inside & ((np.array(self.state_lo) <= x) & (x <= np.array(self.state_hi))).all(axis=1)


class TabulatedVectorField:
    """Multilinear interpolation over a rectangular (time x state) table.

    Duck-compatible with VectorField for the integrator: exposes n, domain,
    __call__(t, x) and its lane form lanes(t, x), and the domain answers
    contains and contains_lanes.  Values one cell beyond an edge are linearly
    continued from the edge cell so Runge-Kutta stage points may overshoot
    slightly; anything farther out, or touching a skipped-site hole, raises
    an evaluation error.
    """

    def __init__(self, times: np.ndarray, axes: list[np.ndarray], table: np.ndarray,
                 skipped_sites: int = 0):
        self.times = np.ascontiguousarray(times, dtype=float)
        self.axes = [np.ascontiguousarray(ax, dtype=float) for ax in axes]
        self.table = np.ascontiguousarray(table, dtype=float)
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
        # knots per axis (time first) and the flat table, read without copies;
        # a step of one knot along axis d moves strides[d] doubles in the table
        self._knots = [memoryview(ax) for ax in (self.times, *self.axes)]
        self._flat = memoryview(self.table.reshape(-1))
        self._strides = [stride // self.table.itemsize for stride in self.table.strides[:-1]]
        # corner c: its offset from the cell's lower corner, and per axis d the
        # position of its factor in (1 - w_0, w_0, 1 - w_1, w_1, ...)
        dims = len(self._strides)
        self._corners = [
            (sum(s for d, s in enumerate(self._strides) if c >> d & 1),
             tuple(2 * d + (c >> d & 1) for d in range(dims)))
            for c in range(1 << dims)
        ]

    def sites(self):
        """(t, x, tabulated value) for every site, time-major; holes are NaN."""
        for it, t in enumerate(self.times):
            for idx in np.ndindex(*[len(ax) for ax in self.axes]):
                x = np.array([ax[i] for ax, i in zip(self.axes, idx)])
                yield float(t), x, self.table[(it, *idx)]

    def __call__(self, t: float, x) -> tuple:
        """The interpolated slope at (t, x) as a tuple of n floats; x is any sequence of n floats."""
        coords = [float(t), *map(float, x)]
        if len(coords) != len(self._knots):
            raise ValueError(f"state has wrong dimension for this field ({self.n})")
        base = 0
        factors = []
        for knots, stride, c in zip(self._knots, self._strides, coords):
            i = min(max(bisect_left(knots, c) - 1, 0), len(knots) - 2)
            lo = knots[i]
            w = (c - lo) / (knots[i + 1] - lo)
            if w < -1.0 or w > 2.0:  # more than one cell beyond the box
                raise ex.EvalError("domain", f"query {c} outside the tabulated box")
            base += i * stride
            factors += (1.0 - w, w)
        n, flat = self.n, self._flat
        out = [0.0] * n
        for offset, picks in self._corners:
            weight = 1.0
            for j in picks:
                weight *= factors[j]
            if weight != 0.0:
                start = base + offset
                for k in range(n):
                    out[k] += weight * flat[start + k]
        if not all(map(math.isfinite, out)):
            raise ex.EvalError("domain", "query touches a skipped tabulation site")
        return tuple(out)

    def lanes(self, t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slopes at lanes (t[m], x[m, n]): (values[m, n], ok[m]), one __call__ per lane.

        values[i] is self(t[i], x[i]) where ok[i], and NaN where that call
        raises EvalError, which is exactly where ok[i] is False.
        """
        values, ok = np.full(x.shape, math.nan), np.ones(len(t), dtype=bool)
        for i, (t_i, x_i) in enumerate(zip(t.tolist(), x.tolist())):
            try:
                values[i] = self(t_i, x_i)
            except ex.EvalError:
                ok[i] = False
        return values, ok


def diagonal_rate(
    fam: FlowFamily,
    tau: float,
    a,
    h: float = 1e-4,
    richardson: bool = True,
) -> np.ndarray:
    """Central-difference estimate of the family's diagonal rate at (tau, a).

    [F_{tau+h,tau}(a) - F_{tau-h,tau}(a)] / 2h, optionally sharpened by one
    Richardson step.  Raises DomainViolation when the stencil leaves the
    family's domain.
    """
    arr = as_state(a, fam.n)
    rates, ok = _stencil(fam, float(tau), arr[None, :], h, richardson)
    if not ok[0]:
        raise DomainViolation("out_of_domain", f"the stencil at ({tau}, {arr}) leaves the family's domain")
    return rates[0]


def _stencil(fam: FlowFamily, tau: float, states: np.ndarray, h: float, richardson: bool):
    """Diagonal rates at (tau, states[i]) for every lane i, and where the stencil stays in the domain."""
    sigma = np.full(len(states), tau)

    def central(step: float):
        up, up_ok = fam.evaluate_batch(np.full(len(states), tau + step), sigma, states)
        down, down_ok = fam.evaluate_batch(np.full(len(states), tau - step), sigma, states)
        return (up - down) / (2.0 * step), up_ok & down_ok

    d_h, ok = central(h)
    if not richardson:
        return d_h, ok
    d_half, half_ok = central(h / 2.0)
    return (4.0 * d_half - d_h) / 3.0, ok & half_ok


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
    # one lane per state site, in the table's (time-major, C) order
    states = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, fam.n)
    table = np.empty((len(times), *[len(ax) for ax in axes], fam.n))
    skipped = 0
    total = len(times) * len(states)
    for it, tau in enumerate(times):
        rates, ok = _stencil(fam, float(tau), states, cfg.h, cfg.richardson)
        table[it] = rates.reshape(table.shape[1:])  # NaN where ok is False: a hole
        skipped += len(ok) - int(np.count_nonzero(ok))
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
    (tau, sigma), (a,) = plan.columns(2)
    want, ok = fam.evaluate_batch(tau, sigma, a)
    got, ok = evaluate_where(rebuilt, tau, sigma, a, ok)
    acc = Accumulator()
    acc.lanes(lane_gap(want, got), ok, lambda i: None)
    if not acc.checked:
        raise ReconstructionFailed("no evaluation-plan triple was defined on both routes")
    return acc.max_residual
