"""Recover the generating vector field of a flow family.

The family's diagonal rate of change,

    f(t, a) = d/dtau F_{tau, t}(a)  at tau = t,

is estimated by central differences [F_{t+h,t}(a) - F_{t-h,t}(a)] / 2h,
optionally sharpened by one Richardson step (4 D_{h/2} - D_h) / 3, and
tabulated over a rectangular grid (the per-axis unique values of the plan's
state points crossed with its time grid).  The result behaves like a
VectorField: it has a dimension, a domain (the closed tabulated box), and
its multilinear interpolant slope(t, x), with a numpy lane form lanes for
a batch of points, so it can be handed straight back to the integrator to
close the loop family -> field -> family.

Sites whose two-sided stencil leaves the family's domain are skipped and
left as holes (never extrapolated); a reconstruction with more than half
its sites skipped is refused.  Queries that touch a hole, or stray more
than one cell beyond the box, fail evaluation the same way an expression
would, which the integrator already knows how to handle.

Tabulation evaluates the stencil one time knot at a time, every state site
of the knot in one ``FlowFamily.evaluate_batch`` call per stencil point (four
with Richardson, two without); ``diagonal_rate`` is the same stencil over a
batch of one, so a table entry and a direct rate agree bit for bit.
The interpolant is rendered once per dimension from fixed templates
(expr.build keeps its code) and bound to each field's own knots and table.
Its scalar body, which slope and the step loop's driver both run, reads
the knots as lists and the table in place through a memoryview: it
locates each coordinate's cell, first trying the cell it found on that
axis last time (the field's list ``cell``) and else with ``bisect_left``,
then sums the 2^(n+1) cell corners in a fixed order (corner c takes the
upper knot on axis d when bit d of c is set; its weight is the product of
the per-axis factors in axis order, time first; the sum starts at 0.0 and
skips zero weights), so a query's value is fixed bit for bit by the
table, and a hole under a zero weight is never read.  A coordinate above
the tried cell's lower knot and at most its upper one lies in the cell
``bisect_left`` finds, so any value of ``cell`` gives the same result and
a field shared between threads stays exact.  Its lane form makes the
same sum over numpy columns, locating cells with ``searchsorted`` and
adding 0.0 for a zero weight, which changes no sum (one that starts at
+0.0 is never -0.0), so each lane is the scalar form's value bit for bit.
"""

from __future__ import annotations

import functools
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
    "StepTooSmall",
    "BoxDomain",
    "TabulatedVectorField",
    "diagonal_rate",
    "field_from_family",
    "field_gap",
    "roundtrip_error",
]


class ReconstructionFailed(Exception):
    """Too few usable sites to tabulate a field."""


class StepTooSmall(ValueError):
    """A finite-difference step that leaves a time knot unmoved: t + h or t - h rounds to t."""


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

    time_lo: float
    time_hi: float
    state_lo: tuple[float, ...]
    state_hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "_bounds", tuple(zip(self.state_lo, self.state_hi)))

    def contains(self, t: float, x) -> bool:
        """Whether t and each x_k lie in their closed ranges: NaN lies outside; a wrong-length x raises ValueError."""
        if not (self.time_lo <= t <= self.time_hi):
            return False
        for (lo, hi), v in zip(self._bounds, x, strict=True):
            if not lo <= v <= hi:
                return False
        return True

    @functools.cached_property
    def membership(self) -> ex.Splice:
        """contains as a splice record: the same closed ranges, in one line over s0 (t) and x0 .."""
        reads = ("s0", *[f"x{k}" for k in range(len(self._bounds))])
        test = " and ".join(f"lo{d} <= {c} <= hi{d}" for d, c in enumerate(reads))
        names = tuple(f"{end}{d}" for d in range(len(reads)) for end in ("lo", "hi"))
        bound = (self.time_lo, self.time_hi, *[v for pair in self._bounds for v in pair])
        return ex.Splice(reads, names, (f"inside = {test}",), ("inside",), False, bound)

    def contains_lanes(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """contains over lanes (t[m], x[m, n]): a bool mask, lane i equal to contains(t[i], x[i])."""
        inside = (self.time_lo <= t) & (t <= self.time_hi)
        return inside & ((np.array(self.state_lo) <= x) & (x <= np.array(self.state_hi))).all(axis=1)


def _site_states(axes: list[np.ndarray]) -> np.ndarray:
    """The product of the state axes as one row per site, in the table's C order (the last axis fastest)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _check_step(times: np.ndarray, h: float, richardson: bool) -> None:
    """StepTooSmall unless each stencil step, h and with Richardson h/2 too, moves every time knot both ways."""
    for step in (h, h / 2.0) if richardson else (h,):
        stuck = times[(times + step == times) | (times - step == times)]
        if len(stuck):
            raise StepTooSmall(f"finite-difference step h={h} leaves the time knot t={float(stuck[0])} unmoved")


def _check_knots(times: np.ndarray, axes: list[np.ndarray]) -> None:
    """ValueError unless the times and every state axis are finite and strictly increasing, two knots or more each."""
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two time knots")
    for ax in axes:
        if ax.ndim != 1 or len(ax) < 2:
            raise ValueError("need at least two knots per state axis")
        if not (np.isfinite(ax).all() and (np.diff(ax) > 0).all()):
            raise ValueError("state knots must be finite and strictly increasing")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("time knots must be finite and strictly increasing")


# The interpolant, rendered per dimension by _interpolant_source in two forms:
# the scalar body over floats, and the lane form over numpy columns (m, 1),
# which makes the same roundings as elementwise ufuncs in the same order.  A
# template is rendered per axis {d} (time is axis 0) at its coordinate {c},
# named as an expression reads it (s0 for time, x<k> for state axis k), on
# the knots k{d}: lists in the scalar body, arrays in the lane form.  {c}'s
# cell is [knot i{d}, knot i{d} + 1], the first or last cell when {c} lies
# beyond the box; w{d} weighs its upper knot and u{d} its lower one.  No
# f-string: the step loop renames the scalar body's name tokens.
_KNOTS = ("lo{d} = k{d}[i{d}]", "hi{d} = k{d}[i{d} + 1]")
_WEIGHT = "w{d} = ({c} - lo{d}) / (hi{d} - lo{d})"
_OUTSIDE = "(w{d} < -1.0) {op} (w{d} > 2.0)"  # more than one cell beyond the box
_BEYOND = "raise EvalError('domain', 'query %s outside the tabulated box' % {c})"
_SKIPPED = "raise EvalError('domain', 'query touches a skipped tabulation site')"
_SCALAR_NAMES = {"bisect_left": bisect_left, "EvalError": ex.EvalError}  # the body's calls


@functools.cache  # a pure function of n: every field of n axes renders the same text, and binds its own values
def _interpolant_source(n: int) -> tuple[str, str, tuple]:
    """Sources of slope(t, x) and lanes(t[m], x[m, n]), the interpolant over n state axes, and slope's body.

    Both read axis d's knots k{d} (time is axis 0) and last cell top{d},
    and the table's values flat in C order, where one knot along axis d is
    st{d} values on.  The body is the module docstring's sum over s0 (t),
    x0 .. into v0 ..; it raises EvalError where a coordinate lies more than
    one cell beyond the box or the sum is not finite.  It first tries the
    cell its last call found on axis d, cell[d]: when lo{d} < {c} <= hi{d}
    there, that is the cell bisect_left finds and w{d} lies in [0, 1], so
    it takes it with no further test; otherwise it locates the cell, keeps
    it in cell[d] and tests the box.  So any valid cell gives the same
    result.  lanes returns (values[m, n], ok[m]): ok[i] is False exactly
    where slope(t[i], x[i]) raises, values[i] is NaN there and slope's
    result bit for bit elsewhere.  The third is slope's splice record but
    for its bound values, which are the values of its names, in order.
    """
    axes, coords = range(n + 1), ["s0", *[f"x{k}" for k in range(n)]]
    wrong = f"raise ValueError('state has wrong dimension for this field ({n})')"

    def weight(c: int) -> str:  # corner c takes the upper knot on axis d when bit d of c is set
        return " * ".join(f"{'w' if c >> d & 1 else 'u'}{d}" for d in axes)

    def corner(c: int) -> str:  # corner c's index in flat, b being its cell's lower corner
        upper = [f"st{d}" for d in axes if c >> d & 1]
        return "b" + ("" if not upper else f" + {upper[0]}" if len(upper) == 1 else f" + ({' + '.join(upper)})")

    body = []
    lanes = [f"if x.shape[1] != {n}: {wrong}", "s0 = t[:, None]", *[f"x{k} = x[:, {k}, None]" for k in range(n)],
             "out = False"]
    for d, a in enumerate(coords):
        knots, w = [line.format(d=d) for line in _KNOTS], _WEIGHT.format(d=d, c=a)
        search = [f"i{d} = bisect_left(k{d}, {a}) - 1", f"i{d} = 0 if i{d} < 0 else top{d} if i{d} > top{d} else i{d}",
                  f"cell[{d}] = i{d}", *knots, w, f"if {_OUTSIDE.format(d=d, op='or')}: {_BEYOND.format(c=a)}"]
        body += [f"i{d} = cell[{d}]", *knots, f"if lo{d} < {a} <= hi{d}:", f"    {w}", "else:",
                 *[f"    {line}" for line in search], f"u{d} = 1.0 - w{d}"]
        lanes += [f"i{d} = minimum(maximum(searchsorted(k{d}, {a}, side='left') - 1, 0), top{d})",
                  *knots, w, f"u{d} = 1.0 - w{d}", f"out = out | {_OUTSIDE.format(d=d, op='|')}"]
    cell = "b = " + " + ".join(f"i{d} * st{d}" for d in axes)
    body += [cell, *[f"v{k} = 0.0" for k in range(n)]]
    lanes += [cell + " + components", "v = 0.0"]
    for c in range(1 << len(axes)):
        reads = [f"    v0 += q * flat[{corner(c)}]"] if n == 1 else [
            f"    j = {corner(c)}", *[f"    v{k} += q * flat[j{f' + {k}' if k else ''}]" for k in range(n)]]
        body += [f"q = {weight(c)}", "if q != 0.0:", *reads]
        lanes += [f"q = {weight(c)}", f"v = v + where(q != 0.0, q * flat[{corner(c)}], 0.0)"]
    results = tuple(f"v{k}" for k in range(n))
    body.append(f"if not ({' and '.join(f'{v} - {v} == 0.0' for v in results)}): {_SKIPPED}")  # 0.0 for finite v only
    lanes += ["ok = ~out[:, 0] & isfinite_lanes(v).all(axis=1)", "v[~ok] = nan", "return v, ok"]
    floats = ", ".join(["float(t)", *[f"float(x[{k}])" for k in range(n)]])
    slope = [f"if len(x) != {n}: {wrong}", f"{', '.join(coords)} = {floats}", *body, f"return ({', '.join(results)},)"]
    names = (*[f"{kind}{d}" for kind in ("k", "st", "top") for d in axes], "flat", "cell", *_SCALAR_NAMES)
    sources = [f"def {name}(t, x):\n" + "".join(f"    {line}\n" for line in lines) for name, lines in
               (("slope", slope), ("lanes", lanes))]
    return *sources, (tuple(coords), names, tuple(body), results, True)


class TabulatedVectorField:
    """Multilinear interpolation over a rectangular (time x state) table.

    Duck-compatible with VectorField for the integrator: exposes n, domain,
    slope(t, x) and its lane form lanes(t[m], x[m, n]) -> (values[m, n],
    ok[m]), and the domain answers contains and contains_lanes.  slope and
    lanes are generated per dimension (_interpolant_source) and bound to
    this field's knots and table, as is slope's splice record, which the
    step loop's driver runs.  cell, one int per axis (time first), is the
    cell the scalar body found last on each axis and tries first; slope and
    the driver share it, and any valid value of it gives the same results,
    so it is a hint only.  times and axes are read-only copies, since the
    scalar body reads lists taken here; table is read in place, so a later
    write into it shows.
    Values one cell beyond an edge are linearly continued from the edge
    cell so Runge-Kutta stage points may overshoot slightly; anything
    farther out, or touching a skipped-site hole, raises an evaluation
    error.
    """

    def __init__(self, times: np.ndarray, axes: list[np.ndarray], table: np.ndarray,
                 skipped_sites: int = 0):
        self.times, *self.axes = [np.array(knots, dtype=float) for knots in (times, *axes)]  # copies, frozen below
        for knots in (self.times, *self.axes):
            knots.flags.writeable = False  # the interpolant reads lists of them, taken once
        self.table = np.ascontiguousarray(table, dtype=float)
        self.n = len(self.axes)
        self.skipped_sites = int(skipped_sites)
        _check_knots(self.times, self.axes)
        expected = (len(self.times), *[len(ax) for ax in self.axes], self.n)
        if self.table.shape != expected:
            raise ValueError(f"table shape {self.table.shape} != {expected}")
        self.domain = BoxDomain(
            time_lo=float(self.times[0]),
            time_hi=float(self.times[-1]),
            state_lo=tuple(float(ax[0]) for ax in self.axes),
            state_hi=tuple(float(ax[-1]) for ax in self.axes),
        )
        knots, flat = (self.times, *self.axes), self.table.reshape(-1)
        cells = [stride // flat.itemsize for stride in self.table.strides[:-1]] + [len(k) - 2 for k in knots]
        slope, lanes, shape = _interpolant_source(self.n)
        self.cell = [0] * (self.n + 1)  # each axis's last cell, the scalar body's first guess
        record = ex.Splice(*shape, (*[k.tolist() for k in knots], *cells, memoryview(flat), self.cell,
                                    *_SCALAR_NAMES.values()))
        names = dict(zip(record.names, record.bound))
        self.slope = ex.build(("interpolant", self.n), lambda: slope, names, "slope", record)
        columns = dict(zip(record.names, (*knots, *cells, flat)))  # the same names, over arrays, and no scalar call
        columns.update(searchsorted=np.searchsorted, minimum=np.minimum, maximum=np.maximum, where=np.where,
                       isfinite_lanes=np.isfinite, nan=math.nan, components=np.arange(self.n))
        self.lanes = np.errstate(all="ignore")(ex.build(("interpolant lanes", self.n), lambda: lanes, columns, "lanes"))

    def site_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every site as lanes (t[m], x[m, n], tabulated values[m, n]), time-major; holes are NaN."""
        states = _site_states(self.axes)
        return np.repeat(self.times, len(states)), np.tile(states, (len(self.times), 1)), self.table.reshape(-1, self.n)


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
    family's domain, and StepTooSmall (a ValueError) first when a step
    leaves tau unmoved.
    """
    arr = as_state(a, fam.n)
    _check_step(np.array([float(tau)]), h, richardson)
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
    50% holes aborts with ReconstructionFailed.  Each state axis is the
    sorted distinct values of the plan's column; where it holds both 0.0
    and -0.0, the one the plan lists first is the knot.  Knots that cannot
    make a table (fewer than two on an axis, or not strictly increasing)
    raise TabulatedVectorField's ValueError before the family is
    evaluated, and then a step h (or h/2 with Richardson) that leaves a
    time knot unmoved raises StepTooSmall, a ValueError.
    """
    plan = cfg.grid
    if plan.n != fam.n:
        raise ValueError(f"plan dimension {plan.n} != family dimension {fam.n}")
    times = np.asarray(plan.time_grid, dtype=float)
    points = np.asarray(plan.state_grid, dtype=float)
    axes = [np.array(sorted(set(points[:, k].tolist()))) for k in range(fam.n)]
    _check_knots(times, axes)  # before the stencil runs: a table these knots cannot hold needs none of it
    _check_step(times, cfg.h, cfg.richardson)
    states = _site_states(axes)  # one lane per state site, in the table's order
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
    The sites are one batch: fld.domain.contains_lanes runs on every site
    and fld.lanes on the finite ones inside the domain.
    """
    t, x, values = tab.site_columns()
    inside = np.isfinite(values).all(axis=1) & fld.domain.contains_lanes(t, x)
    ref, ok = fld.lanes(t[inside], x[inside])
    compared = int(np.count_nonzero(ok))
    return (float(np.abs(values[inside][ok] - ref[ok]).max()) if compared else None), compared


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
