"""Adaptive Runge-Kutta integration of vector fields into numeric flow families.

The driver is an embedded Dormand-Prince 5(4) pair with the standard
coefficients and mixed-tolerance step control: a step is accepted when the
scaled error norm max_i |e_i| / (abs_tol + rel_tol*max(|y_i|,|y'_i|)) is at
most 1, and the next step is h * clip(0.9 * err^(-1/5), 0.2, 5).  The last
stage is the slope at the accepted point (FSAL), so each accepted step
costs six fresh rhs evaluations.

The step loop runs on floats: every sum is plain IEEE double arithmetic,
left to right in the tableau's order, with no BLAS and no fused
multiply-add, so its results are the same on every IEEE-double machine.
Each run of the loop is a driver made for its field (_driver): the loop
unrolled over the components, with the splice records of the field's
slope and domain (expr.splice) run where it would call slope or contains;
expr.build keeps its code, so fields share it.  The tableau and the step
control are literals there, the repr of each value, which round-trips a
double, and abs, the finite test (x - x == 0.0) and the step factor's clip
are comparisons, so a try makes no builtin call and loads no global.  The
loop also runs over numpy lanes, for every batch of a numeric family, with
one try generated from the same templates: each stage sum is a chain of
elementwise ufuncs in the same order, the field is evaluated by its lane
form (field.lanes and field.domain.contains_lanes), and the step factor
takes Python's float ** lane by lane, since numpy's power rounds
differently.  So a lane makes the scalar loop's tries bit for bit.

Integration stops early when the trajectory escapes: norm past the blow-up
radius, domain predicate failing, or the step size collapsing below h_min.
Escape times are bracketed by bisection over the last accepted step, with
candidate points obtained by re-integration from the last good state, and
reported as the bracket midpoint (bracket width 5e-7, comfortably inside
the 1e-6 contract).  Escapes surface as EscapeEvent exceptions; a numeric
FlowFamily translates them into domain membership.

_start holds the one rule for a start (rho, a), with its ValueError, and
builds the first loop state; _integrate is _start, then the step loop.
advance is _integrate with escape refinement, escape_interval is advance
toward each window edge, a numeric family's point query is _integrate
without refinement, and its batches ask _start once per new Cauchy datum.

A numeric family keeps a bounded cache of the step loop's tries per Cauchy
datum (sigma, a) and direction, which serves its batches only: a batch
replays only the tries from the first one that reaches each tau, in two
phases.  One lane per datum runs the tries that no record reaches far
enough yet, its record hook, called once per try over the lanes, keeping
them, then one lane per query runs from its reaching try to tau.  Once 64
(_TAIL_LANES) or fewer lanes of either phase run, the lane loop finishes
each in the scalar loop, whose hook views one lane, so a small batch makes
all its tries there and builds no lane form.  Point queries, advance and
escape_interval integrate directly and never touch the cache.  That cache
is mutable state: a numeric family is not thread-safe, and nothing in
flowfam evaluates concurrently.
"""

from __future__ import annotations

import functools
import io
import keyword
import math
import numbers
import re
import sys
import tokenize
from array import array
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .core import (
    DomainViolation,
    EscapeInterval,
    FlowFamily,
    VectorField,
    as_state,
)

__all__ = [
    "IntegratorConfig",
    "EscapeEvent",
    "StepBudgetExceeded",
    "advance",
    "numeric_family",
    "escape_interval",
]

# Dormand-Prince 5(4) tableau, literals in the generated tries: stage i is taken at
# t + c_i h and y + h (a_i1 k1 + a_i2 k2 + ...), the seventh stage point is
# the 5th-order solution (FSAL), and e = b5 - b4 weighs the error estimate.
# Zero entries (a_72, e_2) are left out of the sums.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_CONSTANTS = r"\b_(?:A\d\d|E\d|C\d|SAFETY|FACTOR_MIN|FACTOR_MAX)\b"  # the names _literal renders, compiled there
_BRACKET_WIDTH = 5e-7  # escape-time bracket, half the 1e-6 contract
_TRAJECTORY_CACHE_SIZE = 128  # trajectories per numeric family, bounded for peak memory
_TAIL_LANES = 64  # at or below, scalar tries beat numpy's cost per try: measured against 16-128 and scalar only


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and escape-detection knobs for the adaptive integrator.

    Each knob must be a finite number, and the window two finite numbers:
    an infinite edge would leave the step loop with no end but max_steps,
    and an infinite tolerance or radius would accept any step.  A bool is
    refused for each, though Python counts it as an int.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    blowup_radius: float = 1e6
    window: tuple[float, float] = (-50.0, 50.0)
    max_steps: int = 10**6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_init", "h_min", "blowup_radius"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # inf, nan, or an integer past every double
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not 0 < self.h_min < self.h_init:
            raise ValueError("need 0 < h_min < h_init")
        if not self.blowup_radius > 0:
            raise ValueError("blowup_radius must be positive")
        window = tuple(self.window) if isinstance(self.window, Iterable) else ()
        if len(window) != 2 or not all(map(_is_number, window)):
            raise ValueError(f"window must be two numbers, got {self.window!r}")
        lo, hi = map(float, window)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"window ends must be finite, got {self.window!r}")
        if not lo < hi:
            raise ValueError("window must be a nonempty interval")
        object.__setattr__(self, "window", (lo, hi))
        if not (isinstance(self.max_steps, int) and not isinstance(self.max_steps, bool) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")


class EscapeEvent(Exception):
    """The trajectory left its maximal interval inside the window.

    kind: blow_up | left_domain | window_limit | step_underflow; time is
    where it happened (bracket midpoint when refinement ran).
    """

    def __init__(self, kind: str, time: float):
        super().__init__(f"{kind} at t={time}")
        self.kind = kind
        self.time = time


class StepBudgetExceeded(RuntimeError):
    """The integrator took max_steps steps without reaching the target time."""


# The step's sums in the tableau's order: the stage points of k2..k6, the
# 5th-order solution, then the error estimate, rendered in _ATTEMPT_LANES and
# by _drive_source.  In the scalar loop {i} is component i's suffix _i, so
# y{i} is y's component i and p<s>{i} the slope k<s>'s, and {h} is the step
# h.  In the lane try {i} is empty, so each name holds all lanes' components
# as an (m, n) array, and {h} is the column hc = h[:, None]: each sum is then
# a chain of elementwise ufuncs in the same order, each rounding once.
_STAGE_POINTS = (
    "y{i} + {h} * (_A21 * p1{i})",
    "y{i} + {h} * (_A31 * p1{i} + _A32 * p2{i})",
    "y{i} + {h} * (_A41 * p1{i} + _A42 * p2{i} + _A43 * p3{i})",
    "y{i} + {h} * (_A51 * p1{i} + _A52 * p2{i} + _A53 * p3{i} + _A54 * p4{i})",
    "y{i} + {h} * (_A61 * p1{i} + _A62 * p2{i} + _A63 * p3{i} + _A64 * p4{i} + _A65 * p5{i})",
)
_SOLUTION = "y{i} + {h} * (_A71 * p1{i} + _A73 * p3{i} + _A74 * p4{i} + _A75 * p5{i} + _A76 * p6{i})"
_ERROR = "{h} * (_E1 * p1{i} + _E3 * p3{i} + _E4 * p4{i} + _E5 * p5{i} + _E6 * p6{i} + _E7 * p7{i})"
_STAGE_TIMES = ("t + _C2 * h", "t + _C3 * h", "t + _C4 * h", "t + _C5 * h", "t + h")  # t and h: floats or (m,) lanes
# The scalar loop's scaled error of component {i}: s{i} is y5's component, e{i}
# the error estimate's, and |e{i}| and max(|y{i}|, |s{i}|) are written out as abs and max would take them.
_RATIO = "(e{i} if e{i} >= 0.0 else -e{i}) / (abs_tol + rel_tol * (s_abs{i} if s_abs{i} > y_abs{i} else y_abs{i}))"
# The try over lanes, attempt_lanes(f, t[m], y[m, n], h[m], k1[m, n], abs_tol, rel_tol), the same for every n:
# f(t[m], x[m, n]) is a lane form of the field, returning (slopes[m, n], ok[m]).  It returns (y5, k7, err,
# y5_norm, ok): ok[i] is False exactly where lane i's try fails in drive, and lane i of the others is its bits.
_ATTEMPT_LANES = "def attempt_lanes(f, t, y, h, k1, abs_tol, rel_tol):\n" + "".join(f"    {line}\n" for line in [
    "hc = h[:, None]", "p1 = k1",
    *[f"p{s}, ok{s} = f({t}, {p.format(i='', h='hc')})" for s, t, p in zip(range(2, 7), _STAGE_TIMES, _STAGE_POINTS)],
    f"s = {_SOLUTION.format(i='', h='hc')}", "p7, ok7 = f(t + h, s)", f"e = {_ERROR.format(i='', h='hc')}",
    "ok = ok2 & ok3 & ok4 & ok5 & ok6 & ok7 & np.isfinite(s).all(axis=1) & np.isfinite(e).all(axis=1)",
    "s_abs = np.abs(s)",
    "err = (np.abs(e) / (abs_tol + rel_tol * np.maximum(np.abs(y), s_abs))).max(axis=1)",
    "return s, p7, err, s_abs.max(axis=1), ok",
])
# The scalar step loop: {y}, {p1}, {s} and {p7} list the components of y, k1, y5
# and k7, and {bind}, {stages}, {errors}, {norms} and {accept} are statements, indented.
_DRIVE = """\
def drive(field, tau, cfg, refine, state, record=None, values=()):
    t, h, steps, [{y}], [{p1}] = state
{bind}
    abs_tol, rel_tol, h_min, max_steps, radius = cfg.abs_tol, cfg.rel_tol, cfg.h_min, cfg.max_steps, cfg.blowup_radius
    while True:
        if record is not None and record([t, h, {y}, {p1}], steps):
            return None
        steps += 1
        if steps > max_steps:
            raise StepBudgetExceeded(f"integration exceeded {{max_steps}} steps at t={{t}}")
        gap = tau - t
        last = (h if h >= 0.0 else -h) >= (gap if gap >= 0.0 else -gap)
        if last:
            h = gap
        try:
{stages}
        except ex.EvalError:
            ok = False
        else:
{errors}
        if ok:
{norms}
            factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** -0.2
            factor = _FACTOR_MIN if factor < _FACTOR_MIN else _FACTOR_MAX if factor > _FACTOR_MAX else factor
        else:  # no rhs value (or an overflow) inside the step: halve it, as a rejected try rescales it
            err, factor = 2.0, 0.5
        if err <= 1.0:
            t_new, y5 = tau if last else t + h, ({s},)
            kind = "blow_up" if y5_norm > radius else None
            if kind is None:
{accept}
                if not inside: kind = "left_domain"
            if kind is not None:
                if refine:
                    t_star, kind = _bisect_escape(field, t, ({y},), t_new, cfg, kind)
                    raise EscapeEvent(kind, t_star)
                raise EscapeEvent(kind, t_new)
            if last:
                return y5
            t, {y}, {p1} = t_new, {s}, {p7}
            h *= factor
            if (h if h >= 0.0 else -h) < h_min:  # keep crawling; only a failed step underflows
                h = math.copysign(h_min, h)
        else:
            h *= factor
            if (h if h >= 0.0 else -h) < h_min:
                raise EscapeEvent("step_underflow", t)
"""


def _renamed(text: str, prefix: str = "f_") -> str:
    """The line text with prefix before each name token but keywords: spliced lines renamed apart from the loop's."""
    # a string keeps its text; before Python 3.12 an f-string is one token, so no spliced name is read in one
    at = [col for kind, name, (_, col), _, _ in tokenize.generate_tokens(io.StringIO(text).readline)
          if kind == tokenize.NAME and not keyword.iskeyword(name)]
    return "".join(text[i:j] + prefix for i, j in zip([0, *at], at)) + text[at[-1] if at else 0:]


def _block(lines: list[str], depth: int) -> str:
    return "\n".join(" " * depth + line for line in lines)


def _drive_source(n: int, rhs: ex.Splice | None = None, inside: ex.Splice | None = None) -> str:
    """Source of ``drive``, _drive's loop unrolled over n components, from the templates above.

    A try fails where the field has no value at a stage (EvalError) or y5
    or the error estimate is not finite; its norms are maxed in component
    order as max does.  A stage splices rhs, the slope's record, renamed
    apart with f_, else calls field.slope.  An accepted point splices
    inside, the domain's record, renamed with m_, where an EvalError counts
    as outside, else calls field.domain.contains.  drive takes the records'
    bound values, in that order, as values.
    """
    def each(template: str) -> list[str]:
        return [template.format(i=f"_{i}", h="h") for i in range(n)]

    def at(time: str, point: str) -> dict:  # what each read of a record is at a point: s0 its time, x<k> its y<k>
        return dict(zip(["s0", *[f"x{k}" for k in range(n)]], [time, *each(point)]))

    def spliced(found: ex.Splice, prefix: str, args: dict) -> list[str]:
        return [f"{prefix}{r} = {args[r]}" for r in found.reads] + [_renamed(line, prefix) for line in found.lines]

    def stage(s: int, time: str, point: str) -> list[str]:
        slopes, args = each(f"p{s}{{i}}"), at(time, point)
        if rhs is None:
            return [f"[{', '.join(slopes)}] = slope({time}, ({''.join(v + ', ' for v in each(point))}))"]
        if rhs.called:
            return [f"[{', '.join(slopes)}] = spliced_slope({', '.join(args[r] for r in rhs.reads)})"]
        return spliced(rhs, "f_", args) + [f"{p} = f_{v}" for p, v in zip(slopes, rhs.results)]

    def largest(name: str, template: str) -> list[str]:
        first, *rest = each(template)
        return [f"{name} = {first}"] + [f"if {v} > {name}: {name} = {v}" for v in rest]

    stages = [line for s, t, p in zip(range(2, 7), _STAGE_TIMES, _STAGE_POINTS) for line in stage(s, t, p)]
    stages += each("s{i} = " + _SOLUTION) + stage(7, "t + h", "s{i}")
    finite = " and ".join(each("s{i} - s{i} == 0.0") + each("e{i} - e{i} == 0.0"))  # x - x is 0.0 for finite x only
    errors = [*each("e{i} = " + _ERROR), "ok = " + finite]
    norms = [*each("y_abs{i} = y{i} if y{i} >= 0.0 else -y{i}"), *each("s_abs{i} = s{i} if s{i} >= 0.0 else -s{i}"),
             *each("r{i} = " + _RATIO), *largest("err", "r{i}"), *largest("y5_norm", "s_abs{i}")]
    bound = [prefix + name for prefix, found in (("f_", rhs), ("m_", inside)) if found for name in found.names]
    bind, accept = [f"[{', '.join(bound)}] = values"] if bound else [], ["inside = contains(t_new, y5)"]
    if rhs is None:
        bind.append("slope = field.slope")
    elif rhs.called:
        bind += [f"def spliced_slope({', '.join('f_' + r for r in rhs.reads)}):",
                 *["    " + _renamed(line) for line in rhs.lines],
                 f"    return ({', '.join('f_' + v for v in rhs.results)},)"]
    if inside is None:
        bind.append("contains = field.domain.contains")
    else:
        accept = ["try:", *["    " + line for line in spliced(inside, "m_", at("t_new", "s{i}"))],
                  f"    inside = m_{inside.results[0]}", "except ex.EvalError:", "    inside = False"]
    return _literal(_DRIVE.format(bind=_block(bind, 4), stages=_block(stages, 12), errors=_block(errors, 12),
                                  norms=_block(norms, 12), accept=_block(accept, 16),
                                  **{name: ", ".join(each(name + "{i}")) for name in ("y", "p1", "s", "p7")}))


def _literal(source: str) -> str:
    """source with each tableau and step-control name as repr of its value: a constant, which repr round-trips."""
    return re.sub(_CONSTANTS, lambda name: repr(globals()[name.group()]), source)


def _start(field: VectorField, rho: float, a: tuple, tau: float, cfg: IntegratorConfig) -> tuple:
    """Loop state (t, h, 0, y, k1) before the first try from (rho, a) toward tau: the one rule for a start.

    Raises ValueError when rho or tau lies outside the window, (rho, a)
    outside the field's domain, or the field cannot be evaluated at (rho,
    a), which its domain may contain all the same.  Past the window test
    rho and tau are Python floats, so the rule and the loop run on floats.
    """
    lo, hi = cfg.window
    if not (lo <= rho <= hi and lo <= tau <= hi):
        raise ValueError(f"start time {rho} and target time {tau} must lie in the integration window [{lo}, {hi}]")
    rho, tau = float(rho), float(tau)
    if not field.domain.contains(rho, a):
        raise ValueError(f"initial condition ({rho}, {list(a)}) outside the field domain")
    try:
        k1 = field.slope(rho, a)
    except ex.EvalError as err:
        raise ValueError(f"field cannot be evaluated at the initial condition ({rho}, {list(a)}): {err}") from err
    return rho, (1.0 if tau > rho else -1.0) * min(cfg.h_init, abs(tau - rho)), 0, a, k1


def _integrate(field: VectorField, rho: float, a: tuple, tau: float, cfg: IntegratorConfig, refine: bool,
               driver=None) -> tuple:
    """Drive _start's state to tau, or return a where tau == rho; raises EscapeEvent when the solution quits first.

    driver() (drive, values), when given, stands in for _driver(field).
    """
    state = _start(field, rho, a, tau, cfg)
    return a if tau == rho else _drive(field, float(tau), cfg, refine, state, None, driver)


def _drive(field: VectorField, tau: float, cfg: IntegratorConfig, refine: bool, state, record=None, driver=None):
    """The step loop, field's driver: make tries from state (t, h, steps, y, k1) until one lands on tau.

    A try's step is clipped at tau when |h| >= |tau - t|.  record, when
    given, is called as record(row, steps) before each try, with row the
    list of floats [t, h, *y, *k1] and steps the tries made; returning True
    ends the loop, which then returns None.  driver() (drive, values), when
    given, stands in for _driver(field).
    """
    drive, values = driver() if driver else _driver(field)
    return drive(field, tau, cfg, refine, state, record, values)


def _driver(field: VectorField) -> tuple:
    """(drive, values): drive built from _drive_source over the splice records of field's slope and domain.

    Its code is kept by the records without their bound values, so fields
    share it, and it reads this module's names; values are the bound values.
    """
    n, rhs, inside = field.n, ex.splice(field.slope), ex.splice(field.domain)
    key = ("drive", n, rhs and rhs[:-1], inside and inside[:-1])
    values = (rhs.bound if rhs else ()) + (inside.bound if inside else ())
    return ex.build(key, lambda: _drive_source(n, rhs, inside), globals(), "drive"), values


def _lane_try():
    """attempt_lanes, built from _ATTEMPT_LANES: one code for every field."""
    return ex.build("attempt_lanes", lambda: _literal(_ATTEMPT_LANES), globals(), "attempt_lanes")


def _bisect_escape(field: VectorField, t_good: float, y_good: tuple, t_bad: float, cfg: IntegratorConfig,
                   kind: str) -> tuple[float, str]:
    """Bisect the last accepted step down to a 5e-7 bracket around the escape.

    Candidate midpoints are reached by re-integrating from the good end, so
    each probe is as accurate as a normal advance; a probe that escapes on
    the way tightens the bad end instead.  All probes share one driver.
    """
    driver = _driver(field)
    while abs(t_bad - t_good) > _BRACKET_WIDTH:
        mid = 0.5 * (t_good + t_bad)
        try:
            y_good = _integrate(field, t_good, y_good, mid, cfg, False, lambda: driver)
            t_good = mid  # the step loop has classified the point it landed on
        except EscapeEvent as ev:
            t_bad, kind = ev.time, ev.kind
    return 0.5 * (t_good + t_bad), kind


def _drive_lanes(field: VectorField, cfg: IntegratorConfig, target: np.ndarray, state, record=None):
    """_drive over lanes: lane i runs the step loop from state i toward target[i], all lanes in step.

    state is (t[m], h[m], steps[m], y[m, n], k1[m, n]).  Each try is one
    call of the lane try (_lane_try) over the running lanes and field.lanes,
    rendered from the templates of _drive's loop, then its step control
    in elementwise form; the step factor takes Python's float ** lane by
    lane, since numpy's power rounds differently.  So every lane makes the
    tries _drive makes and ends as it does.  record, when given, is called
    once per try as record(lanes, t, h, y, k1, steps) -> stop[m] over the
    running lanes; a lane where stop holds ends there.  Once at most
    _TAIL_LANES lanes run, numpy's cost per try outweighs the work, and each
    runs on in _drive to its end with record.one(i), _drive's hook for lane
    i: this is the one place that chooses between numpy and the scalar loop.

    Returns (landed, values, ends) for every lane: landed[i] where lane i
    landed on its target, values[i] its state there; ends maps a lane that
    escaped to (kind, time) and one that ran out of steps to the budget
    message.  A lane its hook ended is in neither.
    """
    t, h, steps, y, k1 = state
    attempt_lanes, lanes = _lane_try(), np.arange(len(t))
    landed, values, ends = np.zeros(len(t), dtype=bool), np.full(y.shape, math.nan), {}
    with np.errstate(all="ignore"):  # a failed lane carries inf or nan through its stages
        while len(lanes) > _TAIL_LANES:
            if record is not None:
                stop = record(lanes, t, h, y, k1, steps)
                if stop.any():
                    lanes, t, h, steps, y, k1, target = _keep(~stop, lanes, t, h, steps, y, k1, target)
                    if not len(lanes):
                        break
            steps = steps + 1.0
            over = steps > cfg.max_steps
            if over.any():
                for k in _where(over):
                    ends[int(lanes[k])] = f"integration exceeded {cfg.max_steps} steps at t={float(t[k])}"
                lanes, t, h, steps, y, k1, target = _keep(~over, lanes, t, h, steps, y, k1, target)
            last = np.abs(h) >= np.abs(target - t)
            h = np.where(last, target - t, h)
            y_new, k_last, err, y_norm, ok = attempt_lanes(field.lanes, t, y, h, k1, cfg.abs_tol, cfg.rel_tol)
            accepted = ok & (err <= 1.0)
            t_new = np.where(last, target, t + h)
            # a failed stage halves h; otherwise h takes _drive's factor, in Python floats lane by lane
            h = h * np.array([0.5 if not k else _FACTOR_MAX if e == 0.0 else
                              min(_FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * e ** -0.2))
                              for k, e in zip(ok.tolist(), err.tolist())])
            blow_up = y_norm > cfg.blowup_radius
            escaped = accepted & (blow_up | ~field.domain.contains_lanes(t_new, y_new))
            underflow = ~accepted & (np.abs(h) < cfg.h_min)
            for k in _where(escaped):
                ends[int(lanes[k])] = ("blow_up" if blow_up[k] else "left_domain", float(t_new[k]))
            for k in _where(underflow):
                ends[int(lanes[k])] = ("step_underflow", float(t[k]))
            done = accepted & last & ~escaped
            landed[lanes[done]] = True
            values[lanes[done]] = y_new[done]
            moved = accepted & ~last & ~escaped
            t = np.where(moved, t_new, t)
            y = np.where(moved[:, None], y_new, y)
            k1 = np.where(moved[:, None], k_last, k1)
            # keep crawling; only a failed step underflows
            h = np.where(moved & (np.abs(h) < cfg.h_min), np.where(h < 0.0, -cfg.h_min, cfg.h_min), h)
            running = ~(escaped | underflow | done)
            if not running.all():
                lanes, t, h, steps, y, k1, target = _keep(running, lanes, t, h, steps, y, k1, target)
    driver = _driver(field) if len(lanes) else None  # one for every lane of the scalar tail
    for k, i in enumerate(lanes.tolist()):
        loop_state = float(t[k]), float(h[k]), int(steps[k]), tuple(y[k].tolist()), tuple(k1[k].tolist())
        try:
            reached = _drive(field, float(target[k]), cfg, False, loop_state, record and record.one(i), lambda: driver)
        except EscapeEvent as ev:
            ends[i] = ev.kind, ev.time
        except StepBudgetExceeded as err:
            ends[i] = str(err)
        else:
            if reached is not None:
                landed[i], values[i] = True, reached
    return landed, values, ends


def _keep(mask: np.ndarray, *columns: np.ndarray) -> list:
    return [c[mask] for c in columns]


def _where(mask: np.ndarray) -> list:
    """The indices where mask holds, as a list of ints.

    Built in Python: numpy keeps freed buffers of each small size for reuse,
    so an index array for every count met would stay resident.
    """
    return [k for k, b in enumerate(mask.tolist()) if b] if mask.any() else []


def advance(
    field: VectorField,
    rho: float,
    a,
    tau: float,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """State at time tau of the solution through (rho, a); backward when tau < rho.

    Raises EscapeEvent when the solution quits before reaching tau, with the
    escape time bracketed to width <= 1e-6 (bisection over the last accepted
    step), and StepBudgetExceeded (a RuntimeError) when max_steps run out
    first.  Zero-length requests return a unchanged.  A start that breaks
    _start's rule (rho or tau outside the window, (rho, a) outside the
    field's domain, or not evaluable there) raises its ValueError.
    """
    y = tuple(as_state(a, field.n).tolist())
    return as_state(_integrate(field, rho, y, tau, cfg or IntegratorConfig(), refine=True), field.n)


class _Trajectory:
    """The step loop's tries from one Cauchy datum toward one window edge.

    Row j holds the loop state (t, h, y, k1) before try j + 1, so j is its
    step count; rows are flat in one array of doubles.  While end is None
    the last row is the next try, not yet made.  Otherwise end says how the
    loop ended: an escape's (kind, time) or the step-budget message, kept
    as data: a stored exception would keep its traceback's frames alive.
    """

    __slots__ = ("n", "rows", "end")

    def __init__(self, n: int):
        self.n = n
        self.rows = array("d")
        self.end = None

    def __len__(self) -> int:
        return len(self.rows) // (2 + 2 * self.n)


class _TrajectoryCache:
    """LRU map (sigma, direction, a) -> _Trajectory for one numeric family.

    The integration from (sigma, a) to tau makes exactly the tries of the
    loop toward the window edge until the first one whose step reaches tau,
    where it clips the step.  So a lane at tau runs the loop from that
    recorded try, and every value and membership is the one a direct
    integration gives, whatever was batched before.
    """

    def __init__(self, field: VectorField, cfg: IntegratorConfig):
        self.field = field
        self.cfg = cfg
        self.entries: OrderedDict[bytes, _Trajectory] = OrderedDict()

    def _entry(self, key: bytes, state) -> _Trajectory:
        """The entry for key, now used last; where there is none, a new one holding state, _start's loop state."""
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            return entry
        t, h, _, y, k1 = state
        entry = self.entries[key] = _Trajectory(self.field.n)
        entry.rows.extend((t, h, *y, *k1))
        if len(self.entries) > _TRAJECTORY_CACHE_SIZE:
            self.entries.popitem(last=False)
        return entry

    def solve_lanes(self, tau: np.ndarray, sigma: np.ndarray, a: np.ndarray):
        """(values, ok) for lanes (tau, sigma, a): a numeric family's batch evaluator.

        Each lane is answered as _integrate answers it, with ok False where
        it raises: _starts asks _start once per new datum, a diagonal lane
        returns its start where the rule holds, and any other lane takes the
        value of a direct integration from its start to its tau.  Phase 2
        runs every query, one lane each, from its start (see _starts) to its
        tau.
        """
        values, ok = np.full(a.shape, math.nan), np.zeros(len(tau), dtype=bool)
        lanes, rows = self._starts(tau, sigma, a, values, ok)
        landed, reached, _ = _drive_lanes(self.field, self.cfg, tau[lanes], _columns(rows, self.field.n))
        values[lanes[landed]], ok[lanes[landed]] = reached[landed], True
        return values, ok

    def _starts(self, tau, sigma, a, values, ok) -> tuple[np.ndarray, np.ndarray]:
        """The lanes that phase 2 runs and their starts, as rows (t, h, y, k1, steps).

        The data are walked once, in order of first appearance, so the cache
        ends in the state a loop of one-lane batches over the lanes grouped
        by datum leaves, and the step loop makes the same tries.  Lanes with
        tau in the window are kept; a new datum with one asks _start once,
        toward its window edge, and a refused start drops its lanes.
        Diagonal lanes get their values and ok here.  _capture gives queries
        their starts from the recorded tries; phase 1 (_Phase1) runs the data
        with queries still waiting on, and a query it never reaches keeps its NaN row.
        """
        lo, hi = self.cfg.window
        groups, inside, taus = {}, ((lo <= tau) & (tau <= hi)).tolist(), tau.tolist()
        keys = np.column_stack([sigma, np.where(tau > sigma, 1.0, -1.0), a])  # each row's bytes, by a void view
        for i, key in enumerate(keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel().tolist()):
            lanes = groups.setdefault(key, [])
            if inside[i]:
                lanes.append(i)
        width, jobs, rows = 2 + 2 * self.field.n, {}, array("d")  # jobs: key -> queue, pending starts rows in rows
        starts = np.full((len(tau), width + 1), math.nan)  # NaN until the lane has a start
        for key, lanes in groups.items():
            if not lanes:
                continue
            sigma_i, a_i = float(sigma[lanes[0]]), tuple(a[lanes[0]].tolist())
            edge = hi if taus[lanes[0]] > sigma_i else lo
            try:  # a datum the cache holds passed the rule when it entered
                state = None if key in self.entries else _start(self.field, sigma_i, a_i, edge, self.cfg)
            except ValueError:
                continue  # the rule refuses the start, so no lane of the datum is in the domain
            for i in lanes:
                if taus[i] == sigma_i:
                    values[i], ok[i] = a[i], True
            queue = sorted((i for i in lanes if taus[i] != sigma_i), key=lambda i: abs(taus[i] - sigma_i), reverse=True)
            if not queue:
                continue
            entry = self._entry(key, state)
            for j in range(len(entry)):  # _capture's first test inline, since most rows reach no tau
                if abs(entry.rows[j * width + 1]) >= abs(taus[queue[-1]] - entry.rows[j * width]) and not _capture(
                        queue, taus, entry.rows[j * width:(j + 1) * width], j, starts):
                    break
            if queue and entry.end is None:  # then the last row is the pending try, j tries in
                jobs[key] = queue
                rows.extend((*entry.rows[-width:], j))
        if jobs:  # phase 1
            pending, queues = np.array(rows).reshape(len(jobs), width + 1), list(jobs.values())
            phase = _Phase1([self.entries.get(key) for key in jobs], queues, pending[:, -1], rows, taus, starts)
            target = np.array([taus[queue[0]] for queue in queues])
            phase.end(_drive_lanes(self.field, self.cfg, target, _columns(pending, self.field.n), phase)[2])
        lanes = np.arange(len(tau))[np.isfinite(starts[:, 0])]
        return lanes, starts[lanes]


class _Phase1:
    """Phase 1's record hook, in columns, with the scalar loop's hook a one-lane view of the same state.

    Job i has a queue, its queries farthest tau first, a pending try as a
    starts row in the batch's flat buffer rows, and entries[i], the entry the
    cache still holds for it as phase 1 starts, or None.  Kept jobs' new tries
    follow in rows, their jobs in owners, until end splits them among the entries.
    """

    def __init__(self, entries: list, queues: list, tried: np.ndarray, rows: array, taus: list, starts: np.ndarray):
        self.entries, self.queues, self.taus, self.starts, self.rows = entries, queues, taus, starts, rows
        self.pending, self.width, self.owners, self.lane = len(rows), len(rows) // len(queues) - 1, array("q"), 0
        self.after = np.where([e is None for e in entries], math.inf, tried)  # a kept job records past its pending try
        self.near = np.array([taus[queue[-1]] for queue in queues])  # the nearest tau each job waits on

    def __call__(self, lanes: np.ndarray, t, h, y, k1, steps: np.ndarray) -> np.ndarray:
        """record(lanes, t, h, y, k1, steps) -> stop[m], before a try over lanes: True where a job ends."""
        rows, new = np.column_stack([t, h, y, k1]), steps > self.after[lanes]
        if new.any():
            self.rows.frombytes(memoryview(rows if new.all() else rows[new]).cast("B"))
            self.owners.extend(lanes[new].tolist())
        stop = np.abs(h) >= np.abs(self.near[lanes] - t)
        for k in _where(stop):  # Python meets only the lanes whose step reaches a waiting tau
            queue = self.queues[lanes[k]]
            if _capture(queue, self.taus, rows[k].tolist(), steps[k], self.starts):
                self.near[lanes[k]] = self.taus[queue[-1]]
            stop[k] = not queue
        return stop

    def one(self, lane: int):  # the scalar loop's hook record(row, steps) -> stop for lane
        self.lane = lane
        return self._tried

    def _tried(self, row: list, steps: int) -> bool:
        if steps > self.after[self.lane]:
            self.rows.fromlist(row)
            self.owners.append(self.lane)
        return not _capture(self.queues[self.lane], self.taus, row, steps, self.starts)  # near serves numpy only

    def end(self, ends: dict) -> None:
        """Hand each kept entry its new rows, a lane's numpy tries before its scalar tail's, and its loop's end."""
        rows, size, at = memoryview(self.rows).cast("B")[8 * self.pending:], 8 * self.width, {}
        for k, i in enumerate(self.owners):  # grouped in Python: a numpy sort maps about 0.6 MB more of its code
            at.setdefault(i, []).append(k)
        for i, ks in at.items():  # each entry grows once
            self.entries[i].rows.frombytes(b"".join([rows[k * size:(k + 1) * size] for k in ks]))
        for i, end in ends.items():
            if self.entries[i] is not None:
                self.entries[i].end = end


def _columns(rows: np.ndarray, n: int) -> tuple:
    """Starts rows (t, h, y, k1, steps) as the lane columns (t, h, steps, y, k1) of the loop state."""
    return rows[:, 0], rows[:, 1], rows[:, -1], rows[:, 2:2 + n], rows[:, 2 + n:-1]


def _capture(queue: list, taus: list, row, steps: int, starts: np.ndarray) -> bool:
    """Hand the loop state before a try to each query at queue's end whose tau the try's step reaches.

    row is the state's (t, h, y, k1) and steps the tries before it; a
    query's starts row is (t, h, y, k1, steps).  queue lists a datum's
    queries farthest tau first, and the tries come in the loop's order,
    recorded or new.  t only moves toward the window edge and a step that
    crosses a tau reaches it, so no try reaches a nearer tau first after
    one that reaches a farther tau: each query takes the first try that
    reaches its tau, the one a direct integration clips there.  Returns
    True while queries wait.  Phase 1 keeps the order: a lane's numpy tries
    come before its scalar tail's.
    """
    t, h = row[0], row[1]
    while queue and abs(h) >= abs(taus[queue[-1]] - t):
        starts[queue.pop()] = (*row, steps)
    return bool(queue)


def numeric_family(field: VectorField, cfg: IntegratorConfig | None = None) -> FlowFamily:
    """Flow family realized by integrating the field on demand.

    Membership of (tau, sigma, a) holds when (sigma, a) and tau pass
    _start's rule for a start and integration from sigma to tau
    completes within max_steps without escaping.  A point query is one
    _integrate call, by the driver the family makes at its first try,
    without escape refinement, since only the yes/no answer matters: a
    refused start or an overrun is a DomainViolation with the exception's
    text, and an escape one naming its time and kind.  tol_hint advertises
    rel_tol so downstream checks can widen comparisons accordingly.

    The batch evaluator is the cache's solve_lanes.  evaluate_batch records
    the step loop's tries from each Cauchy datum (sigma, a) in each
    direction, for the 128 data its batches used last, and answers a lane
    by replaying only the tries from the first one that reaches its tau.
    Both give the bits of a direct integration, whatever was asked before.
    A batch meets the data of its lanes in order of first appearance, asks
    _start once for each datum the cache does not hold, and runs in two
    phases over the field's lane form: phase 1 runs each datum whose
    recorded tries do not reach its farthest tau on from its pending try,
    one lane per datum, and phase 2 runs each query, one lane each, from
    the first try that reaches its tau.  The lane driver finishes the lanes
    still running once 64 (_TAIL_LANES) or fewer are left in the scalar
    loop, so a batch that small never builds the lane form.  The cache
    makes the family mutable: it is not thread-safe.
    """
    cfg = cfg or IntegratorConfig()
    driver = functools.cache(lambda: _driver(field))  # made at the first point query that tries a step

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> tuple:
        try:
            return _integrate(field, sigma, tuple(a.tolist()), tau, cfg, False, driver)
        except EscapeEvent as ev:
            raise DomainViolation(
                "out_of_domain", f"trajectory escapes at t={ev.time} ({ev.kind})"
            ) from None
        except (ValueError, StepBudgetExceeded) as err:  # a refused start, or the step budget
            raise DomainViolation("out_of_domain", str(err)) from None

    return FlowFamily(
        n=field.n, kind="numeric", evaluator=evaluator, tol_hint=cfg.rel_tol,
        batch_evaluator=_TrajectoryCache(field, cfg).solve_lanes,
    )


def escape_interval(
    field: VectorField, rho: float, a, cfg: IntegratorConfig | None = None
) -> EscapeInterval:
    """Maximal open interval around rho on which the solution through (rho, a) lives.

    Each end is advance toward that edge of the window: an edge reached is
    window_limit, which claims no end of the solution itself, and an escape
    gives its refined time and kind, so both ends are finite.  A start at
    an edge is that side's diagonal.  A start advance refuses raises its
    ValueError.
    """
    cfg = cfg or IntegratorConfig()
    ends = []
    for edge in cfg.window:
        try:
            advance(field, rho, a, edge, cfg)
            ends.append((edge, "window_limit"))
        except EscapeEvent as ev:
            ends.append((ev.time, ev.kind))
    (lower, lower_kind), (upper, upper_kind) = ends
    return EscapeInterval(lower, upper, lower_kind, upper_kind)
