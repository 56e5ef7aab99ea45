"""Adaptive Runge-Kutta integration of vector fields into numeric flow families.

The driver is an embedded Dormand-Prince 5(4) pair with the standard
coefficients and mixed-tolerance step control: a step is accepted when the
scaled error norm max_i |e_i| / (abs_tol + rel_tol*max(|y_i|,|y'_i|)) is at
most 1, and the next step is h * clip(0.9 * err^(-1/5), 0.2, 5).  The last
stage is the slope at the accepted point (FSAL), so each accepted step
costs six fresh rhs evaluations.

The step loop runs on tuples of floats (field(t, x) returns one): every sum
is plain IEEE double arithmetic, left to right in the tableau's order, with
no BLAS and no fused multiply-add, so its results are the same on every
IEEE-double machine.  The same loop also runs over numpy lanes, for every
batch of a numeric family: each stage sum is a chain of elementwise ufuncs in
the tableau's order, each rounding once, the field is evaluated by its lane
form (field.lanes and field.domain.contains_lanes), and the step factor takes
Python's float ** lane by lane, since numpy's power rounds differently.  So a
lane makes the tries of the scalar loop bit for bit.

Integration stops early when the trajectory escapes: norm past the blow-up
radius, domain predicate failing, or the step size collapsing below h_min.
Escape times are bracketed by bisection over the last accepted step, with
candidate points obtained by re-integration from the last good state, and
reported as the bracket midpoint (bracket width 5e-7, comfortably inside
the 1e-6 contract).  Escapes surface as EscapeEvent exceptions; a numeric
FlowFamily translates them into domain membership.

A numeric family keeps a bounded cache of the step loop's tries per Cauchy
datum (sigma, a) and direction, which serves its batches only: a batch
replays only the tries from the first one that reaches each tau, in two
phases.  One lane per datum runs the tries that no record reaches far
enough yet, then one lane per query runs from its reaching try to tau.
Once 16 or fewer lanes of either phase run, they finish in the scalar loop,
so a small batch makes all its tries there.  Point queries, advance and
escape_interval integrate directly and never touch the cache.  That cache
is mutable state: a numeric family is not thread-safe, and nothing in
flowfam evaluates concurrently.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .core import (
    CompleteSolution,
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
    "dopri5_step",
    "dopri5_lanes",
    "advance",
    "numeric_family",
    "escape_interval",
    "complete_solution",
]

# Dormand-Prince 5(4) tableau, unrolled into dopri5_step: stage i is taken at
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
_BRACKET_WIDTH = 5e-7  # escape-time bracket, half the 1e-6 contract
_TRAJECTORY_CACHE_SIZE = 128  # trajectories per numeric family, bounded for peak memory
_TAIL_LANES = 16  # at or below this many lanes the scalar loop is cheaper than numpy's per-call cost


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and escape-detection knobs for the adaptive integrator.

    Each knob must be a number, and the window two finite numbers: an
    infinite edge would leave the step loop with no end but max_steps.  A
    bool is refused for each, though Python counts it as an int.
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
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
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

    def __init__(self, kind: str, time: float, message: str = ""):
        super().__init__(message or f"{kind} at t={time}")
        self.kind = kind
        self.time = time


class StepBudgetExceeded(RuntimeError):
    """The integrator took max_steps steps without reaching the target time."""


def dopri5_step(f, t: float, y: tuple, h: float, k1: tuple | None = None):
    """One Dormand-Prince step of size h from (t, y).

    Returns (y5, err, k_last): the 5th-order solution, the embedded error
    estimate (difference of the 5th- and 4th-order solutions, an O(h^5)
    quantity), and the slope at (t+h, y5) for reuse as the next k1.  Every
    component is summed left to right in the tableau's order, in plain
    float arithmetic.
    """
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


def _error_norm(err: tuple, y0: tuple, y1: tuple, cfg: IntegratorConfig) -> float:
    """max_i |e_i| / (abs_tol + rel_tol * max(|y0_i|, |y1_i|))."""
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    return max([abs(e) / (abs_tol + rel_tol * max(abs(a), abs(b))) for e, a, b in zip(err, y0, y1)])


def _classify(t: float, y: tuple, field: VectorField, cfg: IntegratorConfig) -> str | None:
    """Escape kind at an accepted point, or None when the point is fine."""
    if max(map(abs, y)) > cfg.blowup_radius:
        return "blow_up"
    if not field.domain.contains(t, y):
        return "left_domain"
    return None


def _first_try(field: VectorField, rho: float, a: tuple, target: float, cfg: IntegratorConfig, k1=None):
    """Loop state (t, h, steps, y, k1) before the first try from (rho, a) toward target.

    k1, when given, is the slope field(rho, a) already at hand.  Raises
    EvalError when the field cannot be evaluated at (rho, a), which its
    domain may contain all the same.
    """
    direction = 1.0 if target > rho else -1.0
    return rho, direction * min(cfg.h_init, abs(target - rho)), 0, a, field(rho, a) if k1 is None else k1


def _integrate(field: VectorField, rho: float, a: tuple, tau: float, cfg: IntegratorConfig, refine: bool) -> tuple:
    """Drive (rho, a) to time tau; raises EscapeEvent when the solution quits first.

    A start where the field cannot be evaluated raises ValueError.
    """
    if tau == rho:
        return a
    try:
        state = _first_try(field, rho, a, tau, cfg)
    except ex.EvalError as err:
        raise ValueError(f"field cannot be evaluated at the initial condition ({rho}, {list(a)}): {err}") from None
    return _drive(field, tau, cfg, refine, state)


def _drive(field: VectorField, tau: float, cfg: IntegratorConfig, refine: bool, state, record=None):
    """The step loop: make tries from state (t, h, steps, y, k1) until one lands on tau.

    A try's step is clipped at tau when |h| >= |tau - t|.  record, when given,
    sees the state before each try; returning True ends the loop, which then
    returns None.
    """
    t, h, steps, y, k1 = state
    while True:
        if record is not None and record(t, h, steps, y, k1):
            return None
        steps += 1
        if steps > cfg.max_steps:
            raise StepBudgetExceeded(f"integration exceeded {cfg.max_steps} steps at t={t}")
        last = abs(h) >= abs(tau - t)
        if last:
            h = tau - t
        try:
            y_new, err_vec, k_last = dopri5_step(field, t, y, h, k1)
            stage_ok = all(map(math.isfinite, y_new)) and all(map(math.isfinite, err_vec))
        except ex.EvalError:
            stage_ok = False
        if not stage_ok:
            # rhs not evaluable (or overflowed) somewhere inside the step;
            # shrink and retry until the step cannot shrink further
            h *= 0.5
            if abs(h) < cfg.h_min:
                raise EscapeEvent("step_underflow", t)
            continue
        err = _error_norm(err_vec, y, y_new, cfg)
        factor = _FACTOR_MAX if err == 0.0 else min(
            _FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err ** -0.2)
        )
        if err <= 1.0:
            t_new = tau if last else t + h
            kind = _classify(t_new, y_new, field, cfg)
            if kind is not None:
                if refine:
                    t_star, kind = _bisect_escape(field, t, y, t_new, cfg, kind)
                    raise EscapeEvent(kind, t_star)
                raise EscapeEvent(kind, t_new)
            if last:
                return y_new
            t, y, k1 = t_new, y_new, k_last
            h *= factor
            if abs(h) < cfg.h_min:  # keep crawling; only a failed step underflows
                h = math.copysign(cfg.h_min, h)
        else:
            h *= factor
            if abs(h) < cfg.h_min:
                raise EscapeEvent("step_underflow", t)


def _bisect_escape(field: VectorField, t_good: float, y_good: tuple, t_bad: float, cfg: IntegratorConfig,
                   kind: str) -> tuple[float, str]:
    """Bisect the last accepted step down to a 5e-7 bracket around the escape.

    Candidate midpoints are reached by re-integrating from the good end, so
    each probe is as accurate as a normal advance; a probe that escapes on
    the way tightens the bad end instead.
    """
    while abs(t_bad - t_good) > _BRACKET_WIDTH:
        mid = 0.5 * (t_good + t_bad)
        try:
            y_mid = _integrate(field, t_good, y_good, mid, cfg, refine=False)
        except EscapeEvent as ev:
            t_bad, kind = ev.time, ev.kind
            continue
        bad_kind = _classify(mid, y_mid, field, cfg)
        if bad_kind is None:
            t_good, y_good = mid, y_mid
        else:
            t_bad, kind = mid, bad_kind
    return 0.5 * (t_good + t_bad), kind


def dopri5_lanes(f, t: np.ndarray, y: np.ndarray, h: np.ndarray, k1: np.ndarray):
    """dopri5_step over lanes t[m], y[m, n], h[m] and k1[m, n]: (y5, err, k_last, ok).

    f(t[m], x[m, n]) returns (slopes[m, n], ok[m]), a lane form of the
    field.  Each stage sum is a chain of elementwise ufuncs in dopri5_step's
    order, each rounding once, so lane i equals dopri5_step on lane i bit
    for bit wherever ok[i]; ok[i] is False exactly where that call raises
    EvalError or returns a y5 or err that is not finite.
    """
    hc = h[:, None]
    k2, ok2 = f(t + _C2 * h, y + hc * (_A21 * k1))
    k3, ok3 = f(t + _C3 * h, y + hc * (_A31 * k1 + _A32 * k2))
    k4, ok4 = f(t + _C4 * h, y + hc * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5, ok5 = f(t + _C5 * h, y + hc * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6, ok6 = f(t + h, y + hc * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y5 = y + hc * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
    k7, ok7 = f(t + h, y5)
    err = hc * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    ok = ok2 & ok3 & ok4 & ok5 & ok6 & ok7 & np.isfinite(y5).all(axis=1) & np.isfinite(err).all(axis=1)
    return y5, err, k7, ok


def _drive_lanes(field: VectorField, cfg: IntegratorConfig, target: np.ndarray, state, record=None):
    """_drive over lanes: lane i runs the step loop from state i toward target[i], all lanes in step.

    state is (t[m], h[m], steps[m], y[m, n], k1[m, n]).  Each try is one
    dopri5_lanes call over the running lanes, then _drive's step control in
    elementwise form; the step factor takes Python's float ** lane by lane,
    since numpy's power rounds differently.  So every lane makes the tries
    _drive makes and ends as it does.  record, when given, sees (lanes, t,
    h, steps, y, k1) before each try, and a lane then ends before the first
    try whose step reaches its target, as _drive does with a record hook
    that returns True there.  Once at most _TAIL_LANES lanes run, numpy's
    per-call cost outweighs the work and they stop in place; this is the
    one place that chooses between numpy and the scalar loop.

    Returns (landed, values, ends, tail): landed[i] where lane i landed on
    its target, values[i] its state there; ends maps a lane that escaped to
    (kind, time) and one that ran out of steps to the budget message; tail
    lists (lane, state) for the lanes stopped in place, as the loop state
    _drive resumes them from.
    """
    t, h, steps, y, k1 = state
    lanes = np.arange(len(t))
    landed, values, ends = np.zeros(len(t), dtype=bool), np.full(y.shape, math.nan), {}
    with np.errstate(all="ignore"):  # a failed lane carries inf or nan through its stages
        while True:
            last = np.abs(h) >= np.abs(target - t)
            if record is not None:
                record(lanes, t, h, steps, y, k1)
                if last.any():
                    lanes, t, h, steps, y, k1, target = _keep(~last, lanes, t, h, steps, y, k1, target)
                    last = last[~last]
            if len(lanes) <= _TAIL_LANES:
                return landed, values, ends, [(i, _state(t, h, steps, y, k1, k)) for k, i in enumerate(lanes.tolist())]
            steps = steps + 1.0
            over = steps > cfg.max_steps
            if over.any():
                for k in _where(over):
                    ends[int(lanes[k])] = f"integration exceeded {cfg.max_steps} steps at t={float(t[k])}"
                lanes, t, h, steps, y, k1, target, last = _keep(~over, lanes, t, h, steps, y, k1, target, last)
            if record is None:
                h = np.where(last, target - t, h)
            y_new, err_vec, k_last, ok = dopri5_lanes(field.lanes, t, y, h, k1)
            err = (np.abs(err_vec) / (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new)))).max(axis=1)
            err = np.where(ok, err, 1.0)
            accepted = ok & (err <= 1.0)
            t_new = np.where(last, target, t + h)
            # a failed stage halves h; otherwise h takes _drive's factor, in Python floats lane by lane
            h = h * np.array([0.5 if not k else _FACTOR_MAX if e == 0.0 else
                              min(_FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * e ** -0.2))
                              for k, e in zip(ok.tolist(), err.tolist())])
            blow_up = np.abs(y_new).max(axis=1) > cfg.blowup_radius
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


def _keep(mask: np.ndarray, *columns: np.ndarray) -> list:
    return [c[mask] for c in columns]


def _where(mask: np.ndarray) -> list:
    """The indices where mask holds, as a list of ints.

    Built in Python: numpy keeps freed buffers of each small size for reuse,
    so an index array for every count met would stay resident.
    """
    return [k for k, b in enumerate(mask.tolist()) if b] if mask.any() else []


def _state(t: np.ndarray, h: np.ndarray, steps: np.ndarray, y: np.ndarray, k1: np.ndarray, k: int):
    """Lane k of the columns as the scalar loop state (t, h, steps, y, k1) that _drive takes."""
    return float(t[k]), float(h[k]), int(steps[k]), tuple(y[k].tolist()), tuple(k1[k].tolist())


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
    first.  Zero-length requests return a unchanged.  A start outside the
    window or the field's domain, or where the field cannot be evaluated,
    raises ValueError.
    """
    cfg = cfg or IntegratorConfig()
    arr = as_state(a, field.n)
    y = tuple(arr.tolist())
    lo, hi = cfg.window
    if not (lo <= rho <= hi and lo <= tau <= hi):
        raise ValueError(f"times must lie in the window [{lo}, {hi}]")
    if not field.domain.contains(rho, y):
        raise ValueError(f"initial condition ({rho}, {arr}) outside the field domain")
    return as_state(_integrate(field, rho, y, tau, cfg, refine=True), field.n)


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

    def record(self, t: float, h: float, y: tuple, k1: tuple) -> None:
        self.rows.extend((t, h, *y, *k1))

    def first_reaching(self, tau: float) -> int | None:
        """Index of the first row whose step reaches tau (the loop's clipping test)."""
        width = 2 + 2 * self.n
        tries = enumerate(zip(self.rows[::width], self.rows[1::width]))
        return next((j for j, (t, h) in tries if abs(h) >= abs(tau - t)), None)


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

    def _entry(self, key: bytes, sigma: float, a: tuple, edge: float, k1=None) -> _Trajectory:
        """The entry for key, now used last; a new one holds the first try from (sigma, a) toward edge.

        k1, when given, is the slope at (sigma, a).  Raises EvalError, and
        enters nothing, where the field cannot be evaluated at a new start.
        """
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            return entry
        t, h, _, y, k1 = _first_try(self.field, sigma, a, edge, self.cfg, k1)
        entry = self.entries[key] = _Trajectory(self.field.n)
        entry.record(t, h, y, k1)
        if len(self.entries) > _TRAJECTORY_CACHE_SIZE:
            self.entries.popitem(last=False)
        return entry

    def solve_lanes(self, tau: np.ndarray, sigma: np.ndarray, a: np.ndarray, inside: np.ndarray):
        """(values, ok) for lanes (tau, sigma, a), where inside says the start is in the window and domain.

        Each lane is answered as the scalar evaluator answers it once those
        checks pass: a diagonal lane returns its start where the field can
        be evaluated there, and any other lane takes the value of a direct
        integration from its start to its tau.  Phase 2 runs every query,
        one lane each, from its start (see _starts) to its tau.
        """
        values, ok = np.full(a.shape, math.nan), np.zeros(len(tau), dtype=bool)
        lanes, rows = self._starts(tau, sigma, a, inside, values, ok)
        n = self.field.n
        state = (rows[:, 0], rows[:, 1], rows[:, -1], rows[:, 2:2 + n], rows[:, 2 + n:-1])
        landed, reached, _, tail = _drive_lanes(self.field, self.cfg, tau[lanes], state)
        values[lanes[landed]], ok[lanes[landed]] = reached[landed], True
        for q, loop_state in tail:
            try:
                values[lanes[q]] = _drive(self.field, float(tau[lanes[q]]), self.cfg, False, loop_state)
                ok[lanes[q]] = True
            except (EscapeEvent, StepBudgetExceeded):
                pass
        return values, ok

    def _starts(self, tau, sigma, a, inside, values, ok) -> tuple[np.ndarray, np.ndarray]:
        """The lanes that phase 2 runs and their starts, as rows (t, h, y, k1, steps).

        Diagonal lanes get their values and ok here.  The data are looked up
        and entered in the cache in order of first appearance, so the cache
        ends in the state a loop of one-lane batches over the lanes grouped
        by datum leaves, and the step loop makes the same tries.  A query
        starts from the first recorded try that reaches its tau; phase 1
        runs the other data on, one lane per datum, until their farthest
        query is reached.
        """
        groups, inside_l, taus = {}, inside.tolist(), tau.tolist()
        for i, key in enumerate(map(bytes, np.column_stack([sigma, np.where(tau > sigma, 1.0, -1.0), a]))):
            lanes = groups.setdefault(key, [])
            if inside_l[i]:
                lanes.append(i)
        # a datum with an entry was evaluable at its start; the others get their slopes here
        fresh = {lanes[0]: j for j, lanes in enumerate(v for k, v in groups.items() if v and k not in self.entries)}
        if fresh:
            slopes, evaluable = self.field.lanes(sigma[list(fresh)], a[list(fresh)])
        data = []  # (key, head, lanes off the diagonal) of each datum that meets the cache, in order
        for key, lanes in groups.items():
            if not lanes or lanes[0] in fresh and not evaluable[fresh[lanes[0]]]:
                continue  # no lane, or the field cannot be evaluated at the start
            sigma_i, off = float(sigma[lanes[0]]), []
            for i in lanes:
                if taus[i] == sigma_i:
                    values[i], ok[i] = a[i], True
                else:
                    off.append(i)
            if off:
                data.append((key, lanes[0], off))
        lo, hi = self.cfg.window
        width, jobs = 2 + 2 * self.field.n, _Jobs()
        starts = np.full((len(tau), width + 1), math.nan)  # NaN until the lane has a start
        for q, (key, head, lanes) in enumerate(data):
            sigma_i = float(sigma[head])
            slope = tuple(slopes[fresh[head]].tolist()) if head in fresh else None
            # no slope for a datum that had an entry; if this batch pushed it out, _entry evaluates one again
            entry = self._entry(key, sigma_i, tuple(a[head].tolist()), hi if taus[lanes[0]] > sigma_i else lo, slope)
            waiting = []
            for i in lanes:
                j = entry.first_reaching(taus[i])
                if j is not None:
                    starts[i, :width], starts[i, width] = entry.rows[j * width:(j + 1) * width], j
                elif entry.end is None:
                    waiting.append(i)
            if waiting:
                waiting.sort(key=lambda i: abs(taus[i] - sigma_i), reverse=True)
                # the cache keeps the data it meets last, and only they record their tries
                jobs.add(entry if len(data) - q <= _TRAJECTORY_CACHE_SIZE else None, entry, waiting)
        self._run_on_lanes(jobs, taus, starts)
        lanes = np.arange(len(tau))[np.isfinite(starts[:, 0])]
        return lanes, starts[lanes]

    def _run_on_lanes(self, jobs: "_Jobs", taus: list, starts: np.ndarray) -> None:
        """Phase 1: each job's datum runs on from its pending try until its farthest query is reached.

        The entries of kept jobs record the tries and how the loop ends.
        Before each try, every query whose tau the try's step reaches takes
        the loop state as its starts row.  A query the loop never reaches,
        since it escapes or runs out of steps first, keeps its NaN row.
        """
        n, queues, state = self.field.n, jobs.queues, jobs.state(self.field.n)
        pending = state[2]
        kept = np.array([entry is not None for entry in jobs.kept], dtype=bool)
        nearest = np.array([taus[queue[-1]] for queue in queues])
        row_bytes = 8 * (2 + 2 * n)

        def record(lanes, t, h, steps, y, k1):
            new = _where(kept[lanes] & (steps > pending[lanes]))  # a pending try has its row already
            if new:
                rows = np.column_stack([t, h, y, k1]).tobytes()
                for k in new:
                    jobs.kept[int(lanes[k])].rows.frombytes(rows[k * row_bytes:(k + 1) * row_bytes])
            for k in _where(np.abs(h) >= np.abs(nearest[lanes] - t)):
                i = int(lanes[k])
                if _capture(queues[i], taus, _state(t, h, steps, y, k1, k), starts):
                    nearest[i] = taus[queues[i][-1]]

        target = np.array([taus[queue[0]] for queue in queues])
        _, _, ends, tail = _drive_lanes(self.field, self.cfg, target, state, record)
        for i, end in ends.items():
            if jobs.kept[i] is not None:
                jobs.kept[i].end = end
        for i, loop_state in tail:
            self._run_on(jobs.kept[i], queues[i], taus, loop_state, starts)

    def _run_on(self, entry: _Trajectory | None, queue: list, taus: list, state, starts: np.ndarray) -> None:
        """_run_on_lanes for one job, in the scalar loop from state."""
        pending = state[2]

        def record(t, h, steps, y, k1):
            if entry is not None and steps > pending:  # the pending try has its row already
                entry.record(t, h, y, k1)
            return not _capture(queue, taus, (t, h, steps, y, k1), starts)

        try:
            _drive(self.field, taus[queue[0]], self.cfg, False, state, record)
        except EscapeEvent as ev:
            if entry is not None:
                entry.end = (ev.kind, ev.time)
        except StepBudgetExceeded as err:
            if entry is not None:
                entry.end = str(err)


class _Jobs:
    """Phase 1's data: the pending try of each as one flat row, its kept entry or None, its queue.

    A queue lists the lanes of the datum's queries, farthest tau first.  An
    entry the batch pushes out of the cache is not held here, so it is freed
    when it leaves the cache, as in the scalar loop.
    """

    def __init__(self):
        self.rows, self.steps, self.kept, self.queues = array("d"), array("d"), [], []

    def add(self, kept: _Trajectory | None, entry: _Trajectory, queue: list) -> None:
        width = 2 + 2 * entry.n
        self.rows.extend(entry.rows[-width:])
        self.steps.append(len(entry) - 1)
        self.kept.append(kept)
        self.queues.append(queue)

    def state(self, n: int) -> tuple:
        """The pending tries as lane columns (t, h, steps, y, k1)."""
        rows = np.frombuffer(self.rows).reshape(len(self.queues), 2 + 2 * n)
        return rows[:, 0], rows[:, 1], np.frombuffer(self.steps), rows[:, 2:2 + n], rows[:, 2 + n:]


def _capture(queue: list, taus: list, state, starts: np.ndarray) -> bool:
    """Give state to every query at the end of queue whose tau its step reaches; True while queries wait."""
    t, h, steps, y, k1 = state
    while queue and abs(h) >= abs(taus[queue[-1]] - t):
        starts[queue.pop()] = (t, h, *y, *k1, steps)
    return bool(queue)


def numeric_family(field: VectorField, cfg: IntegratorConfig | None = None) -> FlowFamily:
    """Flow family realized by integrating the field on demand.

    Membership of (tau, sigma, a) holds when both parameters sit in the
    window, (sigma, a) is in the field's domain and the field evaluates
    there (on the diagonal too), and integration from sigma to tau
    completes within max_steps without escaping.  Escape refinement
    is skipped here since only the yes/no answer matters, which keeps
    repeated evaluation near the boundary cheap.  tol_hint advertises
    rel_tol so downstream checks can widen comparisons accordingly.

    evaluate integrates each point query directly.  evaluate_batch records
    the step loop's tries from each Cauchy datum (sigma, a) in each
    direction, for the 128 data its batches used last, and answers a lane
    by replaying only the tries from the first one that reaches its tau.
    Both give the bits of a direct integration, whatever was asked before.
    A batch meets the data of its lanes in order of first appearance, and
    runs in two phases over the field's lane form: phase 1 runs each datum
    whose recorded tries do not reach its farthest tau on from its pending
    try, one lane per datum, and phase 2 runs each query, one lane each,
    from the first try that reaches its tau.  Lanes still running once 16
    or fewer are left finish in the scalar loop.  The cache makes the
    family mutable: it is not thread-safe.
    """
    cfg = cfg or IntegratorConfig()
    lo, hi = cfg.window
    trajectories = _TrajectoryCache(field, cfg)

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> tuple:
        if not (lo <= tau <= hi and lo <= sigma <= hi):
            raise DomainViolation("out_of_domain", "parameter outside the integration window")
        y = tuple(a.tolist())
        if not field.domain.contains(sigma, y):
            raise DomainViolation("out_of_domain", f"({sigma}, {a}) outside the field domain")
        try:
            state = _first_try(field, sigma, y, tau, cfg)  # the field must evaluate at the start, on the diagonal too
            return y if tau == sigma else _drive(field, tau, cfg, False, state)
        except EscapeEvent as ev:
            raise DomainViolation(
                "out_of_domain", f"trajectory escapes at t={ev.time} ({ev.kind})"
            ) from None
        except StepBudgetExceeded as err:
            raise DomainViolation("out_of_domain", str(err)) from None
        except ex.EvalError as err:  # the slope at the start; the step loop handles its own
            raise DomainViolation(
                "out_of_domain", f"field cannot be evaluated at ({sigma}, {a}): {err}"
            ) from None

    def batch_evaluator(tau: np.ndarray, sigma: np.ndarray, a: np.ndarray):
        inside = (lo <= tau) & (tau <= hi) & (lo <= sigma) & (sigma <= hi)
        return trajectories.solve_lanes(tau, sigma, a, inside & field.domain.contains_lanes(sigma, a))

    return FlowFamily(
        n=field.n, kind="numeric", evaluator=evaluator, tol_hint=cfg.rel_tol, batch_evaluator=batch_evaluator
    )


def escape_interval(
    field: VectorField, rho: float, a, cfg: IntegratorConfig | None = None
) -> EscapeInterval:
    """Maximal open interval around rho on which the solution through (rho, a) lives.

    Integrates toward each window edge; reaching the edge is reported as
    window_limit (possibly-unbounded directions are never claimed finite),
    anything else carries the refined escape time and its kind.  A start
    outside the window or the field's domain, or where the field cannot be
    evaluated, raises ValueError.
    """
    cfg = cfg or IntegratorConfig()
    arr = as_state(a, field.n)
    y = tuple(arr.tolist())
    lo, hi = cfg.window
    if not lo <= rho <= hi:
        raise ValueError(f"rho must lie in the window [{lo}, {hi}]")
    if not field.domain.contains(rho, y):
        raise ValueError(f"initial condition ({rho}, {arr}) outside the field domain")

    def one_side(edge: float) -> tuple[float, str]:
        if edge == rho:
            return edge, "window_limit"
        try:
            _integrate(field, rho, y, edge, cfg, refine=True)
            return edge, "window_limit"
        except EscapeEvent as ev:
            return ev.time, ev.kind

    lower, lower_kind = one_side(lo)
    upper, upper_kind = one_side(hi)
    return EscapeInterval(lower, upper, lower_kind, upper_kind)


def complete_solution(
    field: VectorField, rho: float, a, cfg: IntegratorConfig | None = None
) -> CompleteSolution:
    """Bundle (rho, a) with its escape interval."""
    return CompleteSolution(rho, as_state(a, field.n), escape_interval(field, rho, a, cfg))
