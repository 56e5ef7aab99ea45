"""Adaptive Runge-Kutta integration of vector fields into numeric flow families.

The driver is an embedded Dormand-Prince 5(4) pair with the standard
coefficients and mixed-tolerance step control: a step is accepted when the
scaled error norm max_i |e_i| / (abs_tol + rel_tol*max(|y_i|,|y'_i|)) is at
most 1, and the next step is h * clip(0.9 * err^(-1/5), 0.2, 5).  The last
stage is the slope at the accepted point (FSAL), so each accepted step
costs six fresh rhs evaluations.

Integration stops early when the trajectory escapes: norm past the blow-up
radius, domain predicate failing, or the step size collapsing below h_min.
Escape times are bracketed by bisection over the last accepted step, with
candidate points obtained by re-integration from the last good state, and
reported as the bracket midpoint (bracket width 5e-7, comfortably inside
the 1e-6 contract).  Escapes surface as EscapeEvent exceptions; a numeric
FlowFamily translates them into domain membership.

A numeric family keeps a bounded cache of the step loop's tries per Cauchy
datum (sigma, a) and direction, so a query replays only the tries from the
first one that reaches tau.  That cache is mutable state: a numeric family
is not thread-safe, and nothing in flowfam evaluates concurrently.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
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
    inf_norm,
)

__all__ = [
    "IntegratorConfig",
    "EscapeEvent",
    "StepBudgetExceeded",
    "dopri5_step",
    "advance",
    "numeric_family",
    "escape_interval",
    "complete_solution",
]

# Dormand-Prince 5(4) tableau.  _A rows are the stage coupling coefficients,
# row i giving the weights of k_0..k_{i-1}; the 7th stage point coincides
# with the 5th-order solution (FSAL).  _E = b5 - b4 yields the embedded
# error estimate.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_BRACKET_WIDTH = 5e-7  # escape-time bracket, half the 1e-6 contract
_TRAJECTORY_CACHE_SIZE = 128  # trajectories per numeric family, bounded for peak memory


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and escape-detection knobs for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    blowup_radius: float = 1e6
    window: tuple[float, float] = (-50.0, 50.0)
    max_steps: int = 10**6

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not 0 < self.h_min < self.h_init:
            raise ValueError("need 0 < h_min < h_init")
        if not self.blowup_radius > 0:
            raise ValueError("blowup_radius must be positive")
        lo, hi = map(float, self.window)
        if not lo < hi:
            raise ValueError("window must be a nonempty interval")
        object.__setattr__(self, "window", (lo, hi))
        if not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ValueError("max_steps must be an integer >= 1")


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


def dopri5_step(f, t: float, y: np.ndarray, h: float, k1: np.ndarray | None = None):
    """One Dormand-Prince step of size h from (t, y).

    Returns (y5, err, k_last): the 5th-order solution, the embedded error
    estimate (difference of the 5th- and 4th-order solutions, an O(h^5)
    quantity), and the slope at (t+h, y5) for reuse as the next k1.
    """
    k = np.empty((7, y.shape[0]))
    k[0] = f(t, y) if k1 is None else k1
    for i in range(1, 6):
        k[i] = f(t + _C[i] * h, y + h * (_A[i] @ k[:i]))
    y5 = y + h * (_A[6] @ k[:6])
    k[6] = f(t + h, y5)
    return y5, h * (_E @ k), k[6]


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float((np.abs(err) / scale).max())


def _classify(t: float, y: np.ndarray, field: VectorField, cfg: IntegratorConfig) -> str | None:
    """Escape kind at an accepted point, or None when the point is fine."""
    if inf_norm(y) > cfg.blowup_radius:
        return "blow_up"
    if not field.domain.contains(t, y):
        return "left_domain"
    return None


def _first_try(field: VectorField, rho: float, a: np.ndarray, target: float, cfg: IntegratorConfig):
    """Loop state (t, h, steps, y, k1) before the first try from (rho, a) toward target.

    Raises EvalError when the field cannot be evaluated at (rho, a), which
    its domain may contain all the same.
    """
    direction = 1.0 if target > rho else -1.0
    y = a.copy()
    k1 = field(rho, y)
    return rho, direction * min(cfg.h_init, abs(target - rho)), 0, y, k1


def _integrate(
    field: VectorField,
    rho: float,
    a: np.ndarray,
    tau: float,
    cfg: IntegratorConfig,
    refine: bool,
) -> np.ndarray:
    """Drive (rho, a) to time tau; raises EscapeEvent when the solution quits first.

    A start where the field cannot be evaluated raises ValueError.
    """
    if tau == rho:
        return a.copy()
    try:
        state = _first_try(field, rho, a, tau, cfg)
    except ex.EvalError as err:
        raise ValueError(f"field cannot be evaluated at the initial condition ({rho}, {a}): {err}") from None
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
            stage_ok = bool(np.isfinite(y_new).all() and np.isfinite(err_vec).all())
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


def _bisect_escape(
    field: VectorField,
    t_good: float,
    y_good: np.ndarray,
    t_bad: float,
    cfg: IntegratorConfig,
    kind: str,
) -> tuple[float, str]:
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
    lo, hi = cfg.window
    if not (lo <= rho <= hi and lo <= tau <= hi):
        raise ValueError(f"times must lie in the window [{lo}, {hi}]")
    if not field.domain.contains(rho, arr):
        raise ValueError(f"initial condition ({rho}, {arr}) outside the field domain")
    return as_state(_integrate(field, rho, arr, tau, cfg, refine=True), field.n)


class _Trajectory:
    """The step loop's tries from one Cauchy datum toward one window edge.

    Row j holds the loop state (t, h, y, k1) before try j + 1, so j is its
    step count; rows are flat in one array of doubles.  While end is None
    the last row is the next try, not yet made.  Otherwise end says how the
    loop ended: an escape's (kind, time) or the step-budget message.
    Exceptions are rebuilt from these on every query; a stored one would
    keep its traceback's frames alive.
    """

    __slots__ = ("n", "rows", "end")

    def __init__(self, n: int):
        self.n = n
        self.rows = array("d")
        self.end = None

    def __len__(self) -> int:
        return len(self.rows) // (2 + 2 * self.n)

    def record(self, t: float, h: float, y: np.ndarray, k1: np.ndarray) -> None:
        self.rows.append(t)
        self.rows.append(h)
        self.rows.frombytes(y.tobytes())
        self.rows.frombytes(k1.tobytes())

    def state(self, j: int):
        """Row j as the loop state (t, h, steps, y, k1)."""
        width = 2 + 2 * self.n
        row = self.rows[j * width:(j + 1) * width]
        values = np.array(row[2:])
        return row[0], row[1], j, values[:self.n], values[self.n:]

    def first_reaching(self, tau: float) -> int | None:
        """Index of the first row whose step reaches tau (the loop's clipping test)."""
        table = np.frombuffer(self.rows).reshape(-1, 2 + 2 * self.n)
        hits = np.flatnonzero(np.abs(table[:, 1]) >= np.abs(tau - table[:, 0]))
        return int(hits[0]) if hits.size else None


class _TrajectoryCache:
    """LRU map (sigma, direction, a) -> _Trajectory for one numeric family.

    The integration from (sigma, a) to tau makes exactly the tries of the
    loop toward the window edge until the first one whose step reaches tau,
    where it clips the step.  So tau is answered by running the loop from
    that recorded try, and every value, escape and step-budget outcome is
    the one a direct integration gives, whatever was queried before.
    """

    def __init__(self, field: VectorField, cfg: IntegratorConfig):
        self.field = field
        self.cfg = cfg
        self.entries: OrderedDict[bytes, _Trajectory] = OrderedDict()

    def solve(self, tau: float, sigma: float, a: np.ndarray) -> np.ndarray:
        """_integrate(field, sigma, a, tau, cfg, refine=False) for tau != sigma."""
        direction = 1.0 if tau > sigma else -1.0
        lo, hi = self.cfg.window
        edge = hi if direction > 0 else lo
        # one bytes key: compact, and it keeps -0.0 apart from 0.0, which a field may tell apart
        key = array("d", (sigma, direction)).tobytes() + a.tobytes()
        entry = self.entries.get(key)
        if entry is None:
            t, h, _, y, k1 = _first_try(self.field, sigma, a, edge, self.cfg)
            entry = _Trajectory(self.field.n)
            entry.record(t, h, y, k1)
            self.entries[key] = entry
            if len(self.entries) > _TRAJECTORY_CACHE_SIZE:
                self.entries.popitem(last=False)
        else:
            self.entries.move_to_end(key)
        return _drive(self.field, tau, self.cfg, False, self._start(entry, tau, edge))

    def _start(self, entry: _Trajectory, tau: float, edge: float):
        """The state before the first try whose step reaches tau, extending the entry as needed."""
        j = entry.first_reaching(tau)
        if j is not None:
            return entry.state(j)
        if entry.end is None:
            self._extend(entry, tau, edge)
        if entry.end is None:
            return entry.state(len(entry) - 1)
        if isinstance(entry.end, str):
            raise StepBudgetExceeded(entry.end)
        raise EscapeEvent(*entry.end)

    def _extend(self, entry: _Trajectory, tau: float, edge: float) -> None:
        """Make the pending try and the ones after it, toward edge, until one reaches tau."""
        pending = len(entry) - 1

        def record(t, h, steps, y, k1):
            if steps > pending:  # the pending try has its row already
                entry.record(t, h, y, k1)
            return abs(h) >= abs(tau - t)

        try:
            _drive(self.field, edge, self.cfg, False, entry.state(pending), record)
        except EscapeEvent as ev:
            entry.end = (ev.kind, ev.time)
        except StepBudgetExceeded as err:
            entry.end = str(err)


def numeric_family(field: VectorField, cfg: IntegratorConfig | None = None) -> FlowFamily:
    """Flow family realized by integrating the field on demand.

    Membership of (tau, sigma, a) holds when both parameters sit in the
    window, (sigma, a) is in the field's domain and the field evaluates
    there (on the diagonal too), and integration from sigma to tau
    completes within max_steps without escaping.  Escape refinement
    is skipped here since only the yes/no answer matters, which keeps
    repeated evaluation near the boundary cheap.  tol_hint advertises
    rel_tol so downstream checks can widen comparisons accordingly.

    The family records the step loop's tries from each Cauchy datum (sigma,
    a) in each direction, for the 128 data used last, and answers a query by
    replaying only the tries from the first one that reaches tau.  Results
    are bit-identical to integrating each query from scratch and do not
    depend on earlier queries.  The cache makes the family mutable: it is
    not thread-safe.
    """
    cfg = cfg or IntegratorConfig()
    lo, hi = cfg.window
    trajectories = _TrajectoryCache(field, cfg)

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> np.ndarray:
        if not (lo <= tau <= hi and lo <= sigma <= hi):
            raise DomainViolation("out_of_domain", "parameter outside the integration window")
        if not field.domain.contains(sigma, a):
            raise DomainViolation("out_of_domain", f"({sigma}, {a}) outside the field domain")
        try:
            if tau == sigma:
                field(sigma, a)  # the start must be one the field can evaluate, on the diagonal too
                return a.copy()
            return trajectories.solve(tau, sigma, a)
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

    return FlowFamily(n=field.n, kind="numeric", evaluator=evaluator, tol_hint=cfg.rel_tol)


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
    lo, hi = cfg.window
    if not lo <= rho <= hi:
        raise ValueError(f"rho must lie in the window [{lo}, {hi}]")
    if not field.domain.contains(rho, arr):
        raise ValueError(f"initial condition ({rho}, {arr}) outside the field domain")

    def one_side(edge: float) -> tuple[float, str]:
        if edge == rho:
            return edge, "window_limit"
        try:
            _integrate(field, rho, arr, edge, cfg, refine=True)
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
