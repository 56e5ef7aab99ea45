"""Shared domain types: states, vector fields, and two-parameter flow families.

A flow family F assigns to parameter pairs (tau, sigma) a partial map on
states, F_{tau sigma}(a), read as "the state at time tau of the solution
passing through a at time sigma".  Families arrive from four sources
(closed-form expressions, numerical integration, one-parameter groups,
affine decompositions) but expose one contract: ``evaluate`` and
``in_domain`` over triples (tau, sigma, a), agreeing with each other
pointwise.  The types here are immutable after construction; a numeric
family (``flowfam.integrate.numeric_family``) holds a mutable trajectory
cache, which serves its batches only (point queries integrate directly),
and is not thread-safe.  Nothing in flowfam evaluates concurrently.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex

__all__ = [
    "DomainViolation",
    "as_state",
    "inf_norm",
    "scaled_tol",
    "DomainSpec",
    "VectorField",
    "FlowFamily",
    "closed_form_family",
    "EscapeInterval",
    "CompleteSolution",
    "solution_value",
    "ESCAPE_KINDS",
]

# endpoint classifications for escape intervals
ESCAPE_KINDS = ("blow_up", "left_domain", "window_limit", "unbounded", "step_underflow")


class DomainViolation(Exception):
    """Evaluation attempted outside a family's domain.

    kind: ``out_of_domain`` (triple not in the domain set K) or
    ``dimension_mismatch`` (state of the wrong length).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def as_state(values, n: int | None = None) -> np.ndarray:
    """Coerce to an immutable float64 state vector, checking finiteness."""
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if n is not None and arr.shape != (n,):
        raise ValueError(f"state has length {arr.shape[0]}, expected {n}")
    if arr.size == 0:
        raise ValueError("state must have at least one component")
    if not all(map(math.isfinite, arr.tolist())):  # a state is short: cheaper than numpy's reduction
        raise ValueError("state components must be finite")
    arr.flags.writeable = False
    return arr


def inf_norm(v) -> float:
    return float(np.abs(np.asarray(v, dtype=float)).max())


def scaled_tol(tol_hint: float) -> float:
    """Default tolerance for a check on a family or group with this tol_hint.

    Exact evaluators are compared at 1e-9; integration-backed ones carry
    their error on both sides of a comparison, so they get 50x the hint.
    """
    return 1e-9 if tol_hint == 0.0 else 50.0 * tol_hint


# ---------------------------------------------------------------------------
# Vector fields and their domains

def _as_expression(e) -> ex.Expression:
    return ex.parse(e) if isinstance(e, str) else e


@dataclass(frozen=True)
class DomainSpec:
    """Open subset of (t, x) space where a vector field is defined.

    Membership = t inside the open time_box AND space_predicate > 0 (when a
    predicate is present).  Strict inequalities keep the set open by
    construction.  The predicate is compiled once, here; its lane form,
    behind contains_lanes, on the first call.
    """

    n: int
    time_box: tuple[float, float] = (-math.inf, math.inf)
    space_predicate: ex.Expression | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        lo, hi = map(float, self.time_box)
        if not lo < hi:
            raise ValueError("time_box must be a non-empty open interval")
        object.__setattr__(self, "time_box", (lo, hi))
        pred = _as_expression(self.space_predicate)
        object.__setattr__(self, "space_predicate", pred)
        object.__setattr__(self, "_predicate", None if pred is None else ex.compile_field(pred, self.n))

    def contains(self, t: float, x) -> bool:
        """Total membership test; evaluation failures count as outside."""
        lo, hi = self.time_box
        if not (lo < t < hi) or not math.isfinite(t):
            return False
        if self._predicate is None:
            return True
        try:
            return self._predicate(t, x) > 0.0
        except ex.EvalError:
            return False

    @functools.cached_property
    def _predicate_lanes(self):
        return None if self.space_predicate is None else ex.compile_field_lanes(self.space_predicate, self.n)

    def contains_lanes(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """contains over lanes (t[m], x[m, n]): a bool mask, lane i equal to contains(t[i], x[i]).

        The predicate's lane kernel is compiled on the first call.
        """
        lo, hi = self.time_box
        inside = (lo < t) & (t < hi) & np.isfinite(t)
        if self._predicate_lanes is not None:
            p, ok = self._predicate_lanes(t, x)
            inside &= ok & (p > 0.0)
        return inside


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, x) of an n-dimensional first-order ODE; compiled once, here.

    lanes is its lane form, which numeric families batch their steps through.
    """

    n: int
    domain: DomainSpec
    rhs: tuple[ex.Expression, ...]

    def __post_init__(self):
        if len(self.rhs) != self.n:
            raise ValueError(f"need {self.n} rhs components, got {len(self.rhs)}")
        if self.domain.n != self.n:
            raise ValueError("domain dimension does not match field dimension")
        object.__setattr__(self, "_rhs", tuple(ex.compile_field(c, self.n) for c in self.rhs))

    @classmethod
    def from_strings(cls, components: Sequence[str], domain: DomainSpec) -> "VectorField":
        return cls(domain.n, domain, tuple(ex.parse(c) for c in components))

    def __call__(self, t: float, x) -> tuple:
        """The slope at (t, x) as a tuple of n floats; x is any sequence of n floats."""
        return tuple([f(t, x) for f in self._rhs])

    @functools.cached_property
    def _rhs_lanes(self):
        return tuple(ex.compile_field_lanes(c, self.n) for c in self.rhs)

    def lanes(self, t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slopes at lanes (t[m], x[m, n]): (values[m, n], ok[m]).

        Where ok[i], values[i] equals self(t[i], x[i]) bit for bit; ok[i] is
        False exactly where that call raises EvalError.  The lane kernels
        are compiled on the first call.
        """
        values, ok = np.empty(x.shape), np.ones(len(t), dtype=bool)
        for k, f in enumerate(self._rhs_lanes):
            values[:, k], k_ok = f(t, x)
            ok &= k_ok
        return values, ok


# ---------------------------------------------------------------------------
# Flow families

@dataclass(frozen=True)
class FlowFamily:
    """Two-parameter family of partial maps on states.

    evaluator(tau, sigma, a) returns the mapped state as a sequence of n
    floats or raises DomainViolation(out_of_domain); a value that is not
    finite is out of the domain too.  Membership is derived from it: true iff
    evaluation succeeds.  tol_hint records the intrinsic accuracy of the
    evaluator (0 means exact up to rounding), which downstream checks use to
    widen their tolerances for integration-backed families.

    batch_evaluator(tau[m], sigma[m], a[m, n]) -> (values[m, n], ok[m]),
    when given, is a lane form of evaluator: values[i] equals evaluator's
    result bit for bit where ok[i], and ok[i] is False exactly where
    evaluator raises an out_of_domain DomainViolation.  Without one,
    evaluate_batch loops over evaluate.
    """

    n: int
    kind: str  # closed_form | numeric | group_backed | affine_backed
    evaluator: Callable[[float, float, np.ndarray], Sequence[float]]
    tol_hint: float = 0.0
    batch_evaluator: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("closed_form", "numeric", "group_backed", "affine_backed"):
            raise ValueError(f"unknown family kind '{self.kind}'")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not (isinstance(self.tol_hint, numbers.Real) and 0 <= self.tol_hint < math.inf):
            raise ValueError("tol_hint must be a finite real >= 0")  # as scaled_tol needs

    def _coerce(self, a) -> np.ndarray:
        arr = np.asarray(a, dtype=float).reshape(-1)
        if arr.shape != (self.n,):
            raise DomainViolation(
                "dimension_mismatch",
                f"state has length {arr.shape[0]}, family dimension is {self.n}",
            )
        if not all(map(math.isfinite, arr.tolist())):
            raise ValueError("state components must be finite")
        return arr

    def _value(self, tau: float, sigma: float, arr: np.ndarray) -> np.ndarray:
        """The evaluator's state at (tau, sigma, arr); a non-finite one is out of the domain."""
        value = np.array(self.evaluator(tau, sigma, arr), dtype=float).reshape(-1)
        if value.shape == (self.n,) and not all(map(math.isfinite, value.tolist())):
            raise DomainViolation("out_of_domain", f"the state at ({tau}, {sigma}, {arr}) is not finite")
        return as_state(value, self.n)

    def evaluate(self, tau: float, sigma: float, a) -> np.ndarray:
        """F_{tau sigma}(a); raises DomainViolation outside the domain set."""
        arr = self._coerce(a)
        if not (math.isfinite(tau) and math.isfinite(sigma)):
            raise ValueError("parameters tau, sigma must be finite")
        return self._value(float(tau), float(sigma), arr)

    def evaluate_batch(self, tau, sigma, a) -> tuple[np.ndarray, np.ndarray]:
        """Lanes (tau[i], sigma[i], a[i]) at once: (values[m, n], ok[m]).

        values[i] is evaluate(tau[i], sigma[i], a[i]) bit for bit where
        ok[i]; ok[i] is False exactly where that call raises an out_of_domain
        DomainViolation, and values[i] is NaN there.  The errors evaluate
        raises for bad input (wrong dimension, non-finite states or
        parameters) are raised for the whole batch, and any other error an
        evaluator raises leaves the batch.
        """
        tau = np.asarray(tau, dtype=float).reshape(-1)
        sigma = np.asarray(sigma, dtype=float).reshape(-1)
        arr = np.asarray(a, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise DomainViolation(
                "dimension_mismatch", f"states have shape {arr.shape}, family dimension is {self.n}"
            )
        if not tau.shape == sigma.shape == arr.shape[:1]:
            raise ValueError("tau, sigma and the states need one lane each")
        if not np.isfinite(arr).all():
            raise ValueError("state components must be finite")
        if not (np.isfinite(tau).all() and np.isfinite(sigma).all()):
            raise ValueError("parameters tau, sigma must be finite")
        if self.batch_evaluator is None:
            values, ok = np.full(arr.shape, math.nan), np.zeros(len(tau), dtype=bool)
            for i in range(len(tau)):
                try:
                    values[i] = self.evaluate(tau[i], sigma[i], arr[i])
                    ok[i] = True
                except DomainViolation as err:
                    if err.kind != "out_of_domain":
                        raise
            return values, ok
        values, ok = self.batch_evaluator(tau, sigma, arr)
        ok &= np.isfinite(values).all(axis=1)  # as evaluate's rule for a non-finite state
        values[~ok] = math.nan
        return values, ok

    def in_domain(self, tau: float, sigma: float, a) -> bool:
        """Total membership test for the triple (tau, sigma, a)."""
        arr = self._coerce(a)  # dimension errors are caller bugs, let them out
        if not (math.isfinite(tau) and math.isfinite(sigma)):
            return False
        try:
            self._value(float(tau), float(sigma), arr)
            return True
        except DomainViolation:
            return False


def closed_form_family(
    n: int,
    components: Sequence,
    predicate=None,
    time_box: tuple[float, float] | None = None,
) -> FlowFamily:
    """Build a family from explicit component expressions over (tau, sigma, a).

    Membership requires tau and sigma inside the open time_box (when given),
    predicate > 0 (when given), and every component to evaluate to a finite
    value (FlowFamily's rule, which an overflowing literal such as 1e400
    breaks); evaluation and membership therefore agree by construction.  The
    lane kernels behind evaluate_batch are compiled on its first call, so
    families that are never batched do not pay for them.
    """
    comps = tuple(_as_expression(c) for c in components)
    if len(comps) != n:
        raise ValueError(f"need {n} components, got {len(comps)}")
    fns = tuple(ex.compile_family(c, n) for c in comps)
    pred_expr = _as_expression(predicate)
    pred = ex.compile_family(pred_expr, n) if pred_expr is not None else None

    @functools.cache
    def lane_kernels():
        kernels = tuple(ex.compile_family_lanes(c, n) for c in comps)
        return kernels, None if pred_expr is None else ex.compile_family_lanes(pred_expr, n)

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> np.ndarray:
        if time_box is not None:
            lo, hi = time_box
            if not (lo < tau < hi and lo < sigma < hi):
                raise DomainViolation("out_of_domain", "parameter outside the family time box")
        try:
            if pred is not None and not pred(tau, sigma, a) > 0.0:
                raise DomainViolation(
                    "out_of_domain", f"domain predicate not positive at ({tau}, {sigma}, {a})"
                )
            return [f(tau, sigma, a) for f in fns]
        except ex.EvalError as err:
            raise DomainViolation("out_of_domain", f"evaluation failed: {err}") from None

    def batch_evaluator(tau: np.ndarray, sigma: np.ndarray, a: np.ndarray):
        kernels, pred_kernel = lane_kernels()
        ok = np.ones(len(tau), dtype=bool)
        if time_box is not None:
            lo, hi = time_box
            ok &= (lo < tau) & (tau < hi) & (lo < sigma) & (sigma < hi)
        if pred_kernel is not None:
            p, p_ok = pred_kernel(tau, sigma, a)
            ok &= p_ok & (p > 0.0)
        values = np.empty(a.shape)
        for k, f in enumerate(kernels):
            values[:, k], k_ok = f(tau, sigma, a)
            ok &= k_ok
        return values, ok

    return FlowFamily(n=n, kind="closed_form", evaluator=evaluator, batch_evaluator=batch_evaluator)


# ---------------------------------------------------------------------------
# Complete solutions and their escape intervals

@dataclass(frozen=True)
class EscapeInterval:
    """Open interval of times on which a complete solution lives.

    Endpoint kinds say why the solution stops there: blow_up (norm ran past
    the radius), left_domain (crossed the boundary of the field's domain),
    window_limit (hit the edge of the configured integration window),
    unbounded (endpoint at infinity), step_underflow (step control collapsed
    before classifying the obstruction).
    """

    lower: float
    upper: float
    lower_kind: str
    upper_kind: str

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("escape interval must satisfy lower < upper")
        for k in (self.lower_kind, self.upper_kind):
            if k not in ESCAPE_KINDS:
                raise ValueError(f"unknown escape kind '{k}'")
        if math.isinf(self.lower) and self.lower_kind != "unbounded":
            raise ValueError("infinite lower endpoint must have kind 'unbounded'")
        if math.isinf(self.upper) and self.upper_kind != "unbounded":
            raise ValueError("infinite upper endpoint must have kind 'unbounded'")

    def contains(self, tau: float) -> bool:
        return self.lower < tau < self.upper


@dataclass(frozen=True)
class CompleteSolution:
    """Solution through state ``a`` at time ``rho``, maximal on ``interval``."""

    rho: float
    a: np.ndarray
    interval: EscapeInterval

    def __post_init__(self):
        object.__setattr__(self, "a", as_state(self.a))
        if not self.interval.contains(self.rho):
            raise ValueError("initial time must lie inside the escape interval")


def solution_value(sol: CompleteSolution, fam: FlowFamily, tau: float) -> np.ndarray:
    """Value of the solution at time tau, via the family map out of (rho, a)."""
    if not sol.interval.contains(tau):
        raise DomainViolation(
            "out_of_domain",
            f"time {tau} outside the solution interval ({sol.interval.lower}, {sol.interval.upper})",
        )
    return fam.evaluate(tau, sol.rho, sol.a)
