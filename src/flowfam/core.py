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
]

# endpoint classifications for escape intervals
_ESCAPE_KINDS = ("blow_up", "left_domain", "window_limit", "step_underflow")


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
    construction.  The predicate is validated here and compiled on the
    first call of contains; its lane form on the first call of
    contains_lanes.
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
        if pred is not None:
            ex.validate_field(pred, self.n)

    def contains(self, t: float, x) -> bool:
        """Total membership test; evaluation failures count as outside."""
        lo, hi = self.time_box
        if not lo < t < hi:  # also False for a NaN or infinite t, whatever the box
            return False
        if self._predicate is None:
            return True
        try:
            return self._predicate(t, x) > 0.0
        except ex.EvalError:
            return False

    @functools.cached_property
    def _predicate(self):
        return None if self.space_predicate is None else ex.compile_field(self.space_predicate, self.n)

    @functools.cached_property
    def membership(self) -> ex.Splice:
        """contains as a splice record: lo < s0 < hi, and the predicate's value > 0.0 after its lines, which
        raise the predicate's EvalError (outside, as in contains) and never give NaN."""
        p = ex.Splice((), (), (), (), False, ()) if self.space_predicate is None else ex.splice(self._predicate)
        test = " and ".join(["lo < s0 < hi", *[f"{v} > 0.0" for v in p.results]])
        return ex.Splice(("s0", *[r for r in p.reads if r != "s0"]), ("lo", "hi", *p.names),
                         (*p.lines, f"inside = {test}"), ("inside",), False, (*self.time_box, *p.bound))

    @functools.cached_property
    def _predicate_lanes(self):
        return None if self.space_predicate is None else ex.compile_field_lanes(self.space_predicate, self.n)

    def contains_lanes(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """contains over lanes (t[m], x[m, n]): a bool mask, lane i equal to contains(t[i], x[i]).

        The predicate's lane kernel is compiled on the first call.
        """
        lo, hi = self.time_box
        inside = (lo < t) & (t < hi)
        if self._predicate_lanes is not None:
            p, ok = self._predicate_lanes(t, x)
            inside &= ok & (p > 0.0)
        return inside


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, x) of an n-dimensional first-order ODE, n being its domain's.

    The components are validated here and compiled on first use into two
    functions: slope(t, x), the tuple of n floats, whose statements the step
    loop splices in, and its lane form lanes(t[m], x[m, n]) -> (values[m,
    n], ok[m]), which numeric families batch their steps through: values[i]
    equals slope(t[i], x[i]) bit for bit where ok[i], and ok[i] is False
    exactly where that call raises EvalError.
    """

    domain: DomainSpec
    rhs: tuple[ex.Expression, ...]

    def __post_init__(self):
        if len(self.rhs) != self.n:
            raise ValueError(f"need {self.n} rhs components, got {len(self.rhs)}")
        ex.validate_field(tuple(self.rhs), self.n)

    @classmethod
    def from_strings(cls, components: Sequence[str], domain: DomainSpec) -> "VectorField":
        return cls(domain, tuple(ex.parse(c) for c in components))

    @property
    def n(self) -> int:
        return self.domain.n

    @functools.cached_property
    def slope(self):
        return ex.compile_field(tuple(self.rhs), self.n)

    @functools.cached_property
    def lanes(self):
        return ex.compile_field_lanes(tuple(self.rhs), self.n)


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
        """The evaluator's state at (tau, sigma, arr), as as_state builds it; a non-finite one is out of the domain.

        A state of the wrong length raises as_state's ValueError first.
        """
        value = np.array(self.evaluator(tau, sigma, arr), dtype=float).reshape(-1)
        if value.shape != (self.n,):
            raise ValueError(f"state has length {value.shape[0]}, expected {self.n}")
        if not all(map(math.isfinite, value.tolist())):
            raise DomainViolation("out_of_domain", f"the state at ({tau}, {sigma}, {arr}) is not finite")
        value.flags.writeable = False
        return value

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
) -> FlowFamily:
    """Build a family from explicit component expressions over (tau, sigma, a).

    Membership requires predicate > 0 (when given) and every component to
    evaluate to a finite value (FlowFamily's rule, which an overflowing
    literal such as 1e400 breaks); evaluation and membership therefore agree
    by construction.  The expressions are validated here.  The components,
    as one function, and the predicate are compiled on the first evaluation,
    and their lane forms behind evaluate_batch on its first call, so a family
    pays only for the forms it uses.
    """
    comps = tuple(_as_expression(c) for c in components)
    if len(comps) != n:
        raise ValueError(f"need {n} components, got {len(comps)}")
    ex.validate_family(comps, n)
    pred_expr = _as_expression(predicate)
    if pred_expr is not None:
        ex.validate_family(pred_expr, n)

    @functools.cache
    def scalar_kernels():
        return ex.compile_family(comps, n), None if pred_expr is None else ex.compile_family(pred_expr, n)

    @functools.cache
    def lane_kernels():
        values = ex.compile_family_lanes(comps, n)
        return values, None if pred_expr is None else ex.compile_family_lanes(pred_expr, n)

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> np.ndarray:
        values, pred = scalar_kernels()
        try:
            if pred is not None and not pred(tau, sigma, a) > 0.0:
                raise DomainViolation(
                    "out_of_domain", f"domain predicate not positive at ({tau}, {sigma}, {a})"
                )
            return values(tau, sigma, a)
        except ex.EvalError as err:
            raise DomainViolation("out_of_domain", f"evaluation failed: {err}") from None

    def batch_evaluator(tau: np.ndarray, sigma: np.ndarray, a: np.ndarray):
        values_kernel, pred_kernel = lane_kernels()
        values, ok = values_kernel(tau, sigma, a)
        if pred_kernel is not None:
            p, p_ok = pred_kernel(tau, sigma, a)
            ok &= p_ok & (p > 0.0)
        return values, ok

    return FlowFamily(n=n, kind="closed_form", evaluator=evaluator, batch_evaluator=batch_evaluator)


# ---------------------------------------------------------------------------
# Escape intervals

@dataclass(frozen=True)
class EscapeInterval:
    """Open interval of times on which a complete solution lives, as far as the window shows.

    Both ends are finite.  Endpoint kinds say why the solution stops there:
    blow_up (norm ran past the radius), left_domain (crossed the boundary of
    the field's domain), window_limit (hit the edge of the configured
    integration window, where the solution may live on), step_underflow
    (step control collapsed before classifying the obstruction).
    """

    lower: float
    upper: float
    lower_kind: str
    upper_kind: str

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper) and self.lower < self.upper):
            raise ValueError("escape interval needs finite ends with lower < upper")
        for k in (self.lower_kind, self.upper_kind):
            if k not in _ESCAPE_KINDS:
                raise ValueError(f"unknown escape kind '{k}'")
