"""Affine families: Sincov decomposition and the mollifier construction.

An affine family factors through a per-time change of coordinates,

    F_{tau, sigma}(a) = W_tau (W_sigma^{-1} a + h_tau - h_sigma),

with the gauge fixed so W at the base time is the identity and h vanishes
there; W is then the fundamental (Wronski) matrix of the generating linear
field and tau -> W_tau h_tau its particular solution.  For affine
one-parameter groups, averaging the group over a small parameter window
(composite Simpson) yields an invertible mollifier H_eps, and composing a
window average around alpha with H_eps^{-1} reproduces G_alpha up to
quadrature error; the construction smooths a merely-continuous group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainViolation, FlowFamily, as_state, scaled_tol
from .verify import Accumulator, ConditionReport, SamplePlan, lane_gap

__all__ = [
    "AffineMap",
    "SincovDecomposition",
    "Mollifier",
    "NotAffine",
    "NotAffineField",
    "SingularWronskian",
    "NotInvertible",
    "UnusableWindow",
    "probe_affine",
    "affine_defect",
    "check_affine",
    "sincov_decompose",
    "family_from_decomposition",
    "wronski_consistency",
    "mollify",
    "smooth_apply",
    "MAX_PANELS",
]

# scale-invariant rank threshold: smallest singular value must clear this
# fraction of the largest
_SV_RATIO = 1e-12

_MIX_WEIGHTS = (-1.0, 0.5, 2.0)

# the most Simpson panels a window average takes: there the bound
# (2 eps)^5 / (180 panels^4) is below 1e-19 for eps <= pi/2, under rounding
# for unit-scale entries, so more panels would only cost memory
MAX_PANELS = 2**16


class NotAffine(Exception):
    """The family or group is not affine in the state."""


class NotAffineField(Exception):
    """The vector field is not affine in the state."""


class SingularWronskian(Exception):
    """A Wronski matrix failed the rank test."""


class NotInvertible(Exception):
    """The mollifier average is singular; try a smaller window."""


class UnusableWindow(ValueError):
    """An averaging window whose width overflows or rounds away next to its center."""


def _rank_test(M: np.ndarray, floor: float = 0.0) -> tuple[np.ndarray, bool]:
    """M's singular values, and whether the smallest clears _SV_RATIO of max(largest, floor)."""
    sv = np.linalg.svd(M, compute_uv=False)
    return sv, bool(sv[-1] > _SV_RATIO * max(sv[0], floor))


def _check_wronskian(W: np.ndarray, t: float):
    sv, full_rank = _rank_test(W)
    if not full_rank:
        raise SingularWronskian(
            f"W at grid time {t} has singular-value ratio {sv[-1] / sv[0] if sv[0] else 0.0:.3g}"
        )


@dataclass(frozen=True)
class AffineMap:
    """The map a -> A a + b on R^n."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if b.shape != (A.shape[0],):
            raise ValueError("offset length must match the matrix")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("affine map entries must be finite")
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __call__(self, a) -> np.ndarray:
        return self.A @ as_state(a, self.n) + self.b

    def inverse(self) -> "AffineMap":
        sv, full_rank = _rank_test(self.A)
        if not full_rank:
            raise NotInvertible(f"smallest singular value {sv[-1]:.3g} of {sv[0]:.3g}")
        A_inv = np.linalg.inv(self.A)
        return AffineMap(A_inv, -A_inv @ self.b)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: a -> self(other(a))."""
        return AffineMap(self.A @ other.A, self.A @ other.b + self.b)


# --- affinity detection ----------------------------------------------------


def _probe(batch, tau: np.ndarray, sigma: np.ndarray, points: np.ndarray) -> np.ndarray:
    """batch at every point of points[p, n] for every lane (tau[i], sigma[i]), in one call: values[m, p, n].

    Raises DomainViolation naming the first lane with a point outside the domain."""
    m, p = len(tau), len(points)
    values, ok = batch(np.repeat(tau, p), np.repeat(sigma, p), np.tile(points, (m, 1)))
    if not ok.all():
        i = int(np.argmin(ok)) // p
        raise DomainViolation("out_of_domain", f"affine probe at tau={tau[i]}, sigma={sigma[i]} left the domain")
    return values.reshape(m, p, points.shape[1])


def probe_affine(batch, tau: np.ndarray, sigma: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A[m, n, n], b[m, n]) with b[i] = F_i(0) and columns A[i] e_k = F_i(e_k) - F_i(0).

    F_i is lane (tau[i], sigma[i]) of batch(tau[k], sigma[k], x[k, n]) ->
    (values, ok), a lane form such as FlowFamily.evaluate_batch.  (A[i], b[i])
    is the map a -> A a + b that F_i is if F_i is affine, which affine_defect
    tests.  The basis points of all lanes go to one batch call (see _probe).
    """
    values = _probe(batch, tau, sigma, np.vstack([np.zeros(n), np.eye(n)]))
    b = values[:, 0]
    return (values[:, 1:] - b[:, None, :]).transpose(0, 2, 1), b


def affine_defect(batch, tau: np.ndarray, sigma: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each lane's residual at its first probe lam e_k, lam in (-1, 2), where F_i leaves a -> A[i] a + b[i].

    Lanes are read as in probe_affine and probes in (k, lam) order.  A probe
    fails when |F_i(lam e_k) - want| > 1e-9 (1 + |want|), with want = lam
    A[i] e_k + b[i], in the infinity norm; gap[i] is NaN where all hold.  The
    probes of all lanes go to one batch call (see _probe).
    """
    n = A.shape[1]
    lam = np.array([-1.0, 2.0])[:, None]
    got = _probe(batch, tau, sigma, (lam * np.eye(n)[:, None, :]).reshape(2 * n, n))  # lam e_k, (k, lam) order
    columns = A.transpose(0, 2, 1)  # columns[i, k] = A[i] e_k
    want = (lam * columns[:, :, None, :] + b[:, None, None, :]).reshape(got.shape)
    gap = np.abs(got - want).max(axis=-1)
    fails = gap > 1e-9 * (1.0 + np.abs(want).max(axis=-1))
    first = gap[np.arange(len(gap)), np.argmax(fails, axis=1)]
    return np.where(fails.any(axis=1), first, math.nan)


def check_affine(fam: FlowFamily, plan: SamplePlan) -> ConditionReport:
    """Residual of F(la + (1-l)b) = l F(a) + (1-l) F(b) over plan.columns(2, 2), a != b.

    Each sample is a lane per mixing weight l; a lane is a skip unless
    F(la + (1-l)b), F(a) and F(b) all exist.
    """
    (tau, sigma), (a, b) = plan.columns(2, 2)
    keep = np.flatnonzero((a != b).any(axis=1))
    tau, sigma, a, b = tau[keep], sigma[keep], a[keep], b[keep]
    count, weights = len(tau), len(_MIX_WEIGHTS)
    lam = np.array(_MIX_WEIGHTS)[None, :, None]
    mixed = lam * a[:, None, :] + (1.0 - lam) * b[:, None, :]
    values, ok = fam.evaluate_batch(
        np.concatenate([np.repeat(tau, weights), tau, tau]),
        np.concatenate([np.repeat(sigma, weights), sigma, sigma]),
        np.concatenate([mixed.reshape(-1, plan.n), a, b]),
    )
    cuts = [count * weights, count * (weights + 1)]
    (left, f_a, f_b), (left_ok, a_ok, b_ok) = np.split(values, cuts), np.split(ok, cuts)
    right = lam * f_a[:, None, :] + (1.0 - lam) * f_b[:, None, :]
    ok = left_ok.reshape(count, weights) & (a_ok & b_ok)[:, None]

    def witness(i, j):
        return {"tau": float(tau[i]), "sigma": float(sigma[i]), "lambda": _MIX_WEIGHTS[j],
                "a": a[i].tolist(), "b": b[i].tolist()}

    acc = Accumulator()
    acc.lanes(lane_gap(left.reshape(mixed.shape), right), ok, witness)
    return acc.report("affinity", scaled_tol(fam.tol_hint))


# --- Sincov decomposition ---------------------------------------------------


@dataclass(frozen=True)
class SincovDecomposition:
    """Per-time Wronski matrices and offsets, gauge-fixed at tau0.

    W has shape (len(grid), n, n) and h shape (len(grid), n); every W slice
    must pass the rank test.  particular(i) returns W_i h_i, the value of
    the particular solution at grid[i].
    """

    tau0: float
    grid: tuple[float, ...]
    W: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    def __post_init__(self):
        grid = tuple(float(t) for t in self.grid)
        if len(grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(not math.isfinite(t) for t in grid) or not math.isfinite(self.tau0):
            raise ValueError("times must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid times must be strictly increasing")
        W = np.array(self.W, dtype=float)
        h = np.array(self.h, dtype=float)
        if W.ndim != 3 or W.shape[0] != len(grid) or W.shape[1] != W.shape[2]:
            raise ValueError(f"W must be (len(grid), n, n), got {W.shape}")
        if h.shape != (len(grid), W.shape[1]):
            raise ValueError(f"h must be (len(grid), n), got {h.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(h))):
            raise ValueError("decomposition entries must be finite")
        for t, mat in zip(grid, W):
            _check_wronskian(mat, t)
        W.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.W.shape[1]

    def particular(self, i: int) -> np.ndarray:
        return self.W[i] @ self.h[i]


def sincov_decompose(fam: FlowFamily, tau0: float, grid) -> SincovDecomposition:
    """Probe an affine family into Wronski matrices plus offsets.

    W_tau's columns are F_{tau,tau0}(e_k) - F_{tau,tau0}(0) and the
    particular value p(tau) = F_{tau,tau0}(0) gives h_tau = W_tau^{-1}
    p(tau) at each distinct grid time.  It first samples the affinity
    condition on the grid and refuses non-affine families.
    """
    grid = tuple(sorted({float(t) for t in grid}))
    n = fam.n
    basis = [np.zeros(n)] + [e for e in np.eye(n)] + [-e for e in np.eye(n)]
    plan = SamplePlan(
        tuple(sorted(set(grid) | {float(tau0)})),
        tuple(tuple(map(float, s)) for s in basis),
        random_count=0,
    )
    rep = check_affine(fam, plan)
    if not rep.passed:
        raise NotAffine(
            f"affinity residual {rep.max_residual:.3g} exceeds {rep.tolerance:.3g} "
            f"at {rep.worst_case}"
        )
    W, origin = probe_affine(fam.evaluate_batch, np.array(grid), np.full(len(grid), float(tau0)), n)
    h = np.empty((len(grid), n))
    for i, tau in enumerate(grid):
        _check_wronskian(W[i], tau)
        h[i] = np.linalg.solve(W[i], origin[i])
    return SincovDecomposition(tau0=float(tau0), grid=grid, W=W, h=h)


def _interp_stack(grid: np.ndarray, stack: np.ndarray, t: float) -> np.ndarray:
    i = int(np.searchsorted(grid, t)) - 1
    i = min(max(i, 0), len(grid) - 2)
    lo, hi = grid[i], grid[i + 1]
    w = (t - lo) / (hi - lo)
    return (1.0 - w) * stack[i] + w * stack[i + 1]


def family_from_decomposition(dec: SincovDecomposition) -> FlowFamily:
    """Evaluate W_tau(W_sigma^{-1} a + h_tau - h_sigma), interpolating W and h.

    Linear entrywise interpolation between grid times; times outside the
    grid span are out of domain.  The diagonal short-circuits to the
    identity so F_{tt}(a) = a exactly.
    """
    grid = np.asarray(dec.grid, dtype=float)
    lo, hi = grid[0], grid[-1]

    def resolve(t: float) -> tuple[np.ndarray, np.ndarray]:
        return _interp_stack(grid, dec.W, t), _interp_stack(grid, dec.h, t)

    def evaluator(tau: float, sigma: float, a: np.ndarray) -> np.ndarray:
        if not (lo <= tau <= hi and lo <= sigma <= hi):
            raise DomainViolation("out_of_domain", "time outside the decomposition grid span")
        if tau == sigma:
            return a.copy()
        W_tau, h_tau = resolve(tau)
        W_sigma, h_sigma = resolve(sigma)
        if not _rank_test(W_sigma)[1]:
            raise DomainViolation(
                "out_of_domain", f"interpolated Wronski matrix singular at time {sigma}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # FlowFamily rules a non-finite state out
            return W_tau @ (np.linalg.solve(W_sigma, a) + h_tau - h_sigma)

    return FlowFamily(n=dec.n, kind="affine_backed", evaluator=evaluator)


# --- consistency with a generating field ------------------------------------


def _affine_field_parts(fld, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A[m], c[m]) with f(times[i], x) = A[i] x + c[i], by basis probes of fld's lane form; verify affinity."""
    batch, sigma = (lambda t, _, x: fld.lanes(t, x)), np.zeros(len(times))
    try:
        A, c = probe_affine(batch, times, sigma, fld.n)
        gap = affine_defect(batch, times, sigma, A, c)
    except DomainViolation as err:
        raise NotAffineField(f"could not probe the field: {err}") from None
    for t, g in zip(times, gap):
        if not math.isnan(g):
            raise NotAffineField(f"field is not affine in the state at time {t} (residual {g:.3g})")
    return A, c


def wronski_consistency(dec: SincovDecomposition, fld, tol: float = 1e-3) -> ConditionReport:
    """Central-difference check of dW/dtau = A W and d(Wh)/dtau = A(Wh) + c.

    Differentiates the decomposition's grid data at interior grid times and
    compares against the matrix and offset of the affine field there, probed
    in one batch of fld.lanes.  Needs at least three grid times.
    """
    if len(dec.grid) < 3:
        raise ValueError("need at least three grid times for central differences")
    acc = Accumulator()
    grid = np.asarray(dec.grid, dtype=float)
    p = np.array([dec.particular(i) for i in range(len(grid))])
    field_A, field_c = _affine_field_parts(fld, grid[1:-1])
    for i, A, c in zip(range(1, len(grid) - 1), field_A, field_c):
        span = grid[i + 1] - grid[i - 1]
        dW = (dec.W[i + 1] - dec.W[i - 1]) / span
        dp = (p[i + 1] - p[i - 1]) / span
        res_matrix = float(np.max(np.abs(dW - A @ dec.W[i])))
        res_particular = float(np.max(np.abs(dp - (A @ p[i] + c))))
        acc.record(res_matrix, {"time": float(grid[i]), "part": "matrix"})
        acc.record(res_particular, {"time": float(grid[i]), "part": "particular"})
    return acc.report("wronski_consistency", tol)


# --- mollifier ---------------------------------------------------------------


@dataclass(frozen=True)
class Mollifier:
    """Window average H_eps of an affine group, with its quadrature budget.

    error_bound is the composite-Simpson constant (2 eps)^5 / (180 panels^4)
    at unit derivative scale; multiply by the fourth-derivative scale of the
    group's entries for an absolute bound.  panels is even, at least 2 and
    at most MAX_PANELS (2^16), where that bound is below rounding for
    eps <= pi/2, and eps is positive and finite: other values raise
    mollify's ValueError.
    """

    eps: float
    H: AffineMap
    panels: int

    def __post_init__(self):
        _check_window(self.eps, self.panels)

    @property
    def error_bound(self) -> float:
        return (2.0 * self.eps) ** 5 / (180.0 * self.panels**4)


def _check_window(eps: float, panels: int | None = None) -> None:
    """mollify's rules, each broken one a ValueError: eps positive and finite, panels even in [2, MAX_PANELS]."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("window half-width must be positive and finite")
    if panels is not None and not (2 <= panels <= MAX_PANELS and panels % 2 == 0):
        raise ValueError(f"panel count must be even, at least 2 and at most {MAX_PANELS}")


def _window_average(group: FlowFamily, center: float, eps: float, panels: int) -> AffineMap:
    """Composite-Simpson average of G_beta = F_{beta, 0} over [center - eps, center + eps].

    The group must be affine at the window's ends and center, which are
    probed in one batch; the nodes are probed in another, and their A and b
    are averaged side by side.  A window whose width hi - lo is not a
    positive finite float, since it overflows or rounds away next to
    center, raises UnusableWindow (a ValueError) before any probe.
    """
    lo, hi = center - eps, center + eps
    if not 0.0 < hi - lo < math.inf:
        raise UnusableWindow(f"averaging window [{lo!r}, {hi!r}] has no positive finite width")
    batch, ends = group.evaluate_batch, np.array([lo, center, hi])
    gaps = affine_defect(batch, ends, np.zeros(3), *probe_affine(batch, ends, np.zeros(3), group.n))
    for beta, gap in zip(ends, gaps):
        if not math.isnan(gap):
            raise NotAffine(f"group is not affine at parameter {beta} (residual {gap:.3g})")
    _check_window(eps, panels)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    nodes = np.linspace(lo, hi, panels + 1)
    A, b = probe_affine(batch, nodes, np.zeros(len(nodes)), group.n)
    total_A, total_b = weights[0] * A[0], weights[0] * b[0]
    for w, A_x, b_x in zip(weights[1:], A[1:], b[1:]):  # summed node by node, in node order
        total_A, total_b = total_A + w * A_x, total_b + w * b_x
    step = (hi - lo) / panels
    return AffineMap(*(t * (step / 3.0) / (hi - lo) for t in (total_A, total_b)))


def mollify(group: FlowFamily, eps: float, panels: int = 256) -> Mollifier:
    """Average an affine group G_beta = F_{beta, 0} over [-eps, eps] into an invertible map."""
    _check_window(eps)
    H = _window_average(group, 0.0, eps, panels)
    # the average of maps that include the identity lives at unit scale, so
    # anchor the rank floor there: a uniformly tiny H (e.g. a full-turn
    # rotation average) is useless even though its singular values are equal
    sv, full_rank = _rank_test(H.A, floor=1.0)
    if not full_rank:
        raise NotInvertible(
            f"window average is singular (smallest singular value {sv[-1]:.3g}); "
            "shrink the window"
        )
    return Mollifier(eps=float(eps), H=H, panels=int(panels))


def smooth_apply(group: FlowFamily, m: Mollifier, alpha: float) -> AffineMap:
    """Window average around alpha composed with H_eps^{-1}.

    For a continuous affine group this reproduces G_alpha up to quadrature
    error, but it is defined for any group the window can average, which is
    what lets a merely-continuous group be smoothed.
    """
    return _window_average(group, alpha, m.eps, m.panels).compose(m.H.inverse())
