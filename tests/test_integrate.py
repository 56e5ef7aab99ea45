"""Adaptive integrator: oracle agreement, escapes, step control, trajectory cache."""

import contextlib
import gc
import json
import math
import random
import tracemalloc
import warnings
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_checks as scalar
from flowfam import catalog, cli, expr, integrate
from flowfam.autonomous import check_group_law
from flowfam.core import DomainSpec, DomainViolation, VectorField
from flowfam.expr import Bin, EvalError, Num, Var
from flowfam.integrate import (
    EscapeEvent,
    IntegratorConfig,
    StepBudgetExceeded,
    advance,
    escape_interval,
    numeric_family,
)
from flowfam.linear import mollify, smooth_apply
from flowfam.reconstruct import ReconstructionConfig, TabulatedVectorField, field_from_family
from flowfam.verify import SamplePlan, default_plan, run_suite

CFG = IntegratorConfig()


@pytest.fixture(scope="module")
def riccati_field():
    return VectorField.from_strings(["x1^2"], DomainSpec(1))


@pytest.fixture(scope="module")
def affine_field():
    return VectorField.from_strings(["x1 + 1"], DomainSpec(1))


def riccati_closed(tau, sigma, a):
    return a / (1.0 + (sigma - tau) * a)


# --- config -----------------------------------------------------------------

def test_config_defaults():
    assert CFG.rel_tol == 1e-10
    assert CFG.abs_tol == 1e-12
    assert CFG.h_init == 1e-3
    assert CFG.h_min == 1e-12
    assert CFG.blowup_radius == 1e6
    assert CFG.window == (-50.0, 50.0)
    assert CFG.max_steps == 10**6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"abs_tol": -1e-9},
        {"h_min": 1e-2},            # h_min must stay below h_init
        {"h_init": 0.0},
        {"blowup_radius": 0.0},
        {"window": (3.0, 3.0)},
        {"max_steps": 0},
        {"window": (-1.0, math.inf)},
        {"window": (-1.0, 1e400)},
        {"window": (math.nan, 1.0)},
        {"window": ("-1", "1")},
        {"window": (-1.0, 0.0, 1.0)},
        {"max_steps": True},        # a bool is an int to Python, and ran as a budget of one step
        {"window": (True, 5.0)},
        {"window": (-1.0, False)},
        # an infinite tolerance, step or radius was accepted and ran
        {"rel_tol": math.inf},
        {"abs_tol": 1e400},
        {"h_init": math.inf},
        {"h_min": math.nan},
        {"blowup_radius": math.inf},
        {"rel_tol": 10**400},       # an integer past every double, which math.isfinite cannot take
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**kwargs)


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "h_init", "h_min", "blowup_radius"])
def test_config_names_a_knob_that_is_not_a_number(key):
    # a string used to reach a comparison and fail with "'>' not supported ..."
    with pytest.raises(ValueError, match=f"^{key} must be a number, got 'abc'$"):
        IntegratorConfig(**{key: "abc"})
    with pytest.raises(ValueError, match=f"^{key} must be a number, got True$"):
        IntegratorConfig(**{key: True})
    with pytest.raises(ValueError, match=f"^{key} must be finite, got inf$"):
        IntegratorConfig(**{key: math.inf})


def test_config_window_may_be_any_pair_of_finite_numbers():
    assert IntegratorConfig(window=np.array([-1, 2])).window == (-1.0, 2.0)
    assert IntegratorConfig(window=[-3, 4.5]).window == (-3.0, 4.5)


# --- one-step order behavior -------------------------------------------------

@pytest.mark.parametrize("t,a,h", [(0.0, 0.5, 0.1), (0.5, -1.0, 0.2), (-1.0, 0.25, 0.1)])
def test_embedded_error_is_order_five(riccati_field, t, a, h):
    # the embedded estimate scales like h^5, so halving h divides it by ~32
    y = np.array([a])
    _, e_full, _ = scalar.dopri5_step(riccati_field.slope, t, y, h)
    _, e_half, _ = scalar.dopri5_step(riccati_field.slope, t, y, h / 2)
    ratio = abs(e_full[0]) / abs(e_half[0])
    assert 24.0 <= ratio <= 40.0


def loop_outcome(drive, field, tau, cfg, refine, state, hooked=True, stop=None):
    """What a step loop makes of state: the float.hex of the rows its hook saw, with their step counts,
    and of the value it returns, or its escape's (kind, time), or its budget message.  The hook ends
    the loop once stop tries are made; without a hook rows is empty."""
    rows = []

    def record(row, steps):
        rows.append([float(v).hex() for v in row] + [steps])
        return steps == stop

    try:
        got = drive(field, tau, cfg, refine, state, record if hooked else None)
        end = None if got is None else [v.hex() for v in got]
    except EscapeEvent as ev:
        end = (ev.kind, ev.time.hex())
    except StepBudgetExceeded as err:
        end = str(err)
    return rows, end


def after_one_try(field, t, y, h, cfg=CFG):
    """The generated driver's row [t, h, *y, *k1] after one try of step h from (t, y), not clipped at tau."""
    rows = []
    integrate._drive(field, t + math.copysign(10.0, h), cfg, False, (t, h, 0, y, field.slope(t, y)),
                     lambda row, steps: rows.append(row) or steps == 1)
    return rows[-1]


def test_fsal_slope_reusable(riccati_field):
    # loose tolerances accept the try: its point and last slope become the next try's y and k1
    t, h, *y1_k = after_one_try(riccati_field, 0.0, (0.5,), 0.1, IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3))
    assert t == 0.1 and tuple(y1_k[1:]) == riccati_field.slope(0.1, tuple(y1_k[:1]))


# float.hex of (y5, err, k_last) for one step from fixed inputs, taken by the
# reference step; the generated try's y5 and k_last are the same.  The step
# sums each stage left to right in plain float arithmetic, so these are the
# same on every IEEE-double machine; a BLAS product that fuses multiply-adds
# moves the error estimate's last bits.
STEP_PINS = [
    (["x1^2"], 0.0, (0.5,), 0.1, [
        ["0x1.0d79435e4cf5bp-1"], ["-0x1.c0e0688accccdp-30"], ["0x1.1ba81104ee9b9p-2"],
    ]),
    (["-x2", "x1"], 0.25, (1.0, -0.5), 0.2, [
        ["0x1.1453a387cbad8p+0", "-0x1.2a5b4f78aad34p-2"],
        ["-0x1.41d612413e667p-23", "-0x1.0a006b8eb999ap-22"],
        ["0x1.2a5b4f78aad34p-2", "0x1.1453a387cbad8p+0"],
    ]),
]


@pytest.mark.parametrize("rhs,t,y,h,pinned", STEP_PINS, ids=["riccati", "rotation"])
def test_step_pinned_bit_for_bit(rhs, t, y, h, pinned):
    field = VectorField.from_strings(rhs, DomainSpec(len(rhs)))
    parts = scalar.dopri5_step(field.slope, t, y, h)
    assert all(type(part) is tuple and all(type(v) is float for v in part) for part in parts)
    assert [[v.hex() for v in part] for part in parts] == pinned
    # the FSAL slope given back as k1 takes the same step
    assert scalar.dopri5_step(field.slope, t, y, h, field.slope(t, y)) == parts
    # the driver, with the rhs spliced in, accepts the try at loose tolerances: y5 and k7 are the next y and k1
    row = after_one_try(field, t, y, h, IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3))
    y5, k7 = row[2:2 + len(rhs)], row[2 + len(rhs):]
    assert all(type(v) is float for v in y5 + k7)
    assert [[v.hex() for v in part] for part in (y5, k7)] == [pinned[0], pinned[2]]


def _hexed(tried):
    """float.hex of a try's (y5, k7, err, y5_norm)."""
    return [[v.hex() for v in part] for part in tried[:2]] + [v.hex() for v in tried[2:]]


def _tried(attempt, f, t, y, h, k1, abs_tol, rel_tol):
    """float.hex of a try's (y5, k7, err, y5_norm), None, or the EvalError it raised."""
    try:
        got = attempt(f, t, y, h, k1, abs_tol, rel_tol)
    except EvalError as err:
        return err
    return None if got is None else _hexed(got)


def _wild_slope(n, rng):
    """A slope function that raises EvalError past a wall, returns inf past an edge, and may
    be scaled so far that the stage sums overflow."""
    wall, edge, scale = rng.uniform(-0.5, 2.0), rng.uniform(-1.0, 3.0), rng.choice([1.0, 1.0, 1e308])

    def f(t, x):
        if x[0] > wall:
            raise EvalError("domain", "past the wall")
        if t > edge:
            return (math.inf,) * n
        return tuple(scale * math.tanh(t * v + i) for i, v in enumerate(x))

    return f


def _coupled_field(n):
    """A field whose every component couples to the next one, with sqrt walls the stages may cross."""
    rhs = [f"sin(t*x{i % n + 1}) - x{i + 1}^2/3 + {i}*x{(i + 1) % n + 1} + sqrt(x{i + 1} + 1.4)" for i in range(n)]
    return VectorField.from_strings(rhs, DomainSpec(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_try_is_the_reference_try_bit_for_bit(n):
    # one try from random states, of the field spliced in or of a slope called at each stage that
    # raises, turns infinite or overflows: the row after it (the try's point and slope, or the same
    # point with the step halved or rescaled) and any escape are the reference loop's bit for bit.
    # The reference try raises, is not finite or is made, each somewhere.
    field = _coupled_field(n)
    rng = random.Random(100 + n)
    seen = set()
    for draw in range(400):
        f = field.slope if draw % 2 else _wild_slope(n, rng)
        t, h = rng.uniform(-2.0, 2.0), rng.uniform(-0.4, 0.4) * 10.0 ** -rng.randrange(4)
        y = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
        cfg = IntegratorConfig(abs_tol=10.0 ** -rng.uniform(6, 14), rel_tol=10.0 ** -rng.uniform(6, 12))
        try:
            k1 = f(t, y)
        except EvalError:
            continue
        subject = field if draw % 2 else SimpleNamespace(n=n, slope=f, domain=DomainSpec(n))
        state, tau = (t, h, 0, y, k1), t + math.copysign(10.0, h)
        got = loop_outcome(integrate._drive, subject, tau, cfg, False, state, stop=1)
        assert got == loop_outcome(scalar.drive, subject, tau, cfg, False, state, stop=1)
        want = _tried(scalar.attempt, f, t, y, h, k1, cfg.abs_tol, cfg.rel_tol)
        seen.add("raises" if isinstance(want, EvalError) else "not finite" if want is None else "tried")
    assert seen == {"raises", "not finite", "tried"}


def _lane_form(slopes):
    """The lane form of one scalar slope function per lane: (slopes[m, n], ok[m]), ok False where one raises.

    A failed lane's slopes are 0.0: a lane form promises nothing there, so only ok may mark the lane.
    """
    def lanes(t, x):
        values, ok = np.zeros(x.shape), np.ones(len(t), dtype=bool)
        for i, (f, t_i, x_i) in enumerate(zip(slopes, t.tolist(), x.tolist())):
            try:
                values[i] = f(t_i, tuple(x_i))
            except EvalError:
                ok[i] = False
        return values, ok

    return lanes


def _lane(tried, i):
    """Lane i of a lane try's (y5, k7, err, y5_norm) as the scalar try returns them."""
    y5, k7, err, y5_norm = tried
    return tuple(y5[i].tolist()), tuple(k7[i].tolist()), float(err[i]), float(y5_norm[i])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_lane_try_is_the_reference_try_lane_by_lane(n):
    # ok is False exactly where the reference try raises or returns None; every other lane
    # gives the reference's (y5, k7, err, y5_norm) bit for bit.  Lanes of a batch share the
    # tolerances, and each has its own slope function, raising, infinite or overflowing.
    field = _coupled_field(n)
    attempt_lanes = integrate._lane_try()
    rng = random.Random(200 + n)
    seen = set()
    for _ in range(10):
        abs_tol, rel_tol = 10.0 ** -rng.uniform(6, 14), 10.0 ** -rng.uniform(6, 12)
        slopes, rows = [], []
        for draw in range(40):
            f = field.slope if draw % 2 else _wild_slope(n, rng)
            t, h = rng.uniform(-2.0, 2.0), rng.uniform(-0.4, 0.4) * 10.0 ** -rng.randrange(4)
            y = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
            try:
                rows.append((t, y, h, f(t, y)))
                slopes.append(f)
            except EvalError:
                continue
        t, y, h, k1 = (np.array(col, dtype=float) for col in zip(*rows))
        with np.errstate(all="ignore"):
            *got, ok = attempt_lanes(_lane_form(slopes), t, y, h, k1, abs_tol, rel_tol)
        m = len(rows)
        assert [part.shape for part in (*got, ok)] == [(m, n), (m, n), (m,), (m,), (m,)] and ok.dtype == bool
        for i, (f, row) in enumerate(zip(slopes, rows)):
            want = _tried(scalar.attempt, f, *row, abs_tol, rel_tol)
            assert bool(ok[i]) == isinstance(want, list)
            if ok[i]:
                assert _hexed(_lane(got, i)) == want
            seen.add("raises" if isinstance(want, EvalError) else "not finite" if want is None else "tried")
    assert seen == {"raises", "not finite", "tried"}


def _failing_at(stage, failure):
    """x -> x*x, except that the stage-th call (k1's is the first) raises EvalError or returns inf."""
    calls = []

    def f(t, x):
        calls.append(t)
        if len(calls) != stage:
            return tuple(v * v for v in x)
        if failure == "raises":
            raise EvalError("domain", "sqrt of negative value")
        return (math.inf,) * len(x)

    return f


@pytest.mark.parametrize("n", [1, 3])
def test_generated_lane_try_marks_a_lane_that_fails_at_one_stage_only(n):
    # each lane but the last fails at one stage alone, by an EvalError or an infinite slope, or its
    # y5 alone overflows (a constant slope keeps the error estimate finite); its other slopes are
    # finite, so only that stage's ok flag or finite check can mark it, as the reference try fails
    makers = [(lambda stage=stage, failure=failure: _failing_at(stage, failure), (0.25,) * n)
              for stage in range(2, 8) for failure in ("raises", "inf")]
    makers.append((lambda: lambda t, x: (1e300,) * n, (1.7976931348623157e308,) * n))
    makers.append((lambda: _failing_at(0, ""), (0.25,) * n))
    slopes = [make() for make, _ in makers]
    rows = [(0.5, y, 0.1, f(0.5, y)) for f, (_, y) in zip(slopes, makers)]  # k1 is each slope's first call
    t, y, h, k1 = (np.array(col, dtype=float) for col in zip(*rows))
    with np.errstate(all="ignore"):
        *got, ok = integrate._lane_try()(_lane_form(slopes), t, y, h, k1, CFG.abs_tol, CFG.rel_tol)
    assert ok.tolist() == [False] * (len(makers) - 1) + [True]
    wants = []
    for make, y0 in makers:
        f = make()
        wants.append(_tried(scalar.attempt, f, 0.5, y0, 0.1, f(0.5, y0), CFG.abs_tol, CFG.rel_tol))
    assert [isinstance(want, list) for want in wants] == ok.tolist()
    assert _hexed(_lane(got, -1)) == wants[-1]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("stage", range(1, 8))
def test_an_eval_error_in_any_stage_propagates_unchanged(n, stage):
    # the reference step lets the error out unchanged; in the driver it reaches the try's one
    # handler from the stage that raised, with no later stage evaluated (k1, the first of the
    # step's seven slopes, is the state's), and the try fails there: the step halves, as the
    # reference loop halves it
    failure = EvalError("domain", "sqrt of negative value")
    calls = []

    def slope(t, x):
        calls.append(t)
        if len(calls) == stage:
            raise failure
        return tuple(v * v for v in x)

    with pytest.raises(EvalError) as exc:
        scalar.dopri5_step(slope, 0.5, (0.25,) * n, 0.1)
    assert exc.value is failure and len(calls) == stage
    if stage == 1:
        return
    field, outcomes = SimpleNamespace(n=n, slope=slope, domain=DomainSpec(n)), []
    for drive in (integrate._drive, scalar.drive):
        calls.clear()
        state = (0.5, 0.1, 0, (0.25,) * n, slope(0.5, (0.25,) * n))  # k1 is the first call
        outcomes.append(loop_outcome(drive, field, 1.5, CFG, False, state, stop=1))
        assert len(calls) == stage
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][-1][:2] == [0.5.hex(), 0.05.hex()]  # the same point, with the step halved


def _tabulated_with_a_hole():
    """x' = 0.5 x - 0.3 t tabulated on [-1, 2] x [-2, 2], with a hole at (0.5, 1.0)."""
    times, knots = np.linspace(-1.0, 2.0, 13), np.linspace(-2.0, 2.0, 17)
    table = (0.5 * knots[None, :] - 0.3 * times[:, None])[..., None]
    table[6, 12, 0] = np.nan
    return TabulatedVectorField(times, [knots], table)


def _tabulated(n, holes):
    """x_k' = 0.6 x_(k+1) - 0.3 t + 0.1 k, indices mod n, tabulated on [-1, 2] x [-2, 2]^n in cells of
    0.25 by 0.5, with holes seeded sites NaN."""
    times, knots = np.linspace(-1.0, 2.0, 13), np.linspace(-2.0, 2.0, 9)
    grid = np.meshgrid(times, *[knots] * n, indexing="ij")
    table = np.stack([0.6 * grid[1 + (k + 1) % n] - 0.3 * grid[0] + 0.1 * k for k in range(n)], axis=-1)
    rng = np.random.default_rng(n)
    for _ in range(holes):
        table[tuple(rng.integers(0, size) for size in table.shape[:-1])] = np.nan
    return lambda: TabulatedVectorField(times, [knots] * n, table)


def _field(rhs, predicate=None):
    return lambda: VectorField.from_strings(rhs, DomainSpec(len(rhs), space_predicate=predicate))


# (field, config, ranges of the starts' times and states) on which the generated driver must be the reference loop:
# every catalog field, domain predicates, rhs that raise partway through a step, each way the loop
# ends, and tabulated fields; the driver runs each rhs or interpolant and each box or predicate itself.
# A compiled predicate raises where it has no finite value, so no predicate is NaN at an accepted point.
TABULATED = IntegratorConfig(window=(-3.0, 3.0), h_init=0.5)
REFERENCE_CASES = {
    **{name: (catalog.get(name).field, CFG, (-1.0, 1.0), (-1.0, 1.0)) for name in catalog.names()},
    "predicate": (_field(["x1^2"], "4 - x1^2"), CFG, (-1.0, 1.0), (-1.5, 1.5)),
    # steps that grow five-fold jump from log(x1) > 0 past x1 = 0, where the predicate raises
    "predicate-raises": (_field(["-1"], "log(x1)"), CFG, (-1.0, 1.0), (1.2, 3.0)),
    # a try that lands on tau = 1 exactly finds the predicate 0.0 there, which is outside
    "predicate-zero": (_field(["x1"], "1 - t"), CFG, (-1.0, 0.9), (-1.0, 1.0)),
    # the solutions x1 = c t leave t > 0 at t = 0 with a finite state
    "predicate-time": (_field(["x1/t"], "t"), CFG, (0.2, 2.0), (-1.0, 1.0)),
    "sqrt-wall": (_field(["sqrt(1 - t) + x1"]), CFG, (-1.0, 0.9), (-1.0, 1.0)),
    "log": (_field(["log(x1)"]), CFG, (-1.0, 1.0), (-1.0, 1.0)),
    "budget": (_field(["x1^2"]), IntegratorConfig(max_steps=40), (-1.0, 1.0), (-1.0, 1.0)),
    # short of a blow-up backward an accepted try's next step falls below h_min: the loop crawls at -h_min
    "crawl": (_field(["x1^2"]), IntegratorConfig(h_init=1e-2, h_min=2e-3, blowup_radius=1e3), (0.0, 1.0), (-2.5, -1.0)),
    "tabulated-hole": (_tabulated_with_a_hole, IntegratorConfig(window=(-3.0, 3.0)), (0.0, 0.25), (0.8, 1.1)),
    # a trajectory leaves the box at its edge, or its first steps grow past the cell beyond it
    # (rejected), or it runs into a hole (step underflow)
    **{f"tabulated-{n}": (_tabulated(n, holes), TABULATED, (-1.0, 2.0), (-1.9, 1.9))
       for n, holes in [(1, 3), (2, 24), (3, 80)]},
    "tabulated-budget": (_tabulated(2, 0), IntegratorConfig(window=(-3.0, 3.0), max_steps=12), (-1.0, 2.0), (-1.9, 1.9)),
}


# the target of a third of the draws: a tabulated field's time box edge, which the closed box holds, or
# the time at which a predicate is 0.0
EDGES = {"predicate-zero": lambda field, rho: 1.0}


def _heard(field, ends):
    """field as the reference loop sees it: each EvalError of its slope is counted in ends, by cause, and
    each membership test where its domain's predicate raises or is 0.0."""
    def slope(t, x):
        try:
            return field.slope(t, x)
        except EvalError as err:
            ends["beyond" if "outside the tabulated box" in str(err) else "hole" if "skipped" in str(err) else "eval"] += 1
            raise

    predicate = getattr(field.domain, "space_predicate", None)
    predicate = predicate and expr.compile_field(predicate, field.n)

    def contains(t, x):
        try:
            ends["zero"] += predicate is not None and predicate(t, x) == 0.0
        except EvalError:
            ends["raises"] += 1
        return field.domain.contains(t, x)

    return SimpleNamespace(n=field.n, domain=SimpleNamespace(contains=contains), slope=slope)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_generated_driver_is_the_reference_loop(name):
    # seeded starts toward seeded taus, some with escape refinement and some ended by their hook: the
    # hooked driver sees the reference's rows and ends as it ends, value for value by float.hex, or by
    # (escape kind, time), or by the budget message, and the hook-free driver ends the same way
    make, cfg, times, states = REFERENCE_CASES[name]
    field, rng, ends = make(), random.Random(name), Counter()
    reference = _heard(field, ends)
    for draw in range(24):
        rho, tau = rng.uniform(*times), rng.uniform(-3.0, 3.0)
        a = tuple(rng.uniform(*states) for _ in range(field.n))
        edge = (isinstance(field, TabulatedVectorField) or name in EDGES) and draw % 3 == 0
        if edge:
            tau = EDGES[name](field, rho) if name in EDGES else field.domain.time_hi if tau > rho else field.domain.time_lo
        try:
            state = scalar.first_try(field, rho, a, tau, cfg)
        except EvalError:
            continue
        refine, stop = draw % 2 == 0, 5 if draw % 5 == 4 else None
        want = loop_outcome(scalar.drive, reference, tau, cfg, refine, state, stop=stop)
        assert loop_outcome(integrate._drive, field, tau, cfg, refine, state, stop=stop) == want
        if stop is None:
            assert loop_outcome(scalar.drive, reference, tau, cfg, refine, state, hooked=False) == ([], want[1])
            assert loop_outcome(integrate._drive, field, tau, cfg, refine, state, hooked=False) == ([], want[1])
        end = want[1]
        kind = ("landed" if isinstance(end, list) else "stopped" if end is None else "budget" if isinstance(end, str)
                else end[0])
        ends[kind] += 1
        ends[kind, refine] += 1
        ends["edge"] += edge and kind == "landed"
        ends["crawled"] += any(abs(float.fromhex(row[1])) == cfg.h_min for row in want[0])
    assert ends["stopped"] and ends["landed"]
    kinds = {"riccati": ["blow_up"], "predicate": ["left_domain"], "sqrt-wall": ["step_underflow"],
             "log": ["step_underflow"], "budget": ["budget"], "crawl": ["crawled"], "tabulated-hole": ["step_underflow"],
             "tabulated-budget": ["budget"], "predicate-raises": ["raises", "left_domain"],
             "predicate-zero": ["zero", ("left_domain", True), ("left_domain", False)],
             "predicate-time": [("left_domain", True), ("left_domain", False)],
             **{f"tabulated-{n}": [("left_domain", True), ("left_domain", False), "beyond", "hole", "step_underflow",
                                   "edge"] for n in (1, 2, 3)}}
    assert all(ends[kind] for kind in kinds.get(name, [])), ends


# (catalog field, config, rho, a, tau, refine): the driver writes abs, the finite test and the clip of
# the step factor as comparisons, which differ from the builtins at -0.0 and NaN only
EDGE_CASES = [
    ("zero", CFG, 0.0, (-0.0,), 2.0, False),  # err is 0.0, so the factor is 5
    ("zero", CFG, 0.0, (-0.0,), -2.0, False),  # backward the error estimate, y and y5 are -0.0
    ("rotation", CFG, 0.0, (-0.0, 0.5), -1.0, True),  # tiny first errors clip the factor at 5
    # near its escape at t = 1 a large step's error clips the factor at 0.2
    ("riccati", IntegratorConfig(h_init=0.5), 0.9, (10.0,), 0.99, False),
    ("riccati", IntegratorConfig(h_init=0.5), 0.0, (1.0,), 3.0, True),
]


def test_generated_driver_is_the_reference_loop_at_the_inline_forms_edges(monkeypatch):
    # the reference takes abs, isfinite, min and max; its error norms show which branches the cases meet
    met, norm = Counter(), scalar.error_norm

    def heard(err, y0, y1, abs_tol, rel_tol):
        value = norm(err, y0, y1, abs_tol, rel_tol)
        met["-0.0"] += any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in (*err, *y0, *y1))
        met["err 0"] += value == 0.0
        met["clip at 0.2"] += value > 0.0 and scalar._SAFETY * value ** -0.2 < scalar._FACTOR_MIN
        met["clip at 5"] += value > 0.0 and scalar._SAFETY * value ** -0.2 > scalar._FACTOR_MAX
        return value

    monkeypatch.setattr(scalar, "error_norm", heard)
    for name, cfg, rho, a, tau, refine in EDGE_CASES:
        field = catalog.get(name).field()
        state = scalar.first_try(field, rho, a, tau, cfg)
        for hooked in (True, False):
            want = loop_outcome(scalar.drive, field, tau, cfg, refine, state, hooked)
            assert loop_outcome(integrate._drive, field, tau, cfg, refine, state, hooked) == want, name
    assert met.keys() == {"-0.0", "err 0", "clip at 0.2", "clip at 5"} and all(met.values()), met


# --- advance ------------------------------------------------------------------

def test_advance_riccati_oracle(riccati_field):
    got = advance(riccati_field, 0.0, [0.5], 1.0, CFG)
    assert abs(got[0] - 1.0) <= 1e-8


def test_advance_zero_length_exact(riccati_field):
    got = advance(riccati_field, 0.0, [0.5], 0.0, CFG)
    assert got[0] == 0.5


def test_advance_on_the_diagonal_needs_an_evaluable_start():
    # sqrt(2 - t) has no value at t = 3: a zero-length request from there fails as a longer one does
    field = VectorField.from_strings(["sqrt(2 - t)"], DomainSpec(1))
    for tau in (3.0, 3.5):
        with pytest.raises(ValueError, match=r"^field cannot be evaluated at the initial condition \(3.0, \[1.0\]\)"):
            advance(field, 3.0, [1.0], tau, CFG)
    assert not numeric_family(field, CFG).in_domain(3.0, 3.0, [1.0])
    assert advance(field, 1.0, [1.0], 1.0, CFG).tolist() == [1.0]


def test_advance_backward(riccati_field):
    got = advance(riccati_field, 1.0, [1.0], 0.0, CFG)
    assert abs(got[0] - riccati_closed(0.0, 1.0, 1.0)) <= 1e-8


def test_advance_blow_up(riccati_field):
    # solution 0.5/(1 - 0.5 t) crosses the 1e6 radius just below t = 2
    with pytest.raises(EscapeEvent) as exc:
        advance(riccati_field, 0.0, [0.5], 3.0, CFG)
    assert exc.value.kind == "blow_up"
    assert abs(exc.value.time - 2.0) <= 1e-3


def test_advance_preconditions(riccati_field):
    with pytest.raises(ValueError):
        advance(riccati_field, 0.0, [0.5], 99.0, CFG)  # target beyond window
    boxed = VectorField.from_strings(["x1"], DomainSpec(1, time_box=(-1.0, 1.0)))
    with pytest.raises(ValueError):
        advance(boxed, 5.0, [0.5], 6.0, CFG)  # start outside the field domain


def test_monotone_escape(riccati_field):
    times = []
    for tau in (2.5, 3.0, 49.0):
        with pytest.raises(EscapeEvent) as exc:
            advance(riccati_field, 0.0, [0.5], tau, CFG)
        times.append(exc.value.time)
    assert max(times) - min(times) <= 1e-6


def test_two_sided_consistency(riccati_field):
    # forward then backward lands within 10x of the integrator tolerance
    for rho, a, tau in [(0.0, 0.5, 1.5), (0.0, -1.0, 1.5), (0.5, 0.25, -1.0)]:
        mid = advance(riccati_field, rho, [a], tau, CFG)
        back = advance(riccati_field, tau, mid, rho, CFG)
        assert abs(back[0] - a) <= 10.0 * (CFG.abs_tol + CFG.rel_tol * abs(a))


def test_halving_tolerances_reduces_error(riccati_field):
    def worst(cfg):
        out = 0.0
        for tau in (-1.0, 0.5, 1.5):
            for sigma in (-1.0, 0.0, 1.0):
                for a in (-1.0, -0.5, 0.25, 0.5):
                    if (tau - sigma) * a < 0.9:
                        got = advance(riccati_field, sigma, [a], tau, cfg)[0]
                        out = max(out, abs(got - riccati_closed(tau, sigma, a)))
        return out

    loose = worst(IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10))
    tight = worst(IntegratorConfig(rel_tol=5e-9, abs_tol=5e-11))
    assert tight < loose


def test_left_domain_time_box():
    boxed = VectorField.from_strings(["x1"], DomainSpec(1, time_box=(-2.0, 2.0)))
    with pytest.raises(EscapeEvent) as exc:
        advance(boxed, 0.0, [1.0], 5.0, IntegratorConfig(window=(-50.0, 50.0)))
    assert exc.value.kind == "left_domain"
    assert abs(exc.value.time - 2.0) <= 1e-3


def test_left_domain_space_predicate():
    # region |x| < 2; the riccati push through (0, 0.5) reaches x = 2 at t = 1.5
    field = VectorField.from_strings(["x1^2"], DomainSpec(1, space_predicate="4 - x1^2"))
    with pytest.raises(EscapeEvent) as exc:
        advance(field, 0.0, [0.5], 3.0, CFG)
    assert exc.value.kind == "left_domain"
    assert abs(exc.value.time - 1.5) <= 1e-3


def test_step_underflow():
    # rhs undefined past t = 2; the step collapses against that wall
    field = VectorField.from_strings(["sqrt(2 - t)"], DomainSpec(1))
    with pytest.raises(EscapeEvent) as exc:
        advance(field, 0.0, [0.0], 3.0, CFG)
    assert exc.value.kind == "step_underflow"
    assert abs(exc.value.time - 2.0) <= 1e-3


def test_max_steps_exhaustion(riccati_field):
    field = VectorField.from_strings(["x1"], DomainSpec(1))
    with pytest.raises(RuntimeError):
        advance(field, 0.0, [1.0], 40.0, IntegratorConfig(max_steps=10))


# --- numeric_family ------------------------------------------------------------

def test_numeric_family_oracle(riccati_field):
    fam = numeric_family(riccati_field, CFG)
    assert abs(fam.evaluate(1.0, 0.0, [0.5])[0] - 1.0) <= 1e-8
    for tau in (-1.0, 0.0, 1.5):
        for sigma in (-0.5, 0.5):
            for a in (-1.0, 0.25, 0.5):
                if (tau - sigma) * a < 0.9:
                    got = fam.evaluate(tau, sigma, [a])[0]
                    assert abs(got - riccati_closed(tau, sigma, a)) <= 1e-8


def test_numeric_family_diagonal(riccati_field):
    fam = numeric_family(riccati_field, CFG)
    for sigma, a in [(0.3, -2.0), (-1.0, 0.7), (0.0, 0.0)]:
        assert abs(fam.evaluate(sigma, sigma, [a])[0] - a) <= 1e-12


def test_numeric_family_affine_oracle(affine_field):
    fam = numeric_family(affine_field, CFG)
    got = fam.evaluate(math.log(2.0), 0.0, [0.0])
    assert abs(got[0] - 1.0) <= 1e-8


def test_numeric_family_membership(riccati_field):
    fam = numeric_family(riccati_field, CFG)
    assert fam.kind == "numeric"
    assert fam.tol_hint == CFG.rel_tol
    assert fam.in_domain(1.0, 0.0, [0.5])
    assert not fam.in_domain(3.0, 0.0, [0.5])  # escapes at 2
    with pytest.raises(DomainViolation) as exc:
        fam.evaluate(3.0, 0.0, [0.5])
    assert exc.value.kind == "out_of_domain"
    assert not fam.in_domain(99.0, 0.0, [0.5])  # outside the window


def test_numeric_family_dimension_mismatch(riccati_field):
    fam = numeric_family(riccati_field, CFG)
    with pytest.raises(DomainViolation) as exc:
        fam.evaluate(1.0, 0.0, [0.5, 0.5])
    assert exc.value.kind == "dimension_mismatch"


def test_numeric_family_two_dimensional():
    rotation = VectorField.from_strings(["-x2", "x1"], DomainSpec(2))
    fam = numeric_family(rotation, CFG)
    got = fam.evaluate(math.pi / 2.0, 0.0, [1.0, 0.0])
    assert np.max(np.abs(got - np.array([0.0, 1.0]))) <= 1e-8


# --- escape_interval -------------------------------------------------------------

def test_escape_interval_riccati(riccati_field):
    j = escape_interval(riccati_field, 0.0, [0.5], CFG)
    assert j.lower == -50.0 and j.lower_kind == "window_limit"
    assert j.upper_kind == "blow_up"
    assert abs(j.upper - 2.0) <= 1e-3


def test_escape_interval_fixed_point(riccati_field):
    j = escape_interval(riccati_field, 0.0, [0.0], CFG)
    assert (j.lower, j.upper) == (-50.0, 50.0)
    assert j.lower_kind == j.upper_kind == "window_limit"


def test_escape_interval_affine(affine_field):
    # forward solution 2 e^t - 1 crosses the 1e6 radius at ln(500000.5) ~= 13.12,
    # well inside the window, so the upper end reports a blow-up; backward the
    # solution decays to -1 and runs out the window edge
    j = escape_interval(affine_field, 0.0, [1.0], CFG)
    assert j.lower == -50.0 and j.lower_kind == "window_limit"
    assert j.upper_kind == "blow_up"
    assert abs(j.upper - math.log(500000.5)) <= 1e-3


def test_escape_interval_left_domain():
    field = VectorField.from_strings(["x1^2"], DomainSpec(1, space_predicate="4 - x1^2"))
    j = escape_interval(field, 0.0, [0.5], CFG)
    assert j.upper_kind == "left_domain"
    assert abs(j.upper - 1.5) <= 1e-3
    assert j.lower == -50.0 and j.lower_kind == "window_limit"


def test_start_where_the_field_cannot_be_evaluated():
    # the domain holds every (t, x), but sqrt(2 - t) has no value at t = 3
    field = VectorField.from_strings(["sqrt(2 - t)"], DomainSpec(1))
    fam = numeric_family(field, CFG)
    assert not fam.in_domain(4.0, 3.0, [0.0])
    with pytest.raises(DomainViolation) as exc:
        fam.evaluate(4.0, 3.0, [0.0])
    assert exc.value.kind == "out_of_domain"
    assert "sqrt of negative value" in str(exc.value)
    assert fam.in_domain(1.0, 0.0, [0.0])  # a start the field reaches stays fine
    with pytest.raises(ValueError, match="field cannot be evaluated at the initial condition"):
        escape_interval(field, 3.0, [0.0], CFG)
    with pytest.raises(ValueError, match="field cannot be evaluated at the initial condition"):
        advance(field, 3.0, [0.0], 4.0, CFG)


def test_unevaluable_start_is_out_of_domain_on_the_diagonal_too():
    # membership must be open: the diagonal cannot hold where both neighbours fail
    fam = numeric_family(VectorField.from_strings(["sqrt(2 - t)"], DomainSpec(1)), CFG)
    assert [fam.in_domain(3.0 + d, 3.0, [0.0]) for d in (-1e-9, 0.0, 1e-9)] == [False] * 3
    with pytest.raises(DomainViolation) as exc:
        fam.evaluate(3.0, 3.0, [0.0])
    assert exc.value.kind == "out_of_domain"
    assert "sqrt of negative value" in str(exc.value)
    assert fam.evaluate(1.0, 1.0, [0.25]).tolist() == [0.25]  # an evaluable start is still exact


@pytest.mark.parametrize(
    "domain, window, reason",
    [
        (DomainSpec(1), (-2.0, 2.0), "integration window"),
        (DomainSpec(1, time_box=(-5.0, 2.5)), (-50.0, 50.0), "initial condition (3.0, [1.0]) outside the field domain"),
        (DomainSpec(1), (-50.0, 50.0), "field cannot be evaluated at the initial condition (3.0, [1.0])"),
    ],
    ids=["outside-window", "outside-domain", "unevaluable"],
)
def test_one_rule_refuses_a_start_in_one_text(domain, window, reason):
    # sqrt(2 - t) started at (3.0, [1.0]): advance toward the lower edge, escape_interval (which
    # goes there first) and a point query there refuse it with the same words
    field, cfg = VectorField.from_strings(["sqrt(2 - t)"], domain), IntegratorConfig(window=window)
    fam, edge = numeric_family(field, cfg), window[0]
    with pytest.raises(ValueError) as by_advance:
        advance(field, 3.0, [1.0], edge, cfg)
    with pytest.raises(ValueError) as by_interval:
        escape_interval(field, 3.0, [1.0], cfg)
    with pytest.raises(DomainViolation) as by_query:
        fam.evaluate(edge, 3.0, [1.0])
    assert reason in str(by_advance.value)
    assert str(by_advance.value) == str(by_interval.value) == str(by_query.value)
    assert by_query.value.kind == "out_of_domain"
    assert fam.evaluate_batch([edge, 3.0], [3.0, 3.0], [[1.0], [1.0]])[1].tolist() == [False, False]


def advance_to(field, rho, a, edge, cfg):
    """(time, kind) of advance from (rho, a) toward edge: the edge and window_limit, or the escape."""
    try:
        advance(field, rho, a, edge, cfg)
        return edge, "window_limit"
    except EscapeEvent as ev:
        return ev.time, ev.kind


@pytest.mark.parametrize(
    "rhs, domain, rho, a, kinds",
    [
        ("x1^2", DomainSpec(1), 0.0, 0.5, ("window_limit", "blow_up")),
        ("x1^2", DomainSpec(1, space_predicate="4 - x1^2"), 0.0, 0.5, ("window_limit", "left_domain")),
        ("sqrt(1 - t)", DomainSpec(1), 0.0, 0.5, ("window_limit", "step_underflow")),
        ("x1^2", DomainSpec(1), -5.0, 0.5, ("window_limit", "blow_up")),
        ("x1^2", DomainSpec(1), 5.0, -0.5, ("blow_up", "window_limit")),
    ],
    ids=["blow-up", "left-domain", "step-underflow", "at-lower-edge", "at-upper-edge"],
)
def test_escape_interval_is_advance_toward_each_edge(monkeypatch, rhs, domain, rho, a, kinds):
    field, cfg = VectorField.from_strings([rhs], domain), IntegratorConfig(window=(-5.0, 5.0))
    steps = count_steps(monkeypatch)
    want = [advance_to(field, rho, [a], edge, cfg) for edge in cfg.window]
    tries = steps()
    j = escape_interval(field, rho, [a], cfg)
    assert [(j.lower, j.lower_kind), (j.upper, j.upper_kind)] == want
    assert (j.lower_kind, j.upper_kind) == kinds
    assert steps() == 2 * tries  # the same tries, one integration toward each edge and its bisection
    if rho in cfg.window:
        assert want[cfg.window.index(rho)] == (rho, "window_limit")  # a start at an edge is that side's diagonal


def test_numpy_times_run_the_loop_on_python_floats():
    # a numpy float64 time would make the driver's sums numpy scalar arithmetic, whose overflow
    # warns: under warnings as errors the try from 1e308 must still end as the escape it is
    field, cfg = VectorField.from_strings(["1e308"], DomainSpec(1)), IntegratorConfig(h_init=1.0, blowup_radius=1e300)
    ends = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, tau in [(0.0, 0.99), (0.0, np.float64(0.99)), (np.float64(0.0), np.float64(0.99))]:
            with pytest.raises(EscapeEvent) as exc:
                advance(field, rho, [1e308], tau, cfg)
            ends.append((exc.value.kind, exc.value.time, type(exc.value.time)))
        intervals = [escape_interval(field, rho, [1e308], cfg) for rho in (0.0, np.float64(0.0))]
    assert ends == [ends[0]] * 3 and ends[0][0] == "blow_up" and ends[0][2] is float
    assert intervals[0] == intervals[1] and intervals[0].upper_kind == "blow_up"


# --- trajectory cache ------------------------------------------------------------

SEAMS = {"_driver": integrate._driver, "_lane_try": integrate._lane_try}


@contextlib.contextmanager
def uncounted():
    """Tries made inside are not counted by count_steps."""
    counted = {name: getattr(integrate, name) for name in SEAMS}
    vars(integrate).update(SEAMS)
    try:
        yield
    finally:
        vars(integrate).update(counted)


def _nothing(*args):
    pass


def spy_on_tries(monkeypatch, spy=_nothing, spy_lanes=_nothing):
    """Call spy(t, h) before every try of the scalar loop from here on, with h before its clip at
    tau, and spy_lanes(f, t, y, h) before every try over lanes.

    Both loops take what they run from integrate._driver and integrate._lane_try once per call, so
    the spies wrap the driver and the lane try they make.  The driver's tries are seen through its
    record hook, which runs before each try, and once more, with no try after it, when the step
    budget ends the loop; a hook of the caller's that ends the loop ends it before a try, too.
    """
    driver, lane_try = integrate._driver, integrate._lane_try

    def spied_driver(field):
        drive, values = driver(field)

        def spied(field, tau, cfg, refine, state, record=None, values=()):
            def hook(row, steps):
                if record is not None and record(row, steps):
                    return True
                if steps < cfg.max_steps:
                    spy(row[0], row[1])
                return False

            return drive(field, tau, cfg, refine, state, hook, values)

        return spied, values

    def spied_lane_try():
        attempt_lanes = lane_try()

        def spied_lanes(f, t, y, h, *rest):
            spy_lanes(f, t, y, h)
            return attempt_lanes(f, t, y, h, *rest)

        return spied_lanes

    monkeypatch.setattr(integrate, "_driver", spied_driver)
    monkeypatch.setattr(integrate, "_lane_try", spied_lane_try)


def count_steps(monkeypatch):
    """Count DP5 tries from here on, one per try of the scalar loop and one per lane of a
    try over lanes; returns the reader."""
    calls = [0]

    def counted(t, h):
        calls[0] += 1

    def counted_lanes(f, t, y, h):
        calls[0] += len(t)

    spy_on_tries(monkeypatch, counted, counted_lanes)
    return lambda: calls[0]


def outcome(fam, tau, sigma, a):
    """evaluate's bytes, or the DomainViolation's kind and message."""
    try:
        return fam.evaluate(tau, sigma, a).tobytes()
    except DomainViolation as err:
        return (err.kind, str(err))


def one_lane(fam, tau, sigma, a):
    """The bytes of a batch of the one lane (tau, sigma, a), or None where it is not ok."""
    values, ok = fam.evaluate_batch([tau], [sigma], [a])
    return values[0].tobytes() if ok[0] else None


def direct(field, tau, sigma, a, cfg=CFG):
    """advance's bytes or failure class: the path that keeps no cache."""
    try:
        return advance(field, sigma, a, tau, cfg).tobytes()
    except EscapeEvent:
        return "escape"
    except StepBudgetExceeded:
        return "budget"


ROTATION = VectorField.from_strings(["-x2", "x1"], DomainSpec(2))


@settings(max_examples=20, deadline=None)
@given(
    rhs=st.sampled_from([("x1^2",), ("-x2", "x1")]),
    times=st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=3, unique=True),
    states=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2, unique=True),
    order=st.randoms(use_true_random=False),
)
def test_cache_answers_do_not_depend_on_query_order(rhs, times, states, order):
    field = VectorField.from_strings(list(rhs), DomainSpec(len(rhs)))
    triples = [(tau, sigma, [s] * field.n) for tau in times for sigma in times for s in states]
    warm = numeric_family(field, CFG)
    for tau, sigma, a in triples:
        one_lane(warm, tau, sigma, a)
    cold = numeric_family(field, CFG)
    order.shuffle(triples)
    for tau, sigma, a in triples:
        got = one_lane(cold, tau, sigma, a)
        assert one_lane(warm, tau, sigma, a) == got
        assert warm.in_domain(tau, sigma, a) == cold.in_domain(tau, sigma, a) == (got is not None)
        ref = direct(field, tau, sigma, a)
        if got is not None:
            assert got == outcome(cold, tau, sigma, a) == ref
        else:
            assert ref in ("escape", "budget")


def test_step_rejected_at_the_clipped_size(monkeypatch):
    # x' = tanh(50 (t - 1)) turns sharply at t = 1: from (0, 0) the loop tries
    # h ~ 0.93 at t = 0.781 and is rejected, so tau = 1.7 clips that recorded
    # try to ~0.92, is rejected again and walks on with smaller steps
    field = VectorField.from_strings(["tanh(50*(t - 1))"], DomainSpec(1))
    fam = numeric_family(field, CFG)
    one_lane(fam, 3.0, 0.0, [0.0])  # records the tries to t = 3
    steps = count_steps(monkeypatch)
    got = one_lane(fam, 1.7, 0.0, [0.0])
    replayed = steps()
    one_lane(numeric_family(field, CFG), 1.7, 0.0, [0.0])
    assert 1 < replayed < steps() - replayed
    assert got == advance(field, 0.0, [0.0], 1.7, CFG).tobytes()


def test_escape_replayed_from_the_cache(monkeypatch, riccati_field):
    fam = numeric_family(riccati_field, CFG)
    assert one_lane(fam, 3.0, 0.0, [0.5]) is None  # records the blow-up near t = 2
    reason = outcome(fam, 3.0, 0.0, [0.5])
    assert reason[0] == "out_of_domain" and "(blow_up)" in reason[1]
    steps = count_steps(monkeypatch)
    for tau in (2.5, 49.0, 3.0):  # past the blow-up: the recorded escape, with no try made
        assert one_lane(fam, tau, 0.0, [0.5]) is None
    assert steps() == 0
    for tau in (2.5, 49.0, 3.0):
        assert one_lane(numeric_family(riccati_field, CFG), tau, 0.0, [0.5]) is None
    assert one_lane(fam, 1.9, 0.0, [0.5]) == advance(riccati_field, 0.0, [0.5], 1.9, CFG).tobytes()


def test_step_budget_reached_through_the_cache(monkeypatch):
    field = VectorField.from_strings(["x1"], DomainSpec(1))
    cfg = IntegratorConfig(max_steps=10)
    fam = numeric_family(field, cfg)
    assert one_lane(fam, 40.0, 0.0, [1.0]) is None  # records the tries up to the budget
    reason = outcome(fam, 40.0, 0.0, [1.0])
    assert reason[0] == "out_of_domain" and "exceeded 10 steps" in reason[1]
    t_out = float(reason[1].rsplit("t=", 1)[1])  # where the 11th try would start
    steps = count_steps(monkeypatch)
    for tau in (39.0, 40.0):  # past the budget: the recorded end, with no try made
        assert one_lane(fam, tau, 0.0, [1.0]) is None
    assert steps() == 0
    for tau in (39.0, 40.0, t_out, t_out - 1e-9, 0.3):  # t_out is the 10th try's reach
        got = one_lane(fam, tau, 0.0, [1.0])
        assert got == one_lane(numeric_family(field, cfg), tau, 0.0, [1.0])
        ref = direct(field, tau, 0.0, [1.0], cfg)
        assert got == (None if ref == "budget" else ref)
    assert direct(field, t_out, 0.0, [1.0], cfg) != "budget"


def test_cache_keeps_the_128_data_used_last(monkeypatch):
    fam = numeric_family(ROTATION, CFG)
    steps = count_steps(monkeypatch)

    def cost(a):
        before = steps()
        one_lane(fam, 1.0, 0.0, a)
        return steps() - before

    cold = cost([1.0, 0.0])
    assert cold > 10 and cost([1.0, 0.0]) == 1  # a hit replays one clipped try
    others = iter([[2.0 + k / 1000, 0.0] for k in range(255)])
    for _ in range(127):
        cost(next(others))
    assert cost([1.0, 0.0]) == 1  # 128 data: still cached, now used last
    for _ in range(128):
        cost(next(others))
    assert cost([1.0, 0.0]) == cold  # 128 newer data pushed it out


def test_a_small_batch_builds_no_lane_form():
    # as many lanes as the lane/scalar split run in the scalar loop, phase 1 and phase 2 alike, so
    # the batch never asks the field or its domain for a lane form; it answers as the point queries do
    field, rng, lanes = catalog.get("rotation").field(), random.Random(13), []
    for _ in range(integrate._TAIL_LANES // 4):
        sigma, a = rng.uniform(-1.0, 1.0), [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
        lanes += [(tau, sigma, a) for tau in (sigma, sigma + rng.uniform(0.1, 2.0), sigma - 0.5, 60.0)]
    values, ok = numeric_family(field, CFG).evaluate_batch(*(np.array(col, dtype=float) for col in zip(*lanes)))
    assert "lanes" not in vars(field) and "_predicate_lanes" not in vars(field.domain)
    want = [outcome(numeric_family(field, CFG), *lane) for lane in lanes]
    assert_batch_is(want, values, ok)
    assert len(lanes) == integrate._TAIL_LANES and ok.sum() == 3 * len(lanes) // 4


def test_each_new_datum_asks_the_start_rule_once(monkeypatch):
    # each datum meets the batch in both directions, so as two cached data; the second batch's
    # 260 new ones push the first batch's 10 out of the cache before it meets them again, so
    # they take the rule again, once each; the third batch finds all 10 cached
    field, rng = VectorField.from_strings(["0.3*x1 + t"], DomainSpec(1)), random.Random(21)
    old = [(rng.uniform(-1.0, 0.5), rng.uniform(-1.0, 1.0)) for _ in range(5)]
    new = [(rng.uniform(-1.0, 0.5), rng.uniform(-1.0, 1.0)) for _ in range(130)]
    fam, asked, start = numeric_family(field, CFG), [], integrate._start

    def counted(*args):
        asked.append(args[1:3])
        return start(*args)

    def batch(data):
        lanes = [(sigma + d, sigma, [a]) for sigma, a in data for d in (0.4, 1.3, 0.0, -0.2)]
        del asked[:]
        values, ok = fam.evaluate_batch(*(np.array(col, dtype=float) for col in zip(*lanes)))
        return lanes, values, ok, list(asked)

    monkeypatch.setattr(integrate, "_start", counted)
    assert batch(old)[3] == [(sigma, (a,)) for sigma, a in old for _ in range(2)]
    lanes, values, ok, again = batch(new + old)
    assert again == [(sigma, (a,)) for sigma, a in new + old for _ in range(2)]
    assert_batch_is([outcome(numeric_family(field, CFG), *lane) for lane in lanes], values, ok)
    assert batch(old)[3] == []


@settings(max_examples=15, deadline=None)
@given(
    rhs=st.sampled_from([("x1^2",), ("-x2", "x1")]),
    points=st.lists(st.tuples(st.floats(-1.0, 2.5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=6),
)
def test_point_queries_leave_the_cache_untouched(rhs, points):
    # the batch queries some of the points' data, so a cache they fed would save tries
    field = VectorField.from_strings(list(rhs), DomainSpec(len(rhs)))
    states = [[a] * field.n for _, _, a in points] + [[0.5] * field.n]
    sigmas = [sigma for _, sigma, _ in points] + [0.0]
    batch = (np.array([1.5] * len(sigmas)), np.array(sigmas), np.array(states))
    with pytest.MonkeyPatch.context() as monkeypatch:
        steps = count_steps(monkeypatch)
        cold = numeric_family(field, CFG).evaluate_batch(*batch)
        cold_steps = steps()
        fam = numeric_family(field, CFG)
        for (tau, sigma, _), a in zip(points, states):
            fam.in_domain(tau, sigma, a)
            fam.in_domain(1.5, sigma, a)
        before = steps()
        values, ok = fam.evaluate_batch(*batch)
        assert steps() - before == cold_steps
    assert ok.tolist() == cold[1].tolist() and values.tobytes() == cold[0].tobytes()


def test_dropped_family_frees_its_field():
    # reference counting alone must free it: an escape or budget message kept
    # as an exception would hold its traceback's frames, and the field, in a cycle.
    # Its compiled slope goes with it, and with the slope its entry in expr's statements
    field = VectorField.from_strings(["x1^2"], DomainSpec(1))
    ref, slope = weakref.ref(field), weakref.ref(field.slope)
    gc.disable()
    try:
        # riccati from (0, 0.5) blows up near t = 2 (an escape), or runs out
        # of 50 steps first (the budget); the second batch replays the end
        for cfg in (CFG, IntegratorConfig(max_steps=50)):
            fam = numeric_family(field, cfg)
            assert one_lane(fam, 1.0, 0.0, [0.5]) is not None
            assert one_lane(fam, 3.0, 0.0, [0.5]) is None
            assert one_lane(fam, 3.0, 0.0, [0.5]) is None
            assert not fam.in_domain(3.0, 0.0, [0.5])
            del fam
        del field
        assert ref() is None and slope() is None
    finally:
        gc.enable()


def test_dropped_tabulated_family_frees_its_field_and_table():
    # the knot lists and table (a memoryview) that the driver splices in are held by the slope's
    # splice record, which expr's weak map keeps only while the slope lives, and by each driver
    # made for a call, which the call drops; the code cache keeps no bound value
    fam = catalog.get("riccati").family()
    plan = SamplePlan(tuple(np.linspace(-0.5, 0.5, 6)), tuple((v,) for v in np.linspace(-0.5, 0.5, 6)), random_count=0)
    field = field_from_family(fam, ReconstructionConfig(grid=plan))
    refs = [weakref.ref(field), weakref.ref(field.table)]
    gc.disable()
    try:
        rebuilt = numeric_family(field, IntegratorConfig(window=(-0.5, 0.5)))
        assert rebuilt.in_domain(0.4, 0.0, [0.2]) and not rebuilt.in_domain(0.4, 0.0, [0.6])
        values, ok = rebuilt.evaluate_batch([0.4, -0.3, 0.4] * 7, [0.0, 0.1, 0.2] * 7, [[0.2], [-0.1], [0.6]] * 7)
        assert ok.tolist() == [True, True, False] * 7
        del rebuilt, field, values
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _compiled(monkeypatch):
    """The names of what the one compile site, expr.build, compiles from here on, into an empty code
    cache; returns the reader."""
    names = []

    def counting(source, filename, mode):
        names.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", counting, raising=False)  # read before the builtin
    monkeypatch.setattr(expr, "_CODE", {})
    return lambda: list(names)


def test_fields_with_one_rhs_share_one_driver_built_at_their_first_try(monkeypatch):
    rhs = ["x1^3 - 0.7134597*t"]
    compiled = _compiled(monkeypatch)
    first, second = (numeric_family(VectorField.from_strings(rhs, DomainSpec(1))) for _ in range(2))
    assert first.evaluate(0.0, 0.0, [0.3]).tolist() == [0.3] and "<flowfam drive>" not in compiled()  # no try yet
    got = first.evaluate(0.5, 0.0, [0.3])
    assert compiled().count("<flowfam drive>") == 1
    before = compiled()
    assert second.evaluate(0.5, 0.0, [0.3]).tobytes() == got.tobytes() and compiled() == before


def test_a_bound_literal_reaches_the_driver_by_its_bits():
    # x1 * 0.0 and x1 * (-0.0) differ in sign, though 0.0 == -0.0: the fields share the driver's code,
    # and each driver binds its own literal, so k7, the next try's k1, keeps the sign
    fields = [VectorField(DomainSpec(1), (Bin("*", Var("x1"), Num(zero)),)) for zero in (0.0, -0.0)]
    assert integrate._driver(fields[0])[0].__code__ is integrate._driver(fields[1])[0].__code__
    assert [after_one_try(field, 0.0, (1.0,), 0.1)[3].hex() for field in fields] == ["0x0.0p+0", "-0x0.0p+0"]


def test_a_second_verify_compiles_nothing(monkeypatch, tmp_path, capsys):
    # expression kernels, drivers, the lane try and a predicate's splice all come from the code cache
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": {"field": {"n": 1, "rhs": ["x1^2"], "domain": {"time": [-3, 3], "predicate": "4 - x1^2"}}},
        "plan": {"time_grid": [-0.5, 0.0, 0.5], "state_grid": [[-0.3], [0.0], [0.3]], "random_count": 3, "seed": 42},
    }))
    compiled = _compiled(monkeypatch)
    argv = ["verify", "--config", str(config), "--no-timestamp"]
    assert cli.main(argv) == 0
    first, report = compiled(), capsys.readouterr().out
    assert {"<flowfam drive>", "<flowfam attempt_lanes>", "<flowfam generated>"} <= set(first)
    assert cli.main(argv) == 0
    assert compiled() == first and capsys.readouterr().out == report


def test_one_dimensional_fields_share_one_lane_try(monkeypatch):
    fields = [catalog.get(name).field() for name in ("riccati", "exp_scalar", "affine_scalar", "zero")]
    knots = np.linspace(-1.0, 1.0, 5)
    fields.append(TabulatedVectorField(knots, [knots], np.zeros((5, 5, 1))))
    lane_try, codes = integrate._lane_try, set()

    def spied():
        attempt_lanes = lane_try()
        codes.add(attempt_lanes.__code__)
        return attempt_lanes

    monkeypatch.setattr(integrate, "_lane_try", spied)
    for field in fields:
        sigma = np.linspace(-0.5, 0.5, 40)
        _, ok = numeric_family(field).evaluate_batch(sigma + 0.3, sigma, np.full((40, 1), 0.2))
        assert ok.all()
    assert len(codes) == 1


def test_the_code_cache_keeps_its_bound(monkeypatch):
    compiled = _compiled(monkeypatch)
    for k in range(expr._CODE_SIZE + 10):
        expr.compile_field(expr.parse("x1" + " + x1" * k), 1)
    assert len(compiled()) == expr._CODE_SIZE + 10 and len(expr._CODE) == expr._CODE_SIZE


def test_renaming_leaves_string_literals_alone():
    line = "raise EvalError('domain', 'query %s outside the tabulated box' % c0)"
    assert integrate._renamed(line) == "raise f_EvalError('domain', 'query %s outside the tabulated box' % f_c0)"
    # an f-string keeps its text; its fields' names are separate tokens from Python 3.12 on, renamed there only
    got = integrate._renamed("""v = f'query {c0} outside' + "x y" if not ok else 'domain'""")
    assert got.startswith("f_v = f'query {") and got.endswith("""} outside' + "x y" if not f_ok else 'domain'""")


def test_a_tabulated_driver_compiles_within_twice_the_peak_of_riccatis():
    # the interpolant is one local function of the driver: a copy at each of the six stages
    # read 3.5 times riccati's compile peak
    def peak(field):
        source = integrate._drive_source(field.n, expr.splice(field.slope), expr.splice(field.domain))
        tracemalloc.start()
        try:
            compile(source, "<peak>", "exec")  # afresh, past the code cache
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    knots = np.array([0.0, 1.0])
    assert peak(TabulatedVectorField(knots, [knots], np.zeros((2, 2, 1)))) <= 2 * peak(catalog.get("riccati").field())


def bench_plan_steps(monkeypatch, name):
    """DP5 tries of the suite on the benchmark's verify-numeric plan for a catalog field."""
    field = catalog.get(name).field()
    plan = SamplePlan((-0.2, 0.0, 0.2), default_plan(field.n).state_grid, random_count=2)
    steps = count_steps(monkeypatch)
    assert run_suite(numeric_family(field), plan).passed
    return steps()


def test_default_plan_shape_step_count(monkeypatch):
    # rotation: 18,305 steps when every query integrates from scratch; a lane step counts once per lane
    assert bench_plan_steps(monkeypatch, "rotation") == 8_034


def test_default_plan_shape_step_count_riccati(monkeypatch):
    # the count of a loop of evaluate over lanes grouped by datum, which the lane driver repeats
    assert bench_plan_steps(monkeypatch, "riccati") == 2_860


@pytest.mark.parametrize("name, tries", [("rotation", 128_302), ("riccati", 71_389)])
def test_cli_default_plan_step_count(monkeypatch, name, tries):
    # the suite flowfam verify runs on a catalog field with no plan in its config
    field = catalog.get(name).field()
    steps = count_steps(monkeypatch)
    assert run_suite(numeric_family(field), default_plan(field.n)).passed
    assert steps() == tries


@pytest.mark.parametrize("name, tries", [("riccati", 6_180), ("rotation", 7_759)])
def test_numeric_group_law_step_count(monkeypatch, name, tries):
    # the group's batches share trajectories through the cache; probe by probe the law makes
    # 19,067 tries on riccati and 29,378 on rotation
    field = catalog.get(name).field()
    steps = count_steps(monkeypatch)
    assert check_group_law(numeric_family(field), default_plan(field.n)).passed
    assert steps() == tries


def test_numeric_mollifier_step_count(monkeypatch):
    # each window's ends and centre are one probe batch and one defect batch, and its Simpson
    # nodes one more; probe by probe they make 14,286 tries, and a scalar check at the ends 2,053
    group = numeric_family(ROTATION)
    steps = count_steps(monkeypatch)
    smooth_apply(group, mollify(group, 0.25), 0.3)
    assert steps() == 1_786


def test_batch_equals_a_loop_of_evaluate_on_shuffled_lanes():
    # x' = x^2 inside x < 2, over the window (-5, 5) and 25 steps: lanes outside the window,
    # starts outside the field's domain, escapes, budget overruns, and signed zeros, which the
    # cache key keeps apart (a diagonal lane returns its start, sign and all)
    field = VectorField.from_strings(["x1^2"], DomainSpec(1, space_predicate="2 - x1"))
    cfg = IntegratorConfig(window=(-5.0, 5.0), max_steps=25)
    times = (-6.0, -4.9, -0.0, 0.0, 0.3, 1.5, 4.9)
    lanes = [(tau, sigma, [a]) for tau in times for sigma in times[1:-1] for a in (-0.4, -0.0, 0.0, 0.5, 1.5, 3.0)]
    random.Random(11).shuffle(lanes)
    loop = numeric_family(field, cfg)
    want = [outcome(loop, tau, sigma, a) for tau, sigma, a in lanes]
    reasons = [w[1] for w in want if not isinstance(w, bytes)]
    for reason in ("integration window", "field domain", "escapes", "exceeded 25 steps"):
        assert any(reason in r for r in reasons), reason
    tau, sigma, a = (np.array(col, dtype=float) for col in zip(*lanes))
    values, ok = numeric_family(field, cfg).evaluate_batch(tau, sigma, a)
    assert ok.tolist() == [isinstance(w, bytes) for w in want]
    assert [v.tobytes() for v in values[ok]] == [w for w in want if isinstance(w, bytes)]
    assert np.isnan(values[~ok]).all()
    assert {values[i].tobytes() for i, l in enumerate(lanes) if l[0] == l[1] and l[2] == [0.0]} == {
        np.array([-0.0]).tobytes(), np.array([0.0]).tobytes()
    }


def grouped_loop(fam, tau, sigma, a):
    """outcome of each lane by a loop of one-lane batches over the lanes grouped by Cauchy
    datum (sigma, direction, a) in order of first appearance: the order the lane driver
    enters data in the cache, so that both make the same tries.  A batch of one lane makes
    all its tries in the scalar loop.  A failed lane takes evaluate's reason, whose tries
    are not counted."""
    groups = {}
    for i in range(len(tau)):
        key = np.array([sigma[i], 1.0 if tau[i] > sigma[i] else -1.0, *a[i]]).tobytes()
        groups.setdefault(key, []).append(i)
    got = [None] * len(tau)
    for lanes in groups.values():
        for i in lanes:
            got[i] = one_lane(fam, tau[i], sigma[i], a[i])
    with uncounted():
        for i in range(len(tau)):
            if got[i] is None:
                got[i] = outcome(fam, tau[i], sigma[i], a[i])
                assert not isinstance(got[i], bytes)
    return got


def assert_batch_is(want, values, ok):
    assert ok.tolist() == [isinstance(w, bytes) for w in want]
    assert [v.tobytes() for v in values[ok]] == [w for w in want if isinstance(w, bytes)]
    assert np.isnan(values[~ok]).all()


# (rhs, domain predicate, max_steps, spread of the states) over the window (-3, 3), blow-up past 1e3
LANE_FIELDS = {
    # blows up near t = sigma + 1/a, and sqrt(1 - t) has no value past t = 1: step underflow
    "riccati-wall": (["sqrt(1 - t) + x1^2"], None, 2000, 2.5),
    # a spiral out of the disk of radius 2, with a step budget some lanes run out of
    "spiral": (["x1 - x2", "x1 + x2"], "4 - x1^2 - x2^2", 60, 1.2),
    # nothing escapes, so the data's lanes in phase 1 end one by one
    "smooth": (["0.3*x1 + t"], None, 10**6, 1.0),
}


def lane_family(name, seed=3, count=30):
    """The field, its config, and count data (sigma, a) each queried at six taus, one of them
    sigma itself and one outside the window: 6 * count shuffled lanes (tau, sigma, a)."""
    rhs, predicate, max_steps, spread = LANE_FIELDS[name]
    field = VectorField.from_strings(rhs, DomainSpec(len(rhs), space_predicate=predicate))
    rng = random.Random(seed)
    lanes = []
    for _ in range(count):
        sigma, a = rng.uniform(-1.0, 0.5), [rng.uniform(-spread, spread) for _ in rhs]
        taus = [sigma, *(rng.uniform(-2.8, 2.8) for _ in range(4)), rng.choice([-3.5, 3.5])]
        lanes += [(tau, sigma, a) for tau in taus]
    rng.shuffle(lanes)
    data = [np.array(col, dtype=float) for col in zip(*lanes)]
    return field, IntegratorConfig(window=(-3.0, 3.0), max_steps=max_steps, blowup_radius=1e3), data


@pytest.mark.parametrize("name", LANE_FIELDS)
def test_lane_driver_equals_the_grouped_loop_with_its_step_count(monkeypatch, name):
    field, cfg, (tau, sigma, a) = lane_family(name)
    steps = count_steps(monkeypatch)
    want = grouped_loop(numeric_family(field, cfg), tau, sigma, a)
    loop_steps = steps()
    values, ok = numeric_family(field, cfg).evaluate_batch(tau, sigma, a)
    assert steps() - loop_steps == loop_steps
    assert_batch_is(want, values, ok)
    kinds = {"riccati-wall": ["(blow_up)", "(step_underflow)"], "spiral": ["(left_domain)", "exceeded 60 steps"]}
    reasons = " ".join(w[1] for w in want if not isinstance(w, bytes))
    for kind in kinds.get(name, []) + ["integration window"]:
        assert kind in reasons


def test_lane_driver_runs_both_phases_and_hands_its_tail_to_the_scalar_loop(monkeypatch):
    drive, drive_lanes, handed, calls = integrate._drive, integrate._drive_lanes, [], set()

    def counted(*args):
        handed.append(args)
        return drive(*args)

    def spied(field, cfg, target, state, record=None):
        before = len(handed)
        result = drive_lanes(field, cfg, target, state, record)
        calls.add((1 if record else 2, len(target) > integrate._TAIL_LANES, len(handed) > before))
        return result

    monkeypatch.setattr(integrate, "_drive", counted)
    monkeypatch.setattr(integrate, "_drive_lanes", spied)
    for name in LANE_FIELDS:
        field, cfg, (tau, sigma, a) = lane_family(name, count=integrate._TAIL_LANES + 14)
        assert_batch_is(grouped_loop(numeric_family(field, cfg), tau, sigma, a),
                        *numeric_family(field, cfg).evaluate_batch(tau, sigma, a))
    assert {(1, True, True), (2, True, True)} <= calls


@pytest.mark.parametrize("name", LANE_FIELDS)
def test_consecutive_batches_share_trajectories_like_the_grouped_loop(monkeypatch, name):
    field, cfg, first = lane_family(name, seed=5)
    second = [np.concatenate([x[:90], y[:90]]) for x, y in zip(first, lane_family(name, seed=6)[2])]
    lanes, loop = numeric_family(field, cfg), numeric_family(field, cfg)
    steps = count_steps(monkeypatch)
    for tau, sigma, a in (first, second):
        before = steps()
        want = grouped_loop(loop, tau, sigma, a)
        loop_steps = steps() - before
        values, ok = lanes.evaluate_batch(tau, sigma, a)
        assert steps() - before - loop_steps == loop_steps
        assert_batch_is(want, values, ok)
    before = steps()
    cold_values, cold_ok = numeric_family(field, cfg).evaluate_batch(*second)
    assert steps() - before > loop_steps  # the warm family reused the first batch's tries
    assert cold_ok.tolist() == ok.tolist() and cold_values[ok].tobytes() == values[ok].tobytes()


def test_a_recorded_first_try_starts_the_queries_its_step_reaches():
    # the first batch records each datum's tries out to sigma + 1.5; in the second, queries within
    # h_init (1e-3) of sigma start from the recorded first try, and the others from later ones
    rng = random.Random(9)
    data = [(rng.uniform(-1.0, 0.5), [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]) for _ in range(20)]
    fam = numeric_family(ROTATION, CFG)
    for offsets in ((1.5,), (4e-4, 1e-3, 0.7, 1.5)):
        lanes = [(sigma + d, sigma, a) for sigma, a in data for d in offsets]
        values, ok = fam.evaluate_batch(*(np.array(col, dtype=float) for col in zip(*lanes)))
        assert ok.all()
        assert [v.tobytes() for v in values] == [outcome(fam, *lane) for lane in lanes]


def test_a_step_that_reaches_tau_exactly_hands_out_its_row(monkeypatch):
    # from sigma = 0.0 the first try's step, h_init = 1e-3, reaches tau = 1e-3 exactly, |h| == |tau - t|,
    # and the second one reaches t1 + h1: the loop's clip test |h| >= |tau - t| takes both, so each
    # query starts from that try (in both directions), in phase 1 over numpy lanes (new data, one lane
    # per datum and direction) and in the replay of the recorded tries (the same data, all still cached)
    data = [[1.0 + k / 100, 0.0] for k in range((integrate._TAIL_LANES + 16) // 2)]
    assert integrate._TAIL_LANES < 2 * len(data) <= integrate._TRAJECTORY_CACHE_SIZE
    probe = numeric_family(ROTATION, CFG)
    probe.evaluate_batch(np.full(1, 1.5), np.zeros(1), np.array(data[:1]))
    t1, h1 = next(iter(probe.batch_evaluator.__self__.entries.values())).rows[6:8]  # row 1; a row is 6 doubles
    assert (t1 + h1) - t1 == h1 and t1 == h1 / 5.0 == 1e-3  # rotation's first step takes the factor 5
    fam, seen = numeric_family(ROTATION, CFG), []
    cache = fam.batch_evaluator.__self__
    starts = cache._starts
    monkeypatch.setattr(cache, "_starts", lambda *args: seen.append(starts(*args)) or seen[-1])
    exact = {1e-3: 0, -1e-3: 0, t1 + h1: 1, -(t1 + h1): 1}  # tau -> the try whose step reaches it
    for taus in ([*exact, 1.5, -1.5], list(exact)):
        lanes = [(tau, 0.0, a) for a in data for tau in taus]
        values, ok = fam.evaluate_batch(*(np.array(col, dtype=float) for col in zip(*lanes)))
        assert ok.all() and [v.tobytes() for v in values] == [outcome(fam, *lane) for lane in lanes]
        got = {(lanes[i][0], row[-1]) for i, row in zip(*(c.tolist() for c in seen[-1])) if lanes[i][0] in exact}
        assert got == set(exact.items())


@pytest.mark.parametrize("count", [1, integrate._TAIL_LANES])
def test_small_batches_never_step_in_lanes(monkeypatch, count):
    def refuse(*args):
        raise AssertionError(f"a batch of at most {integrate._TAIL_LANES} lanes stepped in numpy")

    field, cfg, data = lane_family("riccati-wall")
    tau, sigma, a = (col[:count] for col in data)
    want = grouped_loop(numeric_family(field, cfg), tau, sigma, a)
    spy_on_tries(monkeypatch, spy_lanes=refuse)
    assert_batch_is(want, *numeric_family(field, cfg).evaluate_batch(tau, sigma, a))


def test_batches_of_more_data_than_the_cache_holds_match_the_grouped_loop(monkeypatch):
    # the first batch's 200 data leave its last 128 in the cache; the second meets 28 of
    # them again, which the cache then keeps as used last, before 110 new data push out
    # all the others; the third meets 18 of the 28, still recorded
    field = VectorField.from_strings(["0.3*x1 + t"], DomainSpec(1))
    rng = random.Random(8)
    data = [(rng.uniform(-1.0, 0.5), rng.uniform(-1.0, 1.0)) for _ in range(310)]
    lanes, loop = numeric_family(field, CFG), numeric_family(field, CFG)
    steps = count_steps(monkeypatch)
    for batch in (data[:200], data[72:100] + data[200:], data[82:100]):
        tau, sigma, a = (np.array(col, dtype=float) for col in zip(
            *[(sigma + rng.uniform(0.1, 2.0), sigma, [a]) for sigma, a in batch for _ in range(2)]))
        before = steps()
        want = grouped_loop(loop, tau, sigma, a)
        loop_steps = steps() - before
        assert_batch_is(want, *lanes.evaluate_batch(tau, sigma, a))
        assert steps() - before - loop_steps == loop_steps
    assert loop_steps < 2 * 18 * 3  # the third batch replayed recorded tries


def _recorded(monkeypatch, fam, batches, phase):
    """Run the batches through fam with phase 1's hook built by phase: after each, its lanes' starts rows
    by float.hex, and each cache entry's key, rows and end, in the cache's order."""
    cache, seen, out = fam.batch_evaluator.__self__, [], []
    starts = cache._starts

    def spied(*args):
        lanes, rows = starts(*args)
        seen.append((lanes.tolist(), [[v.hex() for v in row] for row in rows.tolist()]))
        return lanes, rows

    monkeypatch.setattr(cache, "_starts", spied)
    monkeypatch.setattr(integrate, "_Phase1", phase)
    for batch in batches:
        values, ok = fam.evaluate_batch(*batch)
        entries = [(key, entry.rows.tobytes(), entry.end) for key, entry in cache.entries.items()]
        out.append((seen[-1], entries, values.tobytes(), ok.tolist()))
    return out


@pytest.mark.parametrize("name", LANE_FIELDS)
def test_the_columnar_hook_records_what_the_per_lane_hook_records(monkeypatch, name):
    # shuffled batches of more data than the lane/scalar split: riccati-wall's blow-ups and step
    # underflows, spiral's 60-step budget; the second batch meets half the first's lanes again
    # beside 140 new data, which push entries out of the cache before phase 1 starts
    field, cfg, first = lane_family(name, seed=7, count=integrate._TAIL_LANES + 24)
    second = [np.concatenate([x[:len(x) // 2], y]) for x, y in zip(first, lane_family(name, seed=8, count=140)[2])]
    phases = []

    class Seen(integrate._Phase1):
        def __init__(self, *args):
            super().__init__(*args)
            self.used = set()
            phases.append(self)

        def __call__(self, *columns):
            self.used.add("lanes")
            return super().__call__(*columns)

        def one(self, lane):
            self.used.add("tail")
            return super().one(lane)

    want = _recorded(monkeypatch, numeric_family(field, cfg), [first, second], scalar.PerLaneRecord)
    assert _recorded(monkeypatch, numeric_family(field, cfg), [first, second], Seen) == want
    # a phase crosses into the scalar tail; spiral's phases all end in numpy, on its budget
    assert name == "spiral" or any(phase.used == {"lanes", "tail"} for phase in phases)
    ends = " ".join(str(end) for _, entries, _, _ in want for _, _, end in entries)
    for kind in {"riccati-wall": ["blow_up", "step_underflow"], "spiral": ["exceeded 60 steps"]}.get(name, []):
        assert kind in ends


def test_lanes_and_their_scalar_tail_crawl_at_h_min_and_underflow_as_the_scalar_loop_does(monkeypatch):
    # x' = x^2 with h_min = 2e-3 on riccati-wall's data: short of blow-up an accepted try's next step
    # falls below h_min and crawls at it, and a rejected one there is a step underflow (no stage fails)
    field = VectorField.from_strings(["x1^2"], DomainSpec(1))
    cfg = IntegratorConfig(window=(-3.0, 3.0), h_init=1e-2, h_min=2e-3, blowup_radius=1e3)
    _, _, (tau, sigma, a) = lane_family("riccati-wall", count=integrate._TAIL_LANES + 14)
    drive, drive_lanes = integrate._drive, integrate._drive_lanes
    seen, raised = set(), []

    def crawling_step(t, h):
        if abs(h) == cfg.h_min:
            seen.add("scalar crawl")

    def crawling_lanes(f, t, y, h):
        if (np.abs(h) == cfg.h_min).any():
            seen.add("lane crawl")

    def escaping(*args):
        try:
            return drive(*args)
        except EscapeEvent as ev:
            seen.add(f"scalar {ev.kind}")
            raised.append((ev.kind, ev.time))
            raise

    def escaping_lanes(*args):
        before = len(raised)
        landed, values, ends = drive_lanes(*args)
        # the lane driver's ends include its scalar tail's, which the _drive spy saw raised
        in_lanes = Counter(end for end in ends.values() if isinstance(end, tuple)) - Counter(raised[before:])
        seen.update(f"lane {kind}" for kind, _ in in_lanes)
        return landed, values, ends

    spy_on_tries(monkeypatch, crawling_step, crawling_lanes)
    for name, spy in [("_drive", escaping), ("_drive_lanes", escaping_lanes)]:
        monkeypatch.setattr(integrate, name, spy)
    steps = count_steps(monkeypatch)
    want = grouped_loop(numeric_family(field, cfg), tau, sigma, a)
    loop_steps, loop_seen = steps(), set(seen)
    seen.clear()
    assert_batch_is(want, *numeric_family(field, cfg).evaluate_batch(tau, sigma, a))
    assert steps() - loop_steps == loop_steps
    assert loop_seen == {"scalar crawl", "scalar step_underflow"}
    assert {"lane crawl", "lane step_underflow", "scalar crawl", "scalar step_underflow"} <= seen


def test_batch_lanes_whose_start_the_field_cannot_evaluate():
    # sqrt(1 - t) has no value at a start past t = 1: the datum is out of the domain, on the diagonal too
    field, cfg, (tau, sigma, a) = lane_family("riccati-wall")
    sigma = np.where(np.arange(len(sigma)) % 3 == 0, sigma + 1.8, sigma)
    tau = np.where(np.arange(len(tau)) % 7 == 0, sigma, tau)
    want = grouped_loop(numeric_family(field, cfg), tau, sigma, a)
    assert any("sqrt of negative value" in w[1] for w in want if not isinstance(w, bytes))
    assert_batch_is(want, *numeric_family(field, cfg).evaluate_batch(tau, sigma, a))


def assert_batch_matches_the_grouped_loop(monkeypatch, field, cfg, tau, sigma, a):
    """A batch's bytes, ok mask and exact step count equal the grouped loop's; returns the loop's outcomes."""
    steps = count_steps(monkeypatch)
    want = grouped_loop(numeric_family(field, cfg), tau, sigma, a)
    loop_steps = steps()
    assert_batch_is(want, *numeric_family(field, cfg).evaluate_batch(tau, sigma, a))
    assert steps() - loop_steps == loop_steps
    return want


def reasons(want):
    return " ".join(w[1] for w in want if not isinstance(w, bytes))


def test_an_empty_batch(monkeypatch):
    field, cfg, _ = lane_family("spiral")
    empty = np.zeros(0)
    assert assert_batch_matches_the_grouped_loop(monkeypatch, field, cfg, empty, empty, np.zeros((0, 2))) == []


def test_a_batch_all_on_the_diagonal(monkeypatch):
    # sqrt(1 - t) has no value at the starts moved past t = 1, so their diagonal lanes are out of the domain
    field, cfg, (_, sigma, a) = lane_family("riccati-wall")
    sigma = np.where(np.arange(len(sigma)) % 4 == 0, sigma + 1.8, sigma)
    want = assert_batch_matches_the_grouped_loop(monkeypatch, field, cfg, sigma, sigma, a)
    assert any(isinstance(w, bytes) for w in want) and "sqrt of negative value" in reasons(want)


def test_a_batch_all_outside_the_window(monkeypatch):
    field, cfg, (tau, sigma, a) = lane_family("spiral")
    half = np.arange(len(tau)) % 2 == 0
    tau, sigma = np.where(half, np.where(tau > sigma, 3.5, -3.5), tau), np.where(half, sigma, sigma - 4.0)
    want = assert_batch_matches_the_grouped_loop(monkeypatch, field, cfg, tau, sigma, a)
    assert all(not isinstance(w, bytes) and "integration window" in w[1] for w in want)


def test_a_batch_whose_starts_the_field_cannot_evaluate(monkeypatch):
    field, cfg, (tau, sigma, a) = lane_family("riccati-wall")
    want = assert_batch_matches_the_grouped_loop(monkeypatch, field, cfg, tau, sigma + 2.1, a)
    assert not any(isinstance(w, bytes) for w in want)
    assert "sqrt of negative value" in reasons(want) and "integration window" in reasons(want)


def test_a_tabulated_field_batch_steps_in_lanes(monkeypatch):
    # x' = 0.5 x - 0.3 t tabulated on [-1, 2] x [-2, 2] with a hole at (0.5, 1.0): starts beyond
    # the box, trajectories leaving it, and ones stopped by the hole beside lanes that land
    times, knots = np.linspace(-1.0, 2.0, 13), np.linspace(-2.0, 2.0, 17)
    table = (0.5 * knots[None, :] - 0.3 * times[:, None])[..., None]
    table[6, 12, 0] = np.nan
    field, cfg = TabulatedVectorField(times, [knots], table), IntegratorConfig(window=(-3.0, 3.0))
    rng, lanes = random.Random(4), []
    for _ in range(integrate._TAIL_LANES + 8):
        sigma, a = rng.uniform(-0.8, 1.5), [rng.uniform(-2.4, 2.4)]
        taus = (sigma, rng.uniform(-2.5, 2.5), rng.uniform(-0.9, 1.9), rng.choice([-3.5, 3.5]))
        lanes += [(tau, sigma, a) for tau in taus]
    rng.shuffle(lanes)
    drive_lanes, phase_2 = integrate._drive_lanes, []

    def spied(field, cfg, target, state, record=None):
        if record is None:
            phase_2.append(len(target))
        return drive_lanes(field, cfg, target, state, record)

    monkeypatch.setattr(integrate, "_drive_lanes", spied)
    tau, sigma, a = (np.array(col, dtype=float) for col in zip(*lanes))
    want = assert_batch_matches_the_grouped_loop(monkeypatch, field, cfg, tau, sigma, a)
    assert phase_2[-1] > integrate._TAIL_LANES and any(isinstance(w, bytes) for w in want)  # the batch's, after the loop's one-lane ones
    for reason in ("field domain", "(left_domain)", "(step_underflow)", "integration window"):
        assert reason in reasons(want)
