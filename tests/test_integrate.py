"""Adaptive integrator: oracle agreement, escapes, step control, trajectory cache."""

import contextlib
import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam import catalog, integrate
from flowfam.autonomous import check_group_law, group_from_family
from flowfam.core import DomainSpec, DomainViolation, VectorField
from flowfam.integrate import (
    EscapeEvent,
    IntegratorConfig,
    StepBudgetExceeded,
    advance,
    complete_solution,
    dopri5_step,
    escape_interval,
    numeric_family,
)
from flowfam.linear import mollify, smooth_apply
from flowfam.reconstruct import TabulatedVectorField
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


def test_config_window_may_be_any_pair_of_finite_numbers():
    assert IntegratorConfig(window=np.array([-1, 2])).window == (-1.0, 2.0)
    assert IntegratorConfig(window=[-3, 4.5]).window == (-3.0, 4.5)


# --- one-step order behavior -------------------------------------------------

@pytest.mark.parametrize("t,a,h", [(0.0, 0.5, 0.1), (0.5, -1.0, 0.2), (-1.0, 0.25, 0.1)])
def test_embedded_error_is_order_five(riccati_field, t, a, h):
    # the embedded estimate scales like h^5, so halving h divides it by ~32
    y = np.array([a])
    _, e_full, _ = dopri5_step(riccati_field, t, y, h)
    _, e_half, _ = dopri5_step(riccati_field, t, y, h / 2)
    ratio = abs(e_full[0]) / abs(e_half[0])
    assert 24.0 <= ratio <= 40.0


def test_fsal_slope_reusable(riccati_field):
    y = np.array([0.5])
    y1, _, k_last = dopri5_step(riccati_field, 0.0, y, 0.1)
    assert np.allclose(k_last, riccati_field(0.1, y1))


# float.hex of (y5, err, k_last) for one step from fixed inputs.  The step sums
# each stage left to right in plain float arithmetic, so these are the same on
# every IEEE-double machine; a BLAS product that fuses multiply-adds moves the
# error estimate's last bits.
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
    parts = dopri5_step(field, t, y, h)
    assert all(type(part) is tuple and all(type(v) is float for v in part) for part in parts)
    assert [[v.hex() for v in part] for part in parts] == pinned
    # the FSAL slope given back as k1 takes the same step
    assert dopri5_step(field, t, y, h, field(t, y)) == parts


# --- advance ------------------------------------------------------------------

def test_advance_riccati_oracle(riccati_field):
    got = advance(riccati_field, 0.0, [0.5], 1.0, CFG)
    assert abs(got[0] - 1.0) <= 1e-8


def test_advance_zero_length_exact(riccati_field):
    got = advance(riccati_field, 0.0, [0.5], 0.0, CFG)
    assert got[0] == 0.5


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


def test_complete_solution_bundle(riccati_field):
    sol = complete_solution(riccati_field, 0.0, [0.5], CFG)
    assert sol.rho == 0.0
    assert sol.interval.contains(1.9)
    assert not sol.interval.contains(2.1)


# --- trajectory cache ------------------------------------------------------------

DOPRI5_STEP, DOPRI5_LANES = integrate.dopri5_step, integrate.dopri5_lanes


@contextlib.contextmanager
def uncounted():
    """Tries made inside are not counted by count_steps."""
    counted = integrate.dopri5_step, integrate.dopri5_lanes
    integrate.dopri5_step, integrate.dopri5_lanes = DOPRI5_STEP, DOPRI5_LANES
    try:
        yield
    finally:
        integrate.dopri5_step, integrate.dopri5_lanes = counted


def count_steps(monkeypatch):
    """Count DP5 tries from here on, one per dopri5_step call and one per lane of a
    dopri5_lanes call; returns the reader."""
    calls = [0]
    step, lanes = integrate.dopri5_step, integrate.dopri5_lanes

    def counted(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    def counted_lanes(f, t, *args):
        calls[0] += len(t)
        return lanes(f, t, *args)

    monkeypatch.setattr(integrate, "dopri5_step", counted)
    monkeypatch.setattr(integrate, "dopri5_lanes", counted_lanes)
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
    # as an exception would hold its traceback's frames, and the field, in a cycle
    field = VectorField.from_strings(["x1^2"], DomainSpec(1))
    ref = weakref.ref(field)
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
        assert ref() is None
    finally:
        gc.enable()


def bench_plan_steps(monkeypatch, name):
    """DP5 tries of the suite on the benchmark's verify-numeric plan for a catalog field."""
    field = catalog.get(name).field()
    plan = SamplePlan((-0.2, 0.0, 0.2), default_plan(field.n).state_grid, random_count=2)
    steps = count_steps(monkeypatch)
    assert run_suite(numeric_family(field), plan).passed
    return steps()


def test_default_plan_shape_step_count(monkeypatch):
    # rotation: 18,305 steps when every query integrates from scratch; a lane step counts once per lane
    assert bench_plan_steps(monkeypatch, "rotation") <= 10_278


def test_default_plan_shape_step_count_riccati(monkeypatch):
    # the count of a loop of evaluate over lanes grouped by datum, which the lane driver repeats
    assert bench_plan_steps(monkeypatch, "riccati") <= 2_860


@pytest.mark.parametrize("name, tries", [("riccati", 6_180), ("rotation", 7_759)])
def test_numeric_group_law_step_count(monkeypatch, name, tries):
    # the group's batches share trajectories through the cache; probe by probe the law makes
    # 19,067 tries on riccati and 29,378 on rotation
    field = catalog.get(name).field()
    steps = count_steps(monkeypatch)
    assert check_group_law(group_from_family(numeric_family(field)), default_plan(field.n)).passed
    assert steps() == tries


def test_numeric_mollifier_step_count(monkeypatch):
    # each window's ends and centre are one probe batch and one defect batch, and its Simpson
    # nodes one more; probe by probe they make 14,286 tries, and a scalar check at the ends 2,053
    group = group_from_family(numeric_family(ROTATION))
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


def lane_family(name, seed=3):
    """The field, its config, and 30 data (sigma, a) each queried at six taus, one of them
    sigma itself and one outside the window: 180 shuffled lanes (tau, sigma, a)."""
    rhs, predicate, max_steps, spread = LANE_FIELDS[name]
    field = VectorField.from_strings(rhs, DomainSpec(len(rhs), space_predicate=predicate))
    rng = random.Random(seed)
    lanes = []
    for _ in range(30):
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
    lanes, calls = integrate._drive_lanes, set()

    def spied(field, cfg, target, state, record=None):
        landed, values, ends, tail = lanes(field, cfg, target, state, record)
        calls.add((1 if record else 2, len(target) > 16, bool(tail)))
        return landed, values, ends, tail

    monkeypatch.setattr(integrate, "_drive_lanes", spied)
    for name in LANE_FIELDS:
        field, cfg, (tau, sigma, a) = lane_family(name)
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


@pytest.mark.parametrize("count", [1, 16])
def test_small_batches_never_step_in_lanes(monkeypatch, count):
    def refuse(*args):
        raise AssertionError("a batch of at most 16 lanes stepped in numpy")

    field, cfg, data = lane_family("riccati-wall")
    tau, sigma, a = (col[:count] for col in data)
    want = grouped_loop(numeric_family(field, cfg), tau, sigma, a)
    monkeypatch.setattr(integrate, "dopri5_lanes", refuse)
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
    for _ in range(24):
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
    assert phase_2[-1] > 16 and any(isinstance(w, bytes) for w in want)  # the batch's, after the loop's one-lane ones
    for reason in ("field domain", "(left_domain)", "(step_underflow)", "integration window"):
        assert reason in reasons(want)
