"""Condition checks: pass on the reference family, fail on counterexamples."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowfam
from flowfam.autonomous import check_group_law, check_time_shift, to_group
from flowfam.core import DomainSpec, DomainViolation, FlowFamily, VectorField, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.linear import check_affine
from flowfam.reconstruct import ReconstructionConfig, roundtrip_error
from flowfam.verify import (
    CONDITION_NAMES,
    Accumulator,
    ConditionReport,
    SamplePlan,
    SuiteTolerances,
    VerificationReport,
    check_cocycle,
    check_domain_inclusion,
    check_identity,
    check_interval,
    check_inverse,
    check_openness,
    default_plan,
    run_suite,
)

RICCATI_MAP = "a1/(1 + (sigma - tau)*a1)"
RICCATI_DOM = "1 - (tau - sigma)*a1"


@pytest.fixture(scope="module")
def riccati():
    return closed_form_family(1, [RICCATI_MAP], predicate=RICCATI_DOM)


@pytest.fixture(scope="module")
def plan():
    return default_plan(1)


# --- counterexample constructions -------------------------------------------


def shifted_identity_family():
    """Diagonal returns a + 0.1: breaks the identity condition by exactly 0.1."""
    return closed_form_family(1, [RICCATI_MAP + " + 0.1"], predicate=RICCATI_DOM)


def constant_maps_family():
    """F maps everything to 0 off the diagonal: not a bijection."""

    def ev(tau, sigma, a):
        return a.copy() if tau == sigma else np.zeros_like(a)

    return FlowFamily(1, "closed_form", ev)


def cocycle_only_family():
    """a + 0.01 (tau-sigma)^3: identity and inverse hold exactly, cocycle fails.

    The cube cancels under composition with swapped parameters but is not
    additive across a middle time.
    """
    return closed_form_family(1, ["a1 + 0.01*(tau - sigma)^3"])


def perturbed_cocycle_family():
    """Reference family plus 0.01 (tau-sigma)^2."""
    return closed_form_family(
        1, [RICCATI_MAP + " + 0.01*(tau - sigma)^2"], predicate=RICCATI_DOM
    )


def shrunk_diagonal_family():
    """Identity maps whose diagonal domain is artificially cut to a > 0."""

    def dq(tau, sigma, a):
        return bool(a[0] > 0) if tau == sigma else True

    def ev(tau, sigma, a):
        if not dq(tau, sigma, a):
            raise DomainViolation("out_of_domain", "shrunk diagonal")
        return a.copy()

    return FlowFamily(1, "closed_form", ev)


def gap_domain_family():
    """Identity maps defined only for |tau-sigma| < 1 or |tau-sigma| > 2."""

    def dq(tau, sigma, a):
        d = abs(tau - sigma)
        return d < 1.0 or d > 2.0

    def ev(tau, sigma, a):
        if not dq(tau, sigma, a):
            raise DomainViolation("out_of_domain", "inside the gap")
        return a.copy()

    return FlowFamily(1, "closed_form", ev)


def empty_family():
    def ev(tau, sigma, a):
        raise DomainViolation("out_of_domain", "empty family")

    return FlowFamily(1, "closed_form", ev)


# --- per-check behavior -------------------------------------------------------


def test_identity_passes_reference(riccati, plan):
    rep = check_identity(riccati, plan, tol=1e-12)
    assert rep.passed
    assert rep.max_residual == 0.0  # closed form is exactly the identity
    assert rep.samples_checked == len(plan.time_grid) * len(plan.state_grid) + plan.random_count


def test_identity_catches_shift(plan):
    rep = check_identity(shifted_identity_family(), plan, tol=1e-9)
    assert not rep.passed
    assert abs(rep.max_residual - 0.1) < 1e-12
    assert rep.worst_case is not None and "sigma" in rep.worst_case


def test_inverse_passes_reference(riccati, plan):
    rep = check_inverse(riccati, plan, tol=1e-9)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_inverse_specific_value(riccati):
    # F_{0,1}(F_{1,0}(0.5)) = F_{0,1}(1.0) = 0.5
    mid = riccati.evaluate(1.0, 0.0, [0.5])
    assert mid[0] == 1.0
    back = riccati.evaluate(0.0, 1.0, mid)
    assert back[0] == 0.5


def test_inverse_catches_constant_maps(plan):
    rep = check_inverse(constant_maps_family(), plan, tol=1e-9)
    assert not rep.passed
    assert rep.max_residual >= 0.5


def test_cocycle_passes_reference(riccati, plan):
    rep = check_cocycle(riccati, plan, tol=1e-9)
    assert rep.passed
    assert rep.samples_skipped > 0  # guard genuinely excludes some triples


def test_cocycle_specific_chain(riccati):
    # hop 0 -> 1 -> 1.5 against the direct 0 -> 1.5 transport of a=0.5
    hop = riccati.evaluate(1.0, 0.0, [0.5])
    two_leg = riccati.evaluate(1.5, 1.0, hop)
    direct = riccati.evaluate(1.5, 0.0, [0.5])
    assert two_leg[0] == pytest.approx(2.0, abs=1e-12)
    assert direct[0] == pytest.approx(2.0, abs=1e-12)


def test_cocycle_catches_perturbation(plan):
    rep = check_cocycle(perturbed_cocycle_family(), plan, tol=1e-9)
    assert not rep.passed
    # smallest detectable mismatch is set by the grid spacing in (tau-sigma)
    assert rep.max_residual >= 0.01 * 0.5**2 * 0.1


def test_cocycle_only_counterexample(plan):
    fam = cocycle_only_family()
    assert check_identity(fam, plan, tol=1e-12).passed
    assert check_inverse(fam, plan, tol=1e-12).passed
    rep = check_cocycle(fam, plan, tol=1e-9)
    assert not rep.passed


def test_cocycle_guard_never_leaks(riccati):
    # dense plan crossing the domain boundary; a guard leak would raise a
    # DomainViolation out of the check.  This plan deliberately contains
    # samples sitting on the exact boundary (grid products hit
    # (tau-sigma)*hop = 1), where rounding admits astronomically sensitive
    # points, so only soundness is asserted here, not the residual.
    times = tuple(np.linspace(-2.0, 2.0, 9))
    states = tuple((x,) for x in np.linspace(-2.0, 2.0, 7))
    rep = check_cocycle(riccati, SamplePlan(times, states, random_count=200), tol=1e-9)
    assert rep.samples_skipped > 0
    assert rep.samples_checked > 0


def test_cocycle_scores_an_undefined_direct_map():
    # legs of 0.9 stay short of the gap; the direct map over 1.8 falls inside it
    rep = check_cocycle(gap_domain_family(), SamplePlan((0.0, 0.9, 1.8), ((0.0,),), random_count=0))
    assert not rep.passed
    assert math.isinf(rep.max_residual)
    assert rep.note == "guard held but the direct map was undefined"
    assert rep.worst_case == {"tau": 0.0, "sigma": 0.9, "rho": 1.8, "a": [0.0]}
    # 17 of the 27 triples have both legs; the two with an undefined direct map count as checked
    assert (rep.samples_checked, rep.samples_skipped) == (17, 10)


def test_check_lets_other_errors_through():
    def ev(tau, sigma, a):
        raise ZeroDivisionError("evaluator bug")

    with pytest.raises(ZeroDivisionError):
        check_cocycle(FlowFamily(1, "closed_form", ev), default_plan(1))


def test_domain_inclusion_passes_reference(riccati, plan):
    rep = check_domain_inclusion(riccati, plan)
    assert rep.passed and rep.max_residual == 0.0


def test_domain_inclusion_catches_shrunk_diagonal(plan):
    rep = check_domain_inclusion(shrunk_diagonal_family(), plan)
    assert not rep.passed
    assert rep.max_residual >= 1.0
    assert rep.worst_case["a"][0] <= 0.0


def test_interval_passes_reference(riccati):
    # through (rho=0, a=0.5) the family is defined exactly for tau < 2
    times = tuple(np.arange(-1.0, 3.01, 0.25))
    plan = SamplePlan(times, ((0.5,),), random_count=0)
    flags = [riccati.in_domain(t, 0.0, [0.5]) for t in times]
    assert flags == [t < 2.0 for t in times]
    rep = check_interval(riccati, plan)
    assert rep.passed


def test_interval_catches_gap(plan):
    rep = check_interval(gap_domain_family(), plan)
    assert not rep.passed
    assert rep.worst_case is not None


def test_openness_passes_reference(riccati, plan):
    rep = check_openness(riccati, plan, delta=1e-4)
    assert rep.passed
    assert rep.samples_checked > 0


def test_openness_fails_empty_family(plan):
    rep = check_openness(empty_family(), plan, delta=1e-4)
    assert not rep.passed
    assert rep.note == "K empty over plan"
    assert rep.samples_checked == 0
    assert math.isinf(rep.max_residual)


def test_openness_skips_near_boundary(riccati):
    # (1.9, 0, 0.5) has predicate margin 0.05; probing at delta=0.2 pushes
    # past the boundary, so the sample is skipped rather than failed
    plan = SamplePlan((0.0, 1.9), ((0.5,),), random_count=0)
    rep = check_openness(riccati, plan, delta=0.2)
    assert rep.passed
    assert rep.samples_skipped >= 1


def test_openness_rejects_bad_delta(riccati, plan):
    with pytest.raises(ValueError):
        check_openness(riccati, plan, delta=0.0)


# --- suite ---------------------------------------------------------------------


def test_suite_reference_passes(riccati, plan):
    rep = run_suite(riccati, plan)
    assert rep.passed
    assert tuple(r.condition_name for r in rep.conditions) == CONDITION_NAMES
    assert all(r.passed for r in rep.conditions)


def test_suite_numeric_reference_passes():
    field = VectorField.from_strings(["x1^2"], DomainSpec(1))
    fam = numeric_family(field, IntegratorConfig())
    small = SamplePlan((-0.5, 0.0, 0.5), ((-0.5,), (0.25,)), random_count=5)
    rep = run_suite(fam, small, SuiteTolerances(identity=1e-7, inverse=1e-7, cocycle=1e-7))
    assert rep.passed


def test_numeric_cocycle_accumulation():
    # two integrations versus one: residual stays within 50x the integrator
    # tolerance.  States are kept small enough that (tau-rho)*a <= 0.75, so
    # no sample grazes the blow-up boundary where sensitivity diverges.
    field = VectorField.from_strings(["x1^2"], DomainSpec(1))
    cfg = IntegratorConfig()
    fam = numeric_family(field, cfg)
    plan = SamplePlan(
        (-1.0, 0.0, 1.5),
        ((-0.3,), (0.0,), (0.3,)),
        random_count=300,
        seed=99,
    )
    rep = check_cocycle(fam, plan, tol=50.0 * cfg.rel_tol)
    assert rep.passed, rep.max_residual


def test_suite_flags_cocycle(plan):
    rep = run_suite(perturbed_cocycle_family(), plan)
    assert not rep.passed
    assert not rep.by_name("cocycle").passed
    assert rep.by_name("identity").passed  # perturbation vanishes on the diagonal


def test_suite_deterministic(riccati, plan):
    assert run_suite(riccati, plan) == run_suite(riccati, plan)


def test_checks_order_independent(riccati, plan):
    # a check's report must not depend on what ran before it
    alone = check_cocycle(riccati, plan, tol=1e-9)
    within = run_suite(riccati, plan).by_name("cocycle")
    assert alone == within


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan((), ((0.0,),))
    with pytest.raises(ValueError):
        SamplePlan((1.0, 0.0), ((0.0,),))  # unsorted
    with pytest.raises(ValueError):
        SamplePlan((0.0,), ((0.0,), (0.0, 1.0)))  # ragged states
    with pytest.raises(ValueError):
        SamplePlan((0.0,), ((0.0,),), random_count=-1)
    with pytest.raises(ValueError):
        SamplePlan((0.0, math.inf), ((0.0,),))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_plan_rejects_a_state_that_is_not_finite(value):
    with pytest.raises(ValueError, match="state_grid entries must be finite"):
        SamplePlan((0.0, 1.0), ((0.5, 0.0), (0.5, value)))


@pytest.mark.parametrize(
    "field, value",
    [("random_count", 2.5), ("random_count", True), ("random_count", "3"), ("seed", 3.9), ("seed", -0.5),
     ("seed", True), ("seed", False), ("seed", None), ("seed", 2**64), ("seed", -1)],
)
def test_plan_rejects_a_count_or_seed_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=field):
        SamplePlan((0.0, 1.0), ((0.0,),), **{field: value})


@pytest.mark.parametrize(
    "times, states",
    [((-1e308, 1e308), ((0.5,),)), ((0.0, 1.0), ((-1e308, 0.0), (1e308, 1.0)))],
    ids=["time-grid", "state-axis"],
)
def test_plan_refuses_draws_over_a_span_that_overflows(times, states):
    # max - min is inf, so draws would be infinite (numpy's uniform raises OverflowError there)
    with pytest.raises(ValueError, match="max - min is finite"):
        SamplePlan(times, states, random_count=1)
    plan = SamplePlan(times, states, random_count=0)  # no draws, so nothing spans the width
    (t,), (a,) = plan.columns(1)
    assert np.isfinite(t).all() and np.isfinite(a).all() and len(t) == len(times) * len(states)


def test_plan_takes_any_integral_count_and_seed():
    plan = SamplePlan((0.0, 1.0), ((0.0,),), random_count=np.int64(2), seed=np.uint64(2**64 - 1))
    assert (type(plan.random_count), type(plan.seed), plan.seed) == (int, int, 2**64 - 1)
    assert len(plan.columns(1)[0][0]) == 4


def test_seeded_run_never_loads_numpy_random():
    # the draws come from flowfam.pcg; numpy.random would load secrets, hashlib and libcrypto
    code = (
        "import sys\n"
        "from flowfam.catalog import get\n"
        "from flowfam.verify import default_plan, run_suite\n"
        "assert run_suite(get('rotation').family(), default_plan(2, random_count=25)).passed\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(flowfam.__file__).parent.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False\n"


def test_default_plan_shapes():
    p1 = default_plan(1)
    assert p1.n == 1 and len(p1.state_grid) == 5
    p2 = default_plan(2)
    assert p2.n == 2 and len(p2.state_grid) == 9


# --- the shared sample generator and report builder -------------------------


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_samples_grid_order_then_seeded_draws():
    plan = SamplePlan((0.0, 1.0), ((5.0,), (6.0,)), random_count=2, seed=3)
    (t1, t2), (a,) = plan.columns(2)
    grid = list(zip(t1[:8].tolist(), t2[:8].tolist(), a[:8, 0].tolist()))
    assert grid == [(x, y, s) for x in (0.0, 1.0) for y in (0.0, 1.0) for s in (5.0, 6.0)]
    rng = np.random.default_rng(3)
    t1s, t2s = rng.uniform(0.0, 1.0, size=2), rng.uniform(0.0, 1.0, size=2)
    states = rng.uniform([5.0], [6.0], size=(2, 1))
    assert (_bits(t1[8:]), _bits(t2[8:]), _bits(a[8:])) == (_bits(t1s), _bits(t2s), _bits(states))
    assert t1.dtype == t2.dtype == a.dtype == np.float64
    assert a.shape == (10, 1)


def test_samples_two_states_order():
    plan = SamplePlan((0.0, 1.0), ((5.0, 0.0), (6.0, 1.0)), random_count=2, seed=3)
    (t1, t2), (a, b) = plan.columns(2, 2)
    grid = [(x, y, tuple(u), tuple(v)) for x, y, u, v in zip(t1[:16], t2[:16], a[:16].tolist(), b[:16].tolist())]
    states = [(5.0, 0.0), (6.0, 1.0)]
    assert grid == [
        (x, y, u, v) for x in (0.0, 1.0) for y in (0.0, 1.0) for u in states for v in states
    ]
    rng = np.random.default_rng(3)
    t1s, t2s = rng.uniform(0.0, 1.0, size=2), rng.uniform(0.0, 1.0, size=2)
    a_draws = rng.uniform([5.0, 0.0], [6.0, 1.0], size=(2, 2))
    b_draws = rng.uniform([5.0, 0.0], [6.0, 1.0], size=(2, 2))
    assert (_bits(t1[16:]), _bits(t2[16:])) == (_bits(t1s), _bits(t2s))
    assert (_bits(a[16:]), _bits(b[16:])) == (_bits(a_draws), _bits(b_draws))
    assert a.shape == b.shape == (18, 2)


def test_samples_arity():
    plan = SamplePlan((0.0, 1.0, 2.0), ((0.0,),), random_count=4)
    for k in (1, 2, 3):
        for m in (1, 2):
            times, states = plan.columns(k, m)
            assert (len(times), len(states)) == (k, m)
            assert all(t.shape == (3**k + 4,) for t in times)
            assert all(s.shape == (3**k + 4, 1) for s in states)


def test_columns_are_read_only_and_made_once_per_plan():
    plan = SamplePlan((0.0, 1.0), ((5.0,), (6.0,)), random_count=2, seed=3)
    (t1, t2), (a,) = first = plan.columns(2)
    assert plan.columns(2) is first and plan.columns(1) is not first
    for column in (t1, t2, a):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    # a plan with another seed starts with no lanes of its own: same grid, its own draws
    (u1, _), _ = dataclasses.replace(plan, seed=4).columns(2)
    assert _bits(u1[:8]) == _bits(t1[:8]) and _bits(u1[8:]) != _bits(t1[8:])


def test_random_count_is_capped_at_2_to_the_16():
    assert SamplePlan((0.0, 1.0), ((0.0,),), random_count=2**16).random_count == 2**16  # no draw is made here
    with pytest.raises(ValueError, match=r"random_count must lie in \[0, 65536\], got 65537"):
        SamplePlan((0.0, 1.0), ((0.0,),), random_count=2**16 + 1)


def test_accumulator_counts_keep_first_witness():
    acc = Accumulator()
    acc.skip()
    acc.count(np.array([0, 2, 1]), lambda i: {"first": i == 1})
    rep = acc.report("counted", 0.0)
    assert (rep.samples_checked, rep.samples_skipped) == (3, 1)
    assert rep.max_residual == 3.0
    assert rep.worst_case == {"first": True}
    assert not rep.passed


@pytest.mark.parametrize("name", ["identity", "inverse", "cocycle", "openness_delta"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 10**400])
def test_tolerances_refuse_a_value_that_is_not_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value}$"):
        SuiteTolerances(**{name: value})


@pytest.mark.parametrize(
    "name, value, message",
    [("identity", -1e-9, "tolerances must be non-negative"), ("inverse", -1.0, "tolerances must be non-negative"),
     ("cocycle", -1e-300, "tolerances must be non-negative"), ("openness_delta", 0.0, "must be a positive number"),
     ("openness_delta", -1e-4, "must be a positive number")],
)
def test_tolerances_refuse_a_negative_tolerance_or_delta(name, value, message):
    with pytest.raises(ValueError, match=message):
        SuiteTolerances(**{name: value})


def test_reports_derive_their_verdicts():
    def condition(name, residual):
        return ConditionReport(name, 1, 0, residual, None, 1e-9)

    assert condition("identity", 1e-9).passed and not condition("inverse", 2e-9).passed
    assert VerificationReport((condition("identity", 0.0), condition("cocycle", 1e-10))).passed
    report = VerificationReport((condition("identity", 0.0), condition("cocycle", math.inf)))
    assert not report.passed and report.by_name("cocycle").max_residual == math.inf
    with pytest.raises(KeyError, match="openness"):
        report.by_name("openness")


def test_accumulator_empty_report():
    assert Accumulator().report("none", 0.0).max_residual == 0.0
    assert Accumulator().report("none", 0.0).passed
    rep = Accumulator().report("none", 0.0, empty_residual=math.inf)
    assert math.isinf(rep.max_residual) and not rep.passed


def test_lanes_keep_the_first_largest_residual_in_lane_order():
    acc = Accumulator()
    residual = np.array([[0.1, 0.3], [0.3, math.nan], [0.2, 0.3]])
    ok = np.array([[True, True], [True, True], [False, True]])
    acc.lanes(residual, ok, lambda i, j: (i, j))
    acc.lanes(np.array([0.3]), np.array([True]), lambda i: "later")  # a tie with a later batch
    assert (acc.checked, acc.skipped, acc.max_residual, acc.worst) == (6, 1, 0.3, (0, 1))


def test_lanes_score_an_undefined_direct_map():
    acc = Accumulator()
    direct_ok = np.array([True, False, False])
    acc.lanes(np.array([0.5, math.nan, math.nan]), np.array([True, True, False]), lambda i: i, direct_ok, "undefined")
    assert (acc.checked, acc.skipped, acc.max_residual, acc.worst, acc.note) == (2, 1, math.inf, 1, "undefined")


def test_guard_skips_domain_violations_only():
    # a lane is a skip where evaluate_batch says out_of_domain; any other error leaves the check
    def ev(tau, sigma, a):
        if a[0] > 0.0:
            raise ZeroDivisionError("not a domain question")
        raise DomainViolation("out_of_domain", "outside")

    fam = FlowFamily(1, "closed_form", ev)
    _, ok = fam.evaluate_batch([0.0], [0.0], [[-1.0]])
    acc = Accumulator()
    acc.lanes(np.array([math.nan]), ok, lambda i: {"lane": i})
    assert (acc.checked, acc.skipped, acc.note) == (0, 1, None)
    with pytest.raises(ZeroDivisionError):
        check_identity(fam, SamplePlan((0.0,), ((-1.0,), (1.0,)), random_count=0))


def test_guard_lets_dimension_mismatch_through():
    # a group whose map reads a state of the wrong length: not a skip, from either leg
    def g(alpha, a):
        raise DomainViolation("dimension_mismatch", "state of the wrong length")

    group = FlowFamily(1, "group_backed", lambda tau, sigma, a: g(tau - sigma, a))
    for batch in ([0.0], [0.0], [[1.0]]), ([0.0], [0.0], [[1.0, 2.0]]):
        with pytest.raises(DomainViolation) as exc:
            group.evaluate_batch(*batch)
        assert exc.value.kind == "dimension_mismatch"
    with pytest.raises(DomainViolation) as exc:
        check_group_law(group, default_plan(1))
    assert exc.value.kind == "dimension_mismatch"


# each check of a one-dimensional family, handed a two-dimensional plan
WRONG_DIMENSION = {
    "check_identity": check_identity,
    "check_inverse": check_inverse,
    "check_cocycle": check_cocycle,
    "check_time_shift": check_time_shift,
    "to_group": to_group,
    "check_group_law": check_group_law,
    "check_affine": check_affine,
    "roundtrip_error": lambda fam, plan: roundtrip_error(
        fam,
        ReconstructionConfig(grid=SamplePlan((-0.2, 0.0, 0.2), ((-0.2,), (0.0,), (0.2,)), random_count=0)),
        eval_plan=plan,
    ),
}


@pytest.mark.parametrize("check", WRONG_DIMENSION.values(), ids=WRONG_DIMENSION.keys())
def test_plan_of_the_wrong_dimension_is_a_dimension_mismatch(riccati, check):
    # not a skip: a plan that never fits the family must not pass vacuously
    with pytest.raises(DomainViolation) as exc:
        check(riccati, default_plan(2))
    assert exc.value.kind == "dimension_mismatch"
