"""Condition checks: pass on the reference family, fail on counterexamples."""

import math

import numpy as np
import pytest

from flowfam.autonomous import check_group_law, check_time_shift, to_group
from flowfam.core import DomainSpec, DomainViolation, FlowFamily, VectorField, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.linear import check_affine
from flowfam.reconstruct import ReconstructionConfig, roundtrip_error
from flowfam.verify import (
    CONDITION_NAMES,
    Accumulator,
    SamplePlan,
    SuiteTolerances,
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


def test_default_plan_shapes():
    p1 = default_plan(1)
    assert p1.n == 1 and len(p1.state_grid) == 5
    p2 = default_plan(2)
    assert p2.n == 2 and len(p2.state_grid) == 9


# --- the shared sample generator and report builder -------------------------


def test_samples_grid_order_then_seeded_draws():
    plan = SamplePlan((0.0, 1.0), ((5.0,), (6.0,)), random_count=2, seed=3)
    samples = list(plan.samples(2))
    grid = [(t1, t2, float(s[0])) for t1, t2, s in samples[:8]]
    assert grid == [(t1, t2, a) for t1 in (0.0, 1.0) for t2 in (0.0, 1.0) for a in (5.0, 6.0)]
    rng = np.random.default_rng(3)
    t1s, t2s = rng.uniform(0.0, 1.0, size=2), rng.uniform(0.0, 1.0, size=2)
    states = rng.uniform([5.0], [6.0], size=(2, 1))
    for (t1, t2, a), e1, e2, es in zip(samples[8:], t1s, t2s, states):
        assert (t1, t2) == (float(e1), float(e2))
        assert type(t1) is float
        assert np.array_equal(a, es)
    assert len(samples) == 10


def test_samples_two_states_order():
    plan = SamplePlan((0.0, 1.0), ((5.0, 0.0), (6.0, 1.0)), random_count=2, seed=3)
    samples = list(plan.samples(2, 2))
    grid = [(t1, t2, tuple(a), tuple(b)) for t1, t2, a, b in samples[:16]]
    states = [(5.0, 0.0), (6.0, 1.0)]
    assert grid == [
        (t1, t2, a, b) for t1 in (0.0, 1.0) for t2 in (0.0, 1.0) for a in states for b in states
    ]
    rng = np.random.default_rng(3)
    t1s, t2s = rng.uniform(0.0, 1.0, size=2), rng.uniform(0.0, 1.0, size=2)
    a_draws = rng.uniform([5.0, 0.0], [6.0, 1.0], size=(2, 2))
    b_draws = rng.uniform([5.0, 0.0], [6.0, 1.0], size=(2, 2))
    for (t1, t2, a, b), e1, e2, ea, eb in zip(samples[16:], t1s, t2s, a_draws, b_draws):
        assert (t1, t2) == (float(e1), float(e2))
        assert np.array_equal(a, ea) and np.array_equal(b, eb)
    assert len(samples) == 18


def test_samples_arity():
    plan = SamplePlan((0.0, 1.0, 2.0), ((0.0,),), random_count=4)
    for k in (1, 2, 3):
        samples = list(plan.samples(k))
        assert len(samples) == 3**k + 4
        assert all(len(s) == k + 1 for s in samples)


def test_accumulator_counts_keep_first_witness():
    acc = Accumulator()
    acc.skip()
    acc.count(0, None)
    acc.count(2, {"first": True})
    acc.count(1, {"first": False})
    rep = acc.report("counted", 0.0)
    assert (rep.samples_checked, rep.samples_skipped) == (3, 1)
    assert rep.max_residual == 3.0
    assert rep.worst_case == {"first": True}
    assert not rep.passed


def test_accumulator_empty_report():
    assert Accumulator().report("none", 0.0).max_residual == 0.0
    assert Accumulator().report("none", 0.0).passed
    assert not Accumulator().report("none", 1.0, force_fail=True).passed
    rep = Accumulator().report("none", 0.0, empty_residual=math.inf)
    assert math.isinf(rep.max_residual) and not rep.passed


def test_guard_skips_domain_violations_only():
    acc = Accumulator()
    with acc:
        raise DomainViolation("out_of_domain", "outside")
    with pytest.raises(ZeroDivisionError):
        with acc:
            raise ZeroDivisionError("not a domain question")
    with pytest.raises(KeyError):
        acc.compare(np.zeros(1), lambda: {}["missing"], {}, "unused")
    assert (acc.checked, acc.skipped, acc.note) == (0, 1, None)


def test_guard_lets_dimension_mismatch_through():
    acc = Accumulator()
    with pytest.raises(DomainViolation) as exc:
        with acc:
            raise DomainViolation("dimension_mismatch", "state of the wrong length")
    assert exc.value.kind == "dimension_mismatch"
    assert (acc.checked, acc.skipped) == (0, 0)


# each check of a one-dimensional family, handed a two-dimensional plan
WRONG_DIMENSION = {
    "check_identity": check_identity,
    "check_inverse": check_inverse,
    "check_cocycle": check_cocycle,
    "check_time_shift": check_time_shift,
    "to_group": to_group,
    "check_group_law": lambda fam, plan: check_group_law(to_group(fam), plan),
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
