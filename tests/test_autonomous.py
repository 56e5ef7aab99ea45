"""Time-shift detection, the one-parameter reduction, and the group law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam import catalog
from flowfam.autonomous import (
    NotAutonomous,
    OneParamGroup,
    check_group_law,
    check_time_shift,
    group_from_family,
    to_group,
)
from flowfam.core import DomainViolation, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.verify import SamplePlan, check_cocycle, check_identity, check_inverse, default_plan


def riccati_family():
    return closed_form_family(
        1,
        ["a1/(1 + (sigma - tau)*a1)"],
        predicate="1 - (tau - sigma)*a1",
    )


def rotation_family():
    return closed_form_family(
        2,
        [
            "cos(tau - sigma)*a1 - sin(tau - sigma)*a2",
            "sin(tau - sigma)*a1 + cos(tau - sigma)*a2",
        ],
    )


def shear_family():
    # depends on tau + sigma, not just the difference
    return closed_form_family(1, ["exp((tau^2 - sigma^2)/2)*a1"])


def drift_family():
    return closed_form_family(1, ["a1 + tau^2 - sigma^2"])


# --- detection -----------------------------------------------------------


def test_detect_riccati_autonomous():
    assert check_time_shift(riccati_family(), default_plan(1)).passed


def test_detect_identity_autonomous():
    assert check_time_shift(closed_form_family(1, ["a1"]), default_plan(1)).passed


def test_detect_rotation_autonomous():
    assert check_time_shift(rotation_family(), default_plan(2)).passed


def test_detect_quadratic_drift_not_autonomous():
    assert not check_time_shift(drift_family(), default_plan(1)).passed


def test_detect_shear_not_autonomous():
    assert not check_time_shift(shear_family(), default_plan(1)).passed


def test_time_shift_report_names_worst_sample():
    rep = check_time_shift(drift_family(), default_plan(1))
    assert rep.condition_name == "time_shift"
    assert not rep.passed
    # shifting by c changes the value by 2c(tau - sigma)
    assert rep.max_residual == pytest.approx(2 * 1.5 * 2.5, rel=1e-12)
    assert set(rep.worst_case) == {"tau", "rho", "shift", "a"}


def test_detect_numeric_family_with_scaled_tolerance():
    field_fam = numeric_family(_riccati_field(), IntegratorConfig())
    plan = SamplePlan((-0.5, 0.0, 0.5), ((-0.3,), (0.0,), (0.3,)), random_count=5)
    assert check_time_shift(field_fam, plan).passed


def _riccati_field():
    from flowfam.core import DomainSpec, VectorField

    return VectorField.from_strings(["x1^2"], DomainSpec(1, space_predicate="4 - x1^2"))


# --- reduction -----------------------------------------------------------


def test_to_group_riccati_worked_values():
    group = to_group(riccati_family())
    assert group.evaluate(0.5, [0.5])[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert group.evaluate(0.5, [2.0 / 3.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert group.evaluate(1.0, [0.5])[0] == pytest.approx(1.0, abs=1e-12)


def test_group_identity_at_zero():
    group = to_group(riccati_family())
    for a in (-0.7, 0.0, 0.4):
        assert group.evaluate(0.0, [a])[0] == a


def test_to_group_refuses_nonautonomous():
    with pytest.raises(NotAutonomous):
        to_group(shear_family())
    with pytest.raises(NotAutonomous):
        to_group(drift_family())


def test_to_group_carries_tol_hint():
    fam = numeric_family(_riccati_field(), IntegratorConfig(rel_tol=1e-9))
    plan = SamplePlan((-0.5, 0.0, 0.5), ((-0.3,), (0.0,), (0.3,)), random_count=3)
    group = to_group(fam, plan)
    assert group.tol_hint == 1e-9


@pytest.mark.parametrize("hint", [lambda: 0, math.nan], ids=["function", "nan"])
def test_group_tol_hint_checked(hint):
    # the family's rule: a group that builds must be usable by scaled_tol
    with pytest.raises(ValueError, match="tol_hint"):
        OneParamGroup(1, lambda alpha, a: a.copy(), hint)


def test_group_domain_query_total():
    group = to_group(riccati_family())
    assert group.in_domain(0.5, [0.5])
    assert not group.in_domain(2.0, [0.5])  # 1 - 2*0.5 = 0 leaves the open set
    with pytest.raises(DomainViolation):
        group.evaluate(2.0, [0.5])


def test_group_rejects_nonfinite_parameter():
    group = to_group(riccati_family())
    with pytest.raises(ValueError):
        group.evaluate(math.nan, [0.1])


def test_group_state_of_the_wrong_length_is_a_dimension_mismatch():
    # the family's rule: a group is a view of its family
    group = to_group(riccati_family())
    for query in (group.evaluate, group.in_domain):
        with pytest.raises(DomainViolation) as exc:
            query(0.5, [0.1, 0.2])
        assert exc.value.kind == "dimension_mismatch"


def test_group_is_a_view_of_its_family():
    group = OneParamGroup(1, lambda alpha, a: a + alpha, 1e-6)
    fam = group.family
    assert fam is group.family
    assert (fam.kind, fam.n, fam.tol_hint) == ("group_backed", 1, 1e-6)
    assert fam.evaluate(1.5, 0.25, [1.0]).tolist() == group.evaluate(1.25, [1.0]).tolist() == [2.25]
    with pytest.raises(ValueError, match="dimension"):
        OneParamGroup(0, lambda alpha, a: a)


# --- group law -----------------------------------------------------------


def test_group_law_riccati_passes():
    group = to_group(riccati_family())
    plan = SamplePlan(
        (-0.4, -0.2, 0.0, 0.2, 0.4),
        ((-0.5,), (-0.25,), (0.0,), (0.25,), (0.5,)),
        random_count=25,
    )
    rep = check_group_law(group, plan)
    assert rep.passed
    assert rep.samples_checked > 0


def test_group_law_rotation_many_random_triples():
    group = to_group(rotation_family())
    plan = SamplePlan(
        (-1.0, 0.0, 1.0),
        ((1.0, 0.0), (0.0, 1.0)),
        random_count=500,
        seed=2024,
    )
    rep = check_group_law(group, plan, tol=1e-12)
    assert rep.passed
    assert rep.samples_checked >= 500


def test_group_law_flags_broken_group():
    # translation with a quadratic kink: G_a(G_b) != G_{a+b}
    broken = OneParamGroup(
        n=1,
        g=lambda alpha, a: a + alpha + 0.1 * alpha**2,
    )
    plan = SamplePlan((-1.0, 0.0, 1.0), ((0.0,), (0.5,)), random_count=10)
    rep = check_group_law(broken, plan)
    assert not rep.passed
    # residual of the quadratic term: |0.1((a+b)^2 - a^2 - b^2)| = 0.2|ab|
    assert rep.max_residual == pytest.approx(0.2, rel=1e-9)


def test_group_law_notes_undefined_direct_map():
    # defined only for |alpha| < 0.75: legs at 0.5+0.5 exist, direct does not
    def g(alpha, a):
        if abs(alpha) >= 0.75:
            raise DomainViolation("out_of_domain", "window")
        return a * math.exp(alpha)

    group = OneParamGroup(n=1, g=g)
    assert group.in_domain(0.5, [1.0]) and not group.in_domain(1.0, [1.0])
    plan = SamplePlan((0.5,), ((1.0,),), random_count=0)
    rep = check_group_law(group, plan)
    assert not rep.passed
    assert math.isinf(rep.max_residual)
    assert "undefined" in rep.note


# --- reduction consistency and round trip --------------------------------


def test_reduction_matches_family_on_guarded_samples():
    fam = riccati_family()
    group = to_group(fam)
    worst = 0.0
    for tau in (-1.0, -0.25, 0.5, 1.25):
        for rho in (-1.0, 0.0, 0.75):
            for a0 in (-0.6, 0.0, 0.45):
                a = np.array([a0])
                if not (fam.in_domain(tau, rho, a) and group.in_domain(tau - rho, a)):
                    continue
                worst = max(worst, abs(fam.evaluate(tau, rho, a)[0] - group.evaluate(tau - rho, a)[0]))
    assert worst <= 1e-12


def test_group_inverse_restores_state():
    group = to_group(riccati_family())
    for alpha in (-0.5, -0.1, 0.3, 0.6):
        for a0 in (-0.4, 0.0, 0.5):
            moved = group.evaluate(alpha, [a0])
            back = group.evaluate(-alpha, moved)
            assert back[0] == pytest.approx(a0, abs=1e-12)


def test_family_from_group_round_trip():
    fam = riccati_family()
    rebuilt = to_group(fam).family
    assert rebuilt.kind == "group_backed"
    for tau, sigma, a0 in ((0.5, -0.5, 0.3), (-0.25, 1.0, -0.4), (1.5, 1.5, 0.2)):
        a = np.array([a0])
        assert rebuilt.evaluate(tau, sigma, a)[0] == pytest.approx(
            fam.evaluate(tau, sigma, a)[0], abs=1e-12
        )
    assert not rebuilt.in_domain(2.5, 0.0, [0.5])


def test_family_from_group_passes_composition_checks():
    rebuilt = to_group(riccati_family()).family
    plan = SamplePlan(
        (-0.4, 0.0, 0.4),
        ((-0.4,), (0.0,), (0.4,)),
        random_count=10,
    )
    assert check_identity(rebuilt, plan).passed
    assert check_inverse(rebuilt, plan).passed
    assert check_cocycle(rebuilt, plan).passed


def test_group_from_family_skips_the_shift_check():
    group = group_from_family(shear_family())  # to_group would refuse it
    assert group.evaluate(0.5, [1.0])[0] == pytest.approx(math.exp(0.125))
    assert group.in_domain(0.5, [1.0])


def _bounded_group():
    """a e^alpha for |alpha| < 0.6, hand-written with no lane form."""

    def g(alpha, a):
        if abs(alpha) >= 0.6:
            raise DomainViolation("out_of_domain", "outside the group's parameter window")
        return a * math.exp(alpha)

    return OneParamGroup(1, g)


# riccati blows up at tau - sigma = 1/a, inside the drawn lanes, for both routes
GROUPS = {
    "closed_form": lambda: group_from_family(catalog.get("riccati").family()),
    "numeric": lambda: group_from_family(numeric_family(catalog.get("riccati").field())),
    "hand_written": _bounded_group,
}
TIMES = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0]) | st.floats(-2.0, 2.0)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=10, deadline=None)
@given(lanes=st.lists(st.tuples(TIMES, TIMES, st.sampled_from([-1.0, 0.0, 0.8]) | st.floats(-1.5, 1.5)),
                      max_size=40))
def test_group_family_lanes_equal_evaluate(name, lanes):
    group = GROUPS[name]()
    assert (group.batch_g is None) == (name == "hand_written")
    tau, sigma, a = (np.array([lane[k] for lane in lanes], dtype=float) for k in range(3))
    values, ok = group.family.evaluate_batch(tau, sigma, a.reshape(-1, 1))
    for i, (t, s, x) in enumerate(lanes):
        try:
            want = group.family.evaluate(t, s, [x]).tobytes()
        except DomainViolation:
            assert not ok[i] and np.isnan(values[i]).all()
        else:
            assert ok[i] and values[i].tobytes() == want
