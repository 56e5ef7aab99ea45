"""Time-shift detection, the one-parameter reduction, and the group law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam import catalog
from flowfam.autonomous import NotAutonomous, check_group_law, check_time_shift, to_group
from flowfam.core import DomainViolation, FlowFamily, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.linear import mollify
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


def group_family(g, n=1, tol_hint=0.0):
    """The family F_{tau, sigma} = G_{tau - sigma} of a hand-written group g(alpha, a)."""
    return FlowFamily(n, "group_backed", lambda tau, sigma, a: g(tau - sigma, a), tol_hint)


def spread_family(fam):
    """F_{tau, sigma} = G_{tau - sigma} with G_alpha = fam's F_{alpha, 0}, as a group-backed family."""
    return group_family(lambda alpha, a: fam.evaluate(alpha, 0.0, a), fam.n, fam.tol_hint)


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
    assert group.evaluate(0.5, 0.0, [0.5])[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert group.evaluate(0.5, 0.0, [2.0 / 3.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert group.evaluate(1.0, 0.0, [0.5])[0] == pytest.approx(1.0, abs=1e-12)


def test_group_identity_at_zero():
    group = to_group(riccati_family())
    for a in (-0.7, 0.0, 0.4):
        assert group.evaluate(0.0, 0.0, [a])[0] == a


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
        group_family(lambda alpha, a: a.copy(), tol_hint=hint)


def test_group_domain_query_total():
    group = to_group(riccati_family())
    assert group.in_domain(0.5, 0.0, [0.5])
    assert not group.in_domain(2.0, 0.0, [0.5])  # 1 - 2*0.5 = 0 leaves the open set
    with pytest.raises(DomainViolation):
        group.evaluate(2.0, 0.0, [0.5])


def test_group_rejects_nonfinite_parameter():
    group = to_group(riccati_family())
    with pytest.raises(ValueError):
        group.evaluate(math.nan, 0.0, [0.1])


def test_group_state_of_the_wrong_length_is_a_dimension_mismatch():
    # the family's rule: a group is its family
    group = to_group(riccati_family())
    for query in (group.evaluate, group.in_domain):
        with pytest.raises(DomainViolation) as exc:
            query(0.5, 0.0, [0.1, 0.2])
        assert exc.value.kind == "dimension_mismatch"


def test_to_group_returns_the_family():
    fam = riccati_family()
    assert to_group(fam) is fam
    rotation = numeric_family(catalog.get("rotation").field())
    assert to_group(rotation) is rotation


def test_hand_written_group_is_its_spread_family():
    fam = group_family(lambda alpha, a: a + alpha, tol_hint=1e-6)
    assert (fam.kind, fam.n, fam.tol_hint) == ("group_backed", 1, 1e-6)
    assert fam.evaluate(1.5, 0.25, [1.0]).tolist() == fam.evaluate(1.25, 0.0, [1.0]).tolist() == [2.25]


# --- group law -----------------------------------------------------------


SOURCES = {
    f"{name}-{route}": (lambda name=name, route=route: catalog.get(name).family() if route == "closed"
                        else numeric_family(catalog.get(name).field()))
    for name in ("riccati", "rotation") for route in ("closed", "numeric")
}


@pytest.mark.parametrize("source", SOURCES)
def test_group_law_reads_the_family_as_its_spread_family(source):
    # G_alpha = F_{alpha, 0}: the family and F_{tau, sigma} = G_{tau - sigma} give one report
    fam = SOURCES[source]()
    plan = default_plan(fam.n)
    assert check_group_law(fam, plan) == check_group_law(spread_family(fam), plan)


@pytest.mark.parametrize("source", [s for s in SOURCES if s.startswith("rotation")])
def test_mollify_reads_the_family_as_its_spread_family(source):
    fam = SOURCES[source]()
    H, spread_H = mollify(fam, 0.25).H, mollify(spread_family(fam), 0.25).H
    assert (H.A.tobytes(), H.b.tobytes()) == (spread_H.A.tobytes(), spread_H.b.tobytes())


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
    broken = group_family(lambda alpha, a: a + alpha + 0.1 * alpha**2)
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

    group = group_family(g)
    assert group.in_domain(0.5, 0.0, [1.0]) and not group.in_domain(1.0, 0.0, [1.0])
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
                if not (fam.in_domain(tau, rho, a) and group.in_domain(tau - rho, 0.0, a)):
                    continue
                worst = max(worst, abs(fam.evaluate(tau, rho, a)[0] - group.evaluate(tau - rho, 0.0, a)[0]))
    assert worst <= 1e-12


def test_group_inverse_restores_state():
    group = to_group(riccati_family())
    for alpha in (-0.5, -0.1, 0.3, 0.6):
        for a0 in (-0.4, 0.0, 0.5):
            moved = group.evaluate(alpha, 0.0, [a0])
            back = group.evaluate(-alpha, 0.0, moved)
            assert back[0] == pytest.approx(a0, abs=1e-12)


def test_family_from_group_round_trip():
    fam = riccati_family()
    rebuilt = spread_family(to_group(fam))
    assert rebuilt.kind == "group_backed"
    for tau, sigma, a0 in ((0.5, -0.5, 0.3), (-0.25, 1.0, -0.4), (1.5, 1.5, 0.2)):
        a = np.array([a0])
        assert rebuilt.evaluate(tau, sigma, a)[0] == pytest.approx(
            fam.evaluate(tau, sigma, a)[0], abs=1e-12
        )
    assert not rebuilt.in_domain(2.5, 0.0, [0.5])


def test_family_from_group_passes_composition_checks():
    rebuilt = spread_family(to_group(riccati_family()))
    plan = SamplePlan(
        (-0.4, 0.0, 0.4),
        ((-0.4,), (0.0,), (0.4,)),
        random_count=10,
    )
    assert check_identity(rebuilt, plan).passed
    assert check_inverse(rebuilt, plan).passed
    assert check_cocycle(rebuilt, plan).passed


def _bounded_group():
    """a e^alpha for |alpha| < 0.6, hand-written with no lane form."""

    def g(alpha, a):
        if abs(alpha) >= 0.6:
            raise DomainViolation("out_of_domain", "outside the group's parameter window")
        return a * math.exp(alpha)

    return group_family(g)


# riccati blows up at tau - sigma = 1/a, inside the drawn lanes, for both routes;
# a group is its family, so its lane form is the family's batch_evaluator
GROUPS = {
    "closed_form": lambda: to_group(catalog.get("riccati").family()),
    "numeric": lambda: to_group(numeric_family(catalog.get("riccati").field())),
    "hand_written": _bounded_group,
}
TIMES = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0]) | st.floats(-2.0, 2.0)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=10, deadline=None)
@given(lanes=st.lists(st.tuples(TIMES, TIMES, st.sampled_from([-1.0, 0.0, 0.8]) | st.floats(-1.5, 1.5)),
                      max_size=40))
def test_group_family_lanes_equal_evaluate(name, lanes):
    group = GROUPS[name]()
    assert (group.batch_evaluator is None) == (name == "hand_written")
    tau, sigma, a = (np.array([lane[k] for lane in lanes], dtype=float) for k in range(3))
    values, ok = group.evaluate_batch(tau, sigma, a.reshape(-1, 1))
    for i, (t, s, x) in enumerate(lanes):
        try:
            want = group.evaluate(t, s, [x]).tobytes()
        except DomainViolation:
            assert not ok[i] and np.isnan(values[i]).all()
        else:
            assert ok[i] and values[i].tobytes() == want
