"""The lane-batched checks equal the per-sample reference in ``scalar_checks`` field for field.

Every report is compared whole: samples checked and skipped, the largest
residual, the worst case, the note and the verdict.  The families cover
every catalog closed form, three whose domains break the set-based checks,
group- and affine-backed families and two numeric ones; the plans cover
the default, a grid-only plan and a grid of one state.
"""

import math

import numpy as np
import pytest
import scalar_checks as scalar

from flowfam import autonomous, linear, reconstruct, verify
from flowfam.autonomous import OneParamGroup, group_from_family
from flowfam.catalog import get, names
from flowfam.core import DomainViolation, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.linear import family_from_decomposition, sincov_decompose
from flowfam.reconstruct import ReconstructionConfig
from flowfam.verify import SamplePlan, default_plan

SUITE = (
    "check_identity",
    "check_inverse",
    "check_cocycle",
    "check_domain_inclusion",
    "check_interval",
    "check_openness",
)


BATCHED = {name: getattr(verify, name) for name in SUITE} | {
    "check_time_shift": autonomous.check_time_shift,
    "check_affine": linear.check_affine,
    "check_group_law": autonomous.check_group_law,
}
REFERENCE = {name: getattr(scalar, name) for name in BATCHED}


def _reports(checks, fam, plan, group=None):
    """Each check's report on fam; the group law runs on group, or G_alpha = F_{alpha, 0}."""
    group = group or group_from_family(fam)
    return {name: check(group if name == "check_group_law" else fam, plan) for name, check in checks.items()}


def _assert_same(fam, plan, group=None, reference_fam=None):
    """Batched reports on fam equal the reference's on reference_fam (by default fam itself)."""
    got = _reports(BATCHED, fam, plan, group)
    want = _reports(REFERENCE, reference_fam or fam, plan, group)
    for name in BATCHED:
        assert got[name] == want[name], name


def _gapped(predicate):
    return closed_form_family(1, ["exp(tau - sigma)*a1"], predicate=predicate)


def _bounded_group():
    """a e^alpha for |alpha| < 0.6: a group-backed family with a domain edge inside the plans."""

    def g(alpha, a):
        if abs(alpha) >= 0.6:
            raise DomainViolation("out_of_domain", "outside the group's parameter window")
        return a * math.exp(alpha)

    return OneParamGroup(1, g)


def _affine_backed():
    return family_from_decomposition(sincov_decompose(get("affine_scalar").family(), 0.0, np.linspace(-1.0, 1.6, 9)))


GRID_ONLY = SamplePlan((-0.5, 0.0, 0.7), ((-0.5,), (0.0,), (0.4,)), random_count=0)
ONE_STATE = SamplePlan((-0.6, 0.1, 0.9, 1.2), ((0.5,),), random_count=3, seed=7)


@pytest.mark.parametrize("name", names())
def test_catalog_closed_forms(name):
    fam = get(name).family()
    _assert_same(fam, default_plan(fam.n))


@pytest.mark.parametrize("name", ["riccati", "exp_scalar", "shear"])
@pytest.mark.parametrize("plan", [GRID_ONLY, ONE_STATE], ids=["grid_only", "one_state"])
def test_grid_only_and_one_state_plans(name, plan):
    _assert_same(get(name).family(), plan)


@pytest.mark.parametrize(
    "predicate",
    ["(tau - 0.5)^2 - 0.01", "(sigma - 0.00005)^2", "(tau - 0.00005)^2", "-1"],
    ids=["gap", "pinhole", "tau_pinhole", "empty"],
)
def test_families_that_break_the_set_based_checks(predicate):
    # the pinholes sit where the openness half-probes of the samples at 0 land
    _assert_same(_gapped(predicate), default_plan(1))


def test_group_backed_family():
    group = _bounded_group()
    _assert_same(group.family, default_plan(1), group)


def test_affine_backed_family():
    _assert_same(_affine_backed(), SamplePlan((-1.2, -0.2, 0.5, 1.4), ((-1.0,), (0.0,), (0.5,)), random_count=5))


@pytest.mark.parametrize(
    "name, states",
    [("riccati", ((-0.5,), (0.0,), (0.5,))), ("rotation", ((1.0, 0.0), (0.0, 1.0), (-0.5, 0.5)))],
)
def test_numeric_families_on_small_plans(name, states):
    plan = SamplePlan((-0.2, 0.0, 0.2), states, random_count=2)
    # the reference runs on a family of its own, so neither side replays the other's trajectories
    _assert_same(numeric_family(get(name).field()), plan, reference_fam=numeric_family(get(name).field()))


def test_roundtrip_error():
    fam = get("riccati").family()
    cfg = ReconstructionConfig(grid=SamplePlan(
        tuple(np.linspace(-0.6, 0.8, 5)), tuple((s,) for s in np.linspace(-1.0, 1.0, 41)), random_count=0
    ))
    eval_plan = SamplePlan((-0.4, 0.0, 0.5), ((-0.5,), (0.0,), (0.5,)), random_count=2, seed=5)
    icfg = IntegratorConfig()
    got = reconstruct.roundtrip_error(fam, cfg, icfg, eval_plan)
    assert got == scalar.roundtrip_error(fam, cfg, icfg, eval_plan)
    assert 0.0 < got < 1e-3


@pytest.mark.parametrize("name", BATCHED)
def test_plan_of_the_wrong_dimension_raises_on_both(name):
    fam = get("riccati").family()
    for checks in (BATCHED, REFERENCE):
        with pytest.raises(DomainViolation) as exc:
            checks[name](group_from_family(fam) if name == "check_group_law" else fam, default_plan(2))
        assert exc.value.kind == "dimension_mismatch"
