"""The built-in systems must be internally consistent: each closed-form
family has to pass the condition suite, and integrating the paired vector
field has to reproduce the family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam import catalog
from flowfam.core import inf_norm, scaled_tol
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.verify import default_plan, run_suite

EXPECTED_NAMES = {"riccati", "zero", "exp_scalar", "affine_scalar", "rotation", "shear"}

# guarded sample points per entry: (tau, sigma, a)
PROBES = {
    "riccati": [(0.5, 0.0, (0.5,)), (-0.5, 0.25, (-0.4,)), (1.0, 0.5, (0.8,))],
    "zero": [(2.0, -3.0, (0.7,)), (0.0, 0.0, (-1.0,))],
    "exp_scalar": [(1.0, 0.0, (0.5,)), (-0.5, 0.5, (2.0,))],
    "affine_scalar": [(0.5, 0.0, (0.5,)), (0.0, 1.0, (1.5,))],
    "rotation": [(0.5, 0.0, (1.0, 0.0)), (1.2, -0.3, (0.4, -0.6))],
    "shear": [(0.5, -0.25, (0.7,)), (1.0, 0.5, (-0.5,))],
}


def test_names_complete():
    assert set(catalog.names()) == EXPECTED_NAMES


def test_get_unknown_lists_choices():
    with pytest.raises(KeyError, match="riccati"):
        catalog.get("lorenz")


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_entry_dimensions_agree(name):
    entry = catalog.get(name)
    assert entry.field().n == entry.n
    assert entry.family().n == entry.n


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_family_passes_suite_at_defaults(name):
    entry = catalog.get(name)
    fam = entry.family()
    report = run_suite(fam, default_plan(entry.n))
    failed = [rep.condition_name for rep in report.conditions if not rep.passed]
    assert report.passed, f"{name} failed {failed}"


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_field_integrates_to_family(name):
    entry = catalog.get(name)
    closed = entry.family()
    numeric = numeric_family(entry.field(), IntegratorConfig())
    for tau, sigma, a in PROBES[name]:
        want = closed.evaluate(tau, sigma, a)
        got = numeric.evaluate(tau, sigma, a)
        assert np.max(np.abs(got - want)) <= 1e-8, (name, tau, sigma, a)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(EXPECTED_NAMES)),
    tau=st.floats(-2.0, 2.0),
    sigma=st.floats(-2.0, 2.0),
    state=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
def test_numeric_route_agrees_with_the_closed_form(name, tau, sigma, state):
    # every rhs shape the integrator splices: the literal 0, the bare x1, t*x1, x1 + 1, x1^2 and a
    # pair.  Membership agrees everywhere but within 1e-6 of riccati's escape at sigma + 1/a, since
    # the numeric route stops at the blow-up radius 1e6, 1e-6 before it.  Values agree at scaled_tol,
    # relative to their size; on riccati only where 1 - (tau - sigma) a >= 0.1, as dF/da grows as
    # its inverse square toward the escape and amplifies the integrator's error with it
    entry = catalog.get(name)
    closed, numeric, a = entry.family(), numeric_family(entry.field()), list(state[:entry.n])
    inside = closed.in_domain(tau, sigma, a)
    if name != "riccati" or a[0] == 0.0 or abs(tau - (sigma + 1.0 / a[0])) > 1e-6:
        assert numeric.in_domain(tau, sigma, a) == inside
    if not inside or name == "riccati" and 1.0 - (tau - sigma) * a[0] < 0.1:
        return
    want = closed.evaluate(tau, sigma, a)
    assert inf_norm(numeric.evaluate(tau, sigma, a) - want) <= scaled_tol(numeric.tol_hint) * max(1.0, inf_norm(want))


def test_riccati_worked_value():
    fam = catalog.get("riccati").family()
    assert fam.evaluate(1.0, 0.0, (0.5,))[0] == pytest.approx(1.0, abs=1e-12)


def test_rotation_preserves_norm():
    fam = catalog.get("rotation").family()
    a = np.array([0.6, -0.8])
    for tau in (-1.0, 0.3, 2.5):
        out = fam.evaluate(tau, 0.0, a)
        assert np.hypot(*out) == pytest.approx(1.0, abs=1e-12)


def test_shear_not_autonomous_but_linear():
    # the flow multiplier exp((tau^2 - sigma^2)/2) depends on both times
    fam = catalog.get("shear").family()
    shifted = fam.evaluate(1.5, 1.0, (1.0,))
    base = fam.evaluate(0.5, 0.0, (1.0,))
    assert abs(shifted[0] - base[0]) > 0.5
    # linearity: doubling the state doubles the image
    assert fam.evaluate(0.5, 0.0, (2.0,))[0] == pytest.approx(2 * base[0], abs=1e-12)
