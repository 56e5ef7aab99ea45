"""Core types: states, domains, flow families, escape intervals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam import catalog
from flowfam import expr as ex
from flowfam.core import (
    DomainSpec,
    DomainViolation,
    EscapeInterval,
    FlowFamily,
    VectorField,
    as_state,
    closed_form_family,
    inf_norm,
    scaled_tol,
)
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.linear import SincovDecomposition, family_from_decomposition


@pytest.fixture()
def riccati():
    # flow of x' = x^2: maps a to a/(1 + (sigma - tau) a) while (tau - sigma) a < 1
    return closed_form_family(
        1,
        ["a1/(1 + (sigma - tau)*a1)"],
        predicate="1 - (tau - sigma)*a1",
    )


# --- as_state / norms ------------------------------------------------------

def test_as_state_basics():
    s = as_state([1.0, 2.0])
    assert s.dtype == np.float64
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0] = 3.0
    with pytest.raises(ValueError):
        as_state([1.0, math.nan])
    with pytest.raises(ValueError):
        as_state([1.0, math.inf])
    with pytest.raises(ValueError):
        as_state([])
    with pytest.raises(ValueError):
        as_state([1.0, 2.0], n=3)


def test_inf_norm():
    assert inf_norm([1.0, -3.0, 2.0]) == 3.0


# --- DomainSpec / VectorField ----------------------------------------------

def test_domain_spec_membership():
    spec = DomainSpec(1, time_box=(-1.0, 1.0))
    assert spec.contains(0.0, [5.0])
    assert not spec.contains(1.0, [5.0])  # endpoints excluded, open box
    assert not spec.contains(-1.0, [5.0])
    assert not spec.contains(2.0, [5.0])


def test_domain_spec_predicate():
    from flowfam.expr import parse

    spec = DomainSpec(1, space_predicate=parse("1 - x1^2"))
    assert spec.contains(0.0, [0.5])
    assert not spec.contains(0.0, [1.0])   # strict inequality
    assert not spec.contains(0.0, [2.0])
    # membership stays total when the predicate cannot be evaluated
    spec2 = DomainSpec(1, space_predicate=parse("log(x1)"))
    assert spec2.contains(0.0, [2.0])
    assert not spec2.contains(0.0, [-1.0])


@pytest.mark.parametrize("predicate", ["1e400", "-1e400", "sqrt(1e400)", "log(1e400) + x1"])
def test_domain_spec_predicate_that_overflows_holds_nowhere(predicate):
    # an infinite literal is not a positive value: the predicate raises nonfinite, as it does on each lane
    spec = DomainSpec(1, space_predicate=predicate)
    assert not spec.contains(0.0, [0.5])
    assert spec.contains_lanes(np.array([0.0, 0.5]), np.array([[0.5], [-1.0]])).tolist() == [False, False]


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(0)
    with pytest.raises(ValueError):
        DomainSpec(1, time_box=(1.0, 1.0))


def test_vector_field_call():
    field = VectorField.from_strings(["x2", "-x1"], DomainSpec(2))
    out = field.slope(0.0, [1.0, 2.0])
    assert np.allclose(out, [2.0, -1.0])


def test_component_count_must_be_the_dimension():
    with pytest.raises(ValueError, match="need 2 rhs components, got 1"):
        VectorField.from_strings(["x1"], DomainSpec(2))
    with pytest.raises(ValueError, match="need 2 components, got 3"):
        closed_form_family(2, ["a1", "a2", "a1"])


def test_vector_field_reads_its_dimension_from_its_domain():
    field = VectorField(DomainSpec(2), (ex.parse("-x2"), ex.parse("x1")))
    assert field.n == field.domain.n == 2
    assert field.slope(0.0, (1.0, 0.5)) == (-0.5, 1.0)


def test_vector_field_validation():
    with pytest.raises(Exception):
        VectorField.from_strings(["x2"], DomainSpec(1))  # index beyond dimension
    with pytest.raises(Exception):
        VectorField.from_strings(["tau"], DomainSpec(1))  # flow-map variable


# --- FlowFamily evaluate / in_domain ----------------------------------------

def test_riccati_values(riccati):
    assert np.allclose(riccati.evaluate(1.0, 0.0, [0.5]), [1.0])
    assert riccati.evaluate(0.7, 0.7, [-0.3])[0] == -0.3  # diagonal is exact
    with pytest.raises(DomainViolation) as exc:
        riccati.evaluate(2.0, 0.0, [0.5])  # (tau - sigma) a = 1, boundary excluded
    assert exc.value.kind == "out_of_domain"


def test_riccati_membership(riccati):
    assert riccati.in_domain(1.0, 0.0, [0.5])
    assert not riccati.in_domain(2.0, 0.0, [0.5])
    assert riccati.in_domain(0.0, 0.0, [1e9])  # diagonal holds everywhere


def test_dimension_mismatch(riccati):
    with pytest.raises(DomainViolation) as exc:
        riccati.evaluate(0.0, 0.0, [1.0, 2.0])
    assert exc.value.kind == "dimension_mismatch"
    with pytest.raises(DomainViolation):
        riccati.in_domain(0.0, 0.0, [1.0, 2.0])


def test_diagonal_identity_exact(riccati):
    for sigma in (-1.0, 0.0, 0.3, 1.5):
        for a in (-2.0, -0.5, 0.0, 0.25, 3.0):
            out = riccati.evaluate(sigma, sigma, [a])
            assert out[0] == a


def test_domain_inclusion_into_diagonal(riccati):
    # membership at (rho, sigma) forces membership at (sigma, sigma)
    for tau in (-1.0, 0.0, 0.5, 1.5):
        for sigma in (-1.0, 0.0, 0.5):
            for a in (-1.0, -0.25, 0.0, 0.5):
                if riccati.in_domain(tau, sigma, [a]):
                    assert riccati.in_domain(sigma, sigma, [a])


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_evaluate_agrees_with_membership(tau, sigma, a):
    fam = closed_form_family(
        1, ["a1/(1 + (sigma - tau)*a1)"], predicate="1 - (tau - sigma)*a1"
    )
    member = fam.in_domain(tau, sigma, [a])
    try:
        value = fam.evaluate(tau, sigma, [a])
        succeeded = bool(np.all(np.isfinite(value)))
    except DomainViolation:
        succeeded = False
    assert member == succeeded


def test_family_kind_checked():
    with pytest.raises(ValueError, match="kind"):
        FlowFamily(1, "mystery", lambda t, s, a: a)


def test_family_dimension_checked():
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            FlowFamily(n, "group_backed", lambda t, s, a: a)


@pytest.mark.parametrize(
    "hint",
    [lambda t, s, a: True, "1e-6", -1e-9, math.nan, math.inf],
    ids=["function", "string", "negative", "nan", "inf"],
)
def test_family_tol_hint_checked(hint):
    with pytest.raises(ValueError, match="tol_hint"):
        FlowFamily(1, "closed_form", lambda t, s, a: a, hint)


def test_nonfinite_parameters_rejected(riccati):
    assert not riccati.in_domain(math.inf, 0.0, [0.5])
    with pytest.raises(ValueError):
        riccati.evaluate(math.nan, 0.0, [0.5])
    with pytest.raises(ValueError):
        riccati.evaluate(0.0, 0.0, [math.nan])


# --- EscapeInterval ----------------------------------------------------------

def test_escape_interval_validation():
    with pytest.raises(ValueError):
        EscapeInterval(2.0, 1.0, "unbounded", "blow_up")
    with pytest.raises(ValueError):
        EscapeInterval(0.0, 1.0, "unbounded", "no_such_kind")
    with pytest.raises(ValueError):
        EscapeInterval(-math.inf, 1.0, "blow_up", "blow_up")  # must be 'unbounded'
    with pytest.raises(ValueError):
        EscapeInterval(0.0, math.inf, "window_limit", "blow_up")


def test_scaled_tol_rule():
    assert scaled_tol(0.0) == 1e-9
    assert scaled_tol(1e-10) == pytest.approx(5e-9)


def test_membership_derives_from_evaluator():
    def ev(tau, sigma, a):
        if tau > 1.0:
            raise DomainViolation("out_of_domain", "past 1")
        return a

    fam = FlowFamily(1, "closed_form", ev)
    assert fam.in_domain(0.5, 0.0, [1.0])
    assert not fam.in_domain(1.5, 0.0, [1.0])
    assert not fam.in_domain(math.nan, 0.0, [1.0])


# --- evaluate_batch ---------------------------------------------------------

def lanes(n, m, seed=0):
    """m lanes (tau, sigma, a[m, n]) on [-3, 3], a third of them special values."""
    rng = np.random.default_rng(seed)
    # 5e-5 zeroes the pinhole predicate, where > 0 and >= 0 part
    special = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 0.99999, 5e-5, 1e-300, 1e200, -1e200]

    def column():
        v = rng.uniform(-3.0, 3.0, m)
        pick = rng.random(m) < 0.35
        v[pick] = rng.choice(special, int(pick.sum()))
        return v

    return column(), column(), np.stack([column() for _ in range(n)], axis=1)


def assert_batch_matches(fam, tau, sigma, a):
    """Lane i of evaluate_batch is evaluate's bytes, or NaN and not ok where it raises."""
    values, ok = fam.evaluate_batch(tau, sigma, a)
    assert values.shape == (len(tau), fam.n) and ok.shape == (len(tau),) and ok.dtype == bool
    failed = 0
    for i in range(len(tau)):
        try:
            want = fam.evaluate(tau[i], sigma[i], a[i])
        except DomainViolation:
            assert not ok[i] and np.isnan(values[i]).all(), (tau[i], sigma[i], a[i])
            failed += 1
            continue
        assert ok[i] and values[i].tobytes() == want.tobytes(), (tau[i], sigma[i], a[i])
    return failed


def _hand_written_gap():
    def ev(tau, sigma, a):
        if 1.0 <= abs(tau - sigma) <= 2.0:
            raise DomainViolation("out_of_domain", "inside the gap")
        return a * 2.0

    return FlowFamily(1, "closed_form", ev)


BATCH_FAMILIES = {
    **{f"catalog-{name}": catalog.get(name).family for name in catalog.names()},
    # the golden reports' set-based counterexamples
    "gap": lambda: closed_form_family(1, ["exp(tau - sigma)*a1"], predicate="(tau - 0.5)^2 - 0.01"),
    "pinhole": lambda: closed_form_family(1, ["exp(tau - sigma)*a1"], predicate="(sigma - 0.00005)^2"),
    "empty": lambda: closed_form_family(1, ["exp(tau - sigma)*a1"], predicate="-1"),
    # tau and sigma inside (-1, 1.5): the smaller of 1.25^2 - (tau - 0.25)^2 and its sigma twin is positive
    "time-box": lambda: closed_form_family(
        2, ["a1*tau", "log(a2)"],
        predicate="1.5625 - (tau - 0.25)^2 + 1.5625 - (sigma - 0.25)^2 - abs((tau - 0.25)^2 - (sigma - 0.25)^2)"),
    "hand-written": _hand_written_gap,
}


@pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
def test_evaluate_batch_matches_evaluate(name):
    fam = BATCH_FAMILIES[name]()
    failed = assert_batch_matches(fam, *lanes(fam.n, 2000))
    assert 0 < failed < 2000 or name in ("catalog-zero", "catalog-rotation", "empty")


def test_evaluate_batch_pins_the_special_lanes():
    tau, sigma, a = np.array([1.0, 1.0, 0.2]), np.array([0.0, 0.0, 0.0]), np.array([[0.5], [1.0], [-0.0]])
    values, ok = catalog.get("riccati").family().evaluate_batch(tau, sigma, a)
    # a = 1 reaches the pole at tau - sigma = 1; -0.0 keeps its sign
    assert ok.tolist() == [True, False, True]
    assert values[0, 0] == 1.0 and math.isnan(values[1, 0]) and math.copysign(1.0, values[2, 0]) == -1.0


def test_evaluate_batch_rejects_bad_input(riccati):
    with pytest.raises(DomainViolation) as exc:
        riccati.evaluate_batch([0.0], [0.0], [[0.1, 0.2]])
    assert exc.value.kind == "dimension_mismatch"
    with pytest.raises(ValueError, match="one lane each"):
        riccati.evaluate_batch([0.0, 1.0], [0.0], [[0.1], [0.2]])
    with pytest.raises(ValueError, match="state components"):
        riccati.evaluate_batch([0.0], [0.0], [[math.nan]])
    with pytest.raises(ValueError, match="parameters"):
        riccati.evaluate_batch([math.inf], [0.0], [[0.1]])
    values, ok = riccati.evaluate_batch([], [], np.empty((0, 1)))
    assert values.shape == (0, 1) and ok.shape == (0,)


@pytest.mark.parametrize("component", ["sqrt(1e400)", "-1e400", "1e400", "log(1e400)"])
def test_overflowing_component_is_out_of_domain(component):
    # the literal overflows to inf at parse time and these operations pass it through
    fam = closed_form_family(2, ["a1", component])
    with pytest.raises(DomainViolation) as exc:
        fam.evaluate(1.0, 0.0, [0.5, 0.5])
    assert exc.value.kind == "out_of_domain"
    assert not fam.in_domain(1.0, 0.0, [0.5, 0.5])
    values, ok = fam.evaluate_batch([1.0, 0.0], [0.0, 0.0], [[0.5, 0.5], [-1.0, 2.0]])
    assert not ok.any() and np.isnan(values).all()


def _overflowing(alpha, a):
    with np.errstate(over="ignore"):  # the caller's own arithmetic; only its result is under test
        return a * 1e300 * 1e300 if alpha > 0 else a


# per kind: the family, a triple whose state overflows, and a triple that maps a to itself
NON_FINITE = {
    "affine_backed": (
        family_from_decomposition(SincovDecomposition(0.0, (0.0, 1.0), [[[1.0]], [[1e300]]], [[0.0], [0.0]])),
        (1.0, 0.0, [1e300]),
        (0.5, 0.5, [1e300]),
    ),
    "group_backed": (
        FlowFamily(1, "group_backed", lambda tau, sigma, a: _overflowing(tau - sigma, a)),
        (0.5, 0.0, [1.0]),
        (-0.5, 0.0, [1.0]),
    ),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE))
def test_non_finite_state_is_out_of_domain(kind):
    # one rule for every kind: a state that is not finite is outside the domain,
    # in evaluate, in_domain and evaluate_batch alike, and no numpy warning leaks
    fam, bad, good = NON_FINITE[kind]
    assert fam.kind == kind
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation) as exc:
            fam.evaluate(*bad)
        assert exc.value.kind == "out_of_domain"
        assert not fam.in_domain(*bad)
        values, ok = fam.evaluate_batch(*zip(bad, good))
    assert ok.tolist() == [False, True]
    assert np.isnan(values[0]).all() and values[1].tolist() == good[2]


def test_evaluate_builds_the_state_as_as_state_does():
    # a read-only copy of what the evaluator returns; a wrong length is the evaluator's bug
    # and raises before the finite check, a non-finite state of the right length is outside
    returned = np.array([1.0, 2.0])
    fam = FlowFamily(2, "closed_form", lambda tau, sigma, a: returned)
    value = fam.evaluate(0.0, 0.0, [0.0, 0.0])
    assert value.tolist() == [1.0, 2.0] and value.dtype == float and not value.flags.writeable
    returned[0] = 5.0
    assert value.tolist() == [1.0, 2.0]
    for wrong in ([1.0], [math.inf, 1.0, 2.0], []):
        fam = FlowFamily(2, "closed_form", lambda tau, sigma, a, wrong=wrong: wrong)
        with pytest.raises(ValueError, match=rf"^state has length {len(wrong)}, expected 2$"):
            fam.evaluate(0.0, 0.0, [0.0, 0.0])
        with pytest.raises(ValueError, match=rf"^state has length {len(wrong)}, expected 2$"):
            as_state(wrong, 2)
    fam = FlowFamily(2, "closed_form", lambda tau, sigma, a: (1, math.nan))
    with pytest.raises(DomainViolation, match=r"^the state at \(0.5, 0.0, \[0. 0.\]\) is not finite$"):
        fam.evaluate(0.5, 0.0, [0.0, 0.0])


def test_non_finite_batch_lane_is_out_of_domain():
    # a batch evaluator's non-finite lane is dropped like evaluate's, not raised
    fam = FlowFamily(1, "closed_form", lambda tau, sigma, a: [math.inf],
                     batch_evaluator=lambda tau, sigma, a: (np.array([[1.0], [math.inf]]), np.ones(2, dtype=bool)))
    values, ok = fam.evaluate_batch([0.0, 1.0], [0.0, 0.0], [[1.0], [1.0]])
    assert ok.tolist() == [True, False]
    assert values[0, 0] == 1.0 and math.isnan(values[1, 0])
    assert not fam.in_domain(0.0, 0.0, [1.0])


def _printed(e):
    """pretty_print of an expression, or the tuple of them for a tuple."""
    return tuple(map(ex.pretty_print, e)) if isinstance(e, tuple) else ex.pretty_print(e)


def test_lane_kernels_compiled_on_the_first_batch(monkeypatch):
    # one lane form for the components as a tuple, one for the predicate
    compiled = []

    def counting(e, n):
        compiled.append(_printed(e))
        return original(e, n)

    original = ex.compile_family_lanes
    monkeypatch.setattr(ex, "compile_family_lanes", counting)
    fam = catalog.get("riccati").family()
    fam.evaluate(1.0, 0.0, [0.5])
    assert compiled == []
    fam.evaluate_batch([1.0], [0.0], [[0.5]])
    fam.evaluate_batch([1.0], [0.0], [[0.5]])
    assert compiled == [("(a1 / (1 + ((sigma - tau) * a1)))",), "(1 - ((tau - sigma) * a1))"]


def test_field_lane_kernels_compiled_on_the_first_batch(monkeypatch):
    # building a field or a numeric family, and scalar queries, compile no lane kernel;
    # the first batch compiles one for the components as a tuple and one for the predicate
    compiled = []

    def counting(e, n):
        compiled.append(_printed(e))
        return original(e, n)

    original = ex.compile_field_lanes
    monkeypatch.setattr(ex, "compile_field_lanes", counting)
    field = VectorField.from_strings(["x1^2", "-x2"], DomainSpec(2, space_predicate="4 - x1^2"))
    fam = numeric_family(field, IntegratorConfig())
    fam.evaluate(0.5, 0.0, [0.5, 0.5])
    assert compiled == []
    fam.evaluate_batch(np.full(16, 0.5), np.zeros(16), np.full((16, 2), 0.5))  # small: compiles as a large one
    for _ in range(2):
        fam.evaluate_batch(np.linspace(-0.5, 0.5, 40), np.zeros(40), np.full((40, 2), 0.5))
    assert sorted(compiled, key=str) == [("(x1 ^ 2)", "(-x2)"), "(4 - (x1 ^ 2))"]


_NUMERIC = {name: numeric_family(catalog.get(name).field(), IntegratorConfig()) for name in ("riccati", "rotation")}
_CLOSED = {name: catalog.get(name).family() for name in catalog.names()}
_lane = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted([f"closed-{k}" for k in _CLOSED] + [f"numeric-{k}" for k in _NUMERIC])),
    st.lists(st.tuples(_lane, _lane, _lane, _lane), min_size=1, max_size=6),
)
def test_evaluate_batch_lane_is_evaluate(name, rows):
    # riccati's flow leaves both domains (blow-up, the predicate) inside this box
    route, system = name.split("-", 1)
    fam = (_CLOSED if route == "closed" else _NUMERIC)[system]
    data = np.array(rows)
    assert_batch_matches(fam, data[:, 0], data[:, 1], data[:, 2:2 + fam.n])
