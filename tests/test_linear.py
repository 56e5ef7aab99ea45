"""Affine machinery: Sincov decomposition, Wronski checks, mollifier."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfam.autonomous import to_group
from flowfam.core import DomainSpec, DomainViolation, FlowFamily, VectorField, closed_form_family
from flowfam.integrate import numeric_family
from flowfam.linear import (
    AffineMap,
    Mollifier,
    NotAffine,
    NotAffineField,
    NotInvertible,
    SincovDecomposition,
    SingularWronskian,
    UnusableWindow,
    affine_defect,
    check_affine,
    family_from_decomposition,
    mollify,
    probe_affine,
    sincov_decompose,
    smooth_apply,
    wronski_consistency,
    _rank_test,
    _window_average,
)
from flowfam.verify import SamplePlan, default_plan
from flowfam import catalog

import scalar_checks as scalar


def affine_family():
    # flow of x' = x + 1
    return closed_form_family(1, ["exp(tau - sigma)*(a1 + 1) - 1"])


def riccati_family():
    return closed_form_family(
        1, ["a1/(1 + (sigma - tau)*a1)"], predicate="1 - (tau - sigma)*a1"
    )


def rotation_family():
    return closed_form_family(
        2,
        [
            "cos(tau - sigma)*a1 - sin(tau - sigma)*a2",
            "sin(tau - sigma)*a1 + cos(tau - sigma)*a2",
        ],
    )


def _group(n, g):
    """The family F_{tau, sigma} = G_{tau - sigma} of a hand-written group g(alpha, a), with no lane form."""
    return FlowFamily(n, "group_backed", lambda tau, sigma, a: g(tau - sigma, a))


def _spread_with_lanes(fam):
    """F_{tau, sigma} = fam's F_{tau - sigma, 0}, with fam's lane form at tau - sigma subtracted lane by lane."""
    return FlowFamily(
        fam.n, "group_backed", lambda tau, sigma, a: fam.evaluator(tau - sigma, 0.0, a), fam.tol_hint,
        lambda tau, sigma, a: fam.batch_evaluator(tau - sigma, np.zeros(len(tau)), a),
    )


# --- AffineMap -------------------------------------------------------------


def test_affine_map_apply_and_compose():
    m = AffineMap([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
    assert np.allclose(m([1.0, 1.0]), [3.0, 2.0])
    both = m.compose(AffineMap(np.eye(2), np.zeros(2)))
    assert np.allclose(both.A, m.A) and np.allclose(both.b, m.b)
    chained = AffineMap([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]).compose(m)
    assert np.allclose(chained([1.0, 1.0]), [-2.0, 3.0])


def test_affine_map_inverse_round_trip():
    m = AffineMap([[2.0, 1.0], [0.0, 1.0]], [0.5, -0.25])
    inv = m.inverse()
    for a in ([0.0, 0.0], [1.0, -2.0], [0.3, 0.7]):
        assert np.allclose(inv(m(a)), a, atol=1e-12)


def test_affine_map_singular_refuses_inverse():
    flat = AffineMap([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    assert not _rank_test(flat.A)[1]
    with pytest.raises(NotInvertible):
        flat.inverse()


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap([[1.0, 2.0]], [0.0])
    with pytest.raises(ValueError):
        AffineMap([[1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        AffineMap([[math.nan]], [0.0])


def test_affine_map_entries_frozen():
    m = AffineMap([[1.0]], [0.0])
    with pytest.raises(ValueError):
        m.A[0, 0] = 5.0


# --- affinity detection ----------------------------------------------------


def test_detect_affine_on_affine_family():
    assert check_affine(affine_family(), default_plan(1)).passed


def test_detect_affine_on_identity():
    assert check_affine(closed_form_family(1, ["a1"]), default_plan(1)).passed


def test_detect_affine_rejects_riccati():
    assert not check_affine(riccati_family(), default_plan(1)).passed


def test_check_affine_witness_structure():
    rep = check_affine(riccati_family(), default_plan(1))
    assert rep.condition_name == "affinity"
    assert not rep.passed
    assert set(rep.worst_case) == {"tau", "sigma", "lambda", "a", "b"}
    assert rep.samples_skipped > 0  # mixes that left the hyperbola domain


def test_check_affine_pinned_reports():
    # riccati's worst case comes from the random batch, so its draw order is pinned too
    rep = check_affine(riccati_family(), default_plan(1))
    assert rep.max_residual == pytest.approx(6.135018135649929, rel=1e-12)
    assert rep.worst_case == {
        "tau": -0.33394742927307264,
        "sigma": 0.5715113602491968,
        "lambda": 2.0,
        "a": [-0.686267447607089],
        "b": [-0.3868991517072178],
    }
    assert (rep.samples_checked, rep.samples_skipped) == (1653, 582)
    rep = check_affine(rotation_family(), default_plan(2))
    assert rep.max_residual == pytest.approx(8.881784197001252e-16, rel=1e-12)
    assert rep.worst_case == {"tau": -1.0, "sigma": 1.5, "lambda": -1.0, "a": [-1.0, -1.0], "b": [1.0, 1.0]}
    assert (rep.samples_checked, rep.samples_skipped) == (7851, 0)


# --- Sincov decomposition --------------------------------------------------


def test_decompose_scalar_affine_oracle():
    grid = (0.0, 0.25, 0.5, math.log(2.0), 1.0)
    dec = sincov_decompose(affine_family(), 0.0, grid)
    i = dec.grid.index(math.log(2.0))
    assert abs(dec.W[i][0, 0] - 2.0) <= 1e-12
    assert abs(dec.particular(i)[0] - 1.0) <= 1e-12
    assert abs(dec.h[i][0] - 0.5) <= 1e-12


def test_decompose_gauge_row_is_identity():
    dec = sincov_decompose(affine_family(), 0.0, (0.0, 0.5, 1.0))
    assert np.allclose(dec.W[0], np.eye(1), atol=1e-15)
    assert np.allclose(dec.h[0], 0.0, atol=1e-15)


def test_decompose_rotation_quarter_turn():
    dec = sincov_decompose(rotation_family(), 0.0, (0.0, math.pi / 4, math.pi / 2))
    assert np.allclose(dec.W[2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(dec.h[2], 0.0, atol=1e-12)


def test_decompose_refuses_nonaffine():
    with pytest.raises(NotAffine):
        sincov_decompose(riccati_family(), 0.0, (0.0, 0.5))


def test_decompose_flags_singular_wronskian():
    # affine, but the linear part collapses at tau = 1
    # tau and sigma inside (-2, 1.5): the smaller of 1.75^2 - (tau + 0.25)^2 and its sigma twin is positive
    degenerate = closed_form_family(
        1, ["(1 - tau)/(1 - sigma)*a1"],
        predicate="3.0625 - (tau + 0.25)^2 + 3.0625 - (sigma + 0.25)^2 - abs((tau + 0.25)^2 - (sigma + 0.25)^2)")
    with pytest.raises(SingularWronskian):
        sincov_decompose(degenerate, 0.0, (0.0, 0.5, 1.0))


@pytest.mark.parametrize(
    "tau0, grid, h, message",
    [(math.nan, (0.0,), [[0.0]], "times must be finite"),
     (0.0, (0.0, math.inf), [[0.0], [0.0]], "times must be finite"),
     (0.0, (0.0,), [[0.0, 0.0]], r"h must be \(len\(grid\), n\)"),
     (0.0, (0.0,), [[math.nan]], "decomposition entries must be finite")],
    ids=["tau0-nan", "grid-inf", "h-shape", "h-nan"],
)
def test_decomposition_refuses_each_malformed_field(tau0, grid, h, message):
    with pytest.raises(ValueError, match=message):
        SincovDecomposition(tau0, grid, np.repeat(np.eye(1)[None], len(grid), axis=0), np.array(h))


def test_mollifier_derives_its_error_bound():
    H = AffineMap(np.eye(1), np.zeros(1))
    assert Mollifier(0.25, H, 8).error_bound == (2.0 * 0.25) ** 5 / (180.0 * 8**4)
    assert Mollifier(0.25, H, 16).error_bound == Mollifier(0.25, H, 8).error_bound / 16


@pytest.mark.parametrize(
    "eps, panels, message",
    [(0.25, 0, "panel count"), (0.25, 3, "panel count"), (0.25, 2**16 + 2, "at most 65536"),
     (-1.0, 3, "half-width"), (0.0, 8, "half-width"), (math.inf, 8, "half-width"), (math.nan, 8, "half-width")],
)
def test_mollifier_refuses_what_mollify_refuses(eps, panels, message):
    # Mollifier(0.25, H, 0) raised ZeroDivisionError from error_bound, and Mollifier(-1.0, H, 3) read -0.0022
    group, H = _group(1, lambda alpha, a: a.copy()), AffineMap(np.eye(1), np.zeros(1))
    with pytest.raises(ValueError, match=message) as direct:
        Mollifier(eps, H, panels)
    with pytest.raises(ValueError) as by_mollify:
        mollify(group, eps, panels=panels)
    assert str(direct.value) == str(by_mollify.value)


def test_decomposition_validates_fields():
    eye = np.eye(1)[None, :, :]
    with pytest.raises(ValueError):
        SincovDecomposition(0.0, (), np.empty((0, 1, 1)), np.empty((0, 1)))
    with pytest.raises(ValueError):
        SincovDecomposition(0.0, (1.0, 0.0), np.repeat(eye, 2, axis=0), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        SincovDecomposition(0.0, (0.0,), np.empty((2, 1, 1)), np.zeros((2, 1)))
    with pytest.raises(SingularWronskian):
        SincovDecomposition(0.0, (0.0,), np.zeros((1, 1, 1)), np.zeros((1, 1)))


# --- reconstruction from a decomposition ------------------------------------


def test_family_from_decomposition_round_trip_on_grid():
    fam = affine_family()
    grid = (0.0, 0.25, 0.5, 1.0)
    rebuilt = family_from_decomposition(sincov_decompose(fam, 0.0, grid))
    assert rebuilt.kind == "affine_backed"
    worst = max(
        abs(rebuilt.evaluate(t, s, [a])[0] - fam.evaluate(t, s, [a])[0])
        for t in grid
        for s in grid
        for a in (-1.0, 0.0, 0.5)
    )
    assert worst <= 1e-12


def test_gauge_invariance_of_reconstruction():
    fam = affine_family()
    grid = (0.0, 0.5, 1.0)
    f0 = family_from_decomposition(sincov_decompose(fam, 0.0, grid))
    f1 = family_from_decomposition(sincov_decompose(fam, 1.0, grid))
    worst = max(
        abs(f0.evaluate(t, s, [a])[0] - f1.evaluate(t, s, [a])[0])
        for t in grid
        for s in grid
        for a in (-0.5, 0.0, 1.0)
    )
    assert worst <= 1e-10


def test_affine_backed_diagonal_exact():
    rebuilt = family_from_decomposition(sincov_decompose(affine_family(), 0.0, (0.0, 1.0)))
    for t in (0.0, 0.37, 1.0):
        assert rebuilt.evaluate(t, t, [0.3])[0] == 0.3


def test_affine_backed_cocycle_exact_between_grid_times():
    rebuilt = family_from_decomposition(
        sincov_decompose(affine_family(), 0.0, (0.0, 0.25, 0.5, 0.75, 1.0))
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        tau, sigma, rho = rng.uniform(0.0, 1.0, 3)
        a = np.array([rng.uniform(-1.0, 1.0)])
        hop = rebuilt.evaluate(sigma, rho, a)
        worst = max(
            worst,
            abs(rebuilt.evaluate(tau, sigma, hop)[0] - rebuilt.evaluate(tau, rho, a)[0]),
        )
    assert worst <= 1e-10


def test_time_span_enforced_by_default():
    rebuilt = family_from_decomposition(sincov_decompose(affine_family(), 0.0, (0.0, 1.0)))
    with pytest.raises(DomainViolation):
        rebuilt.evaluate(1.5, 0.0, [0.1])
    assert not rebuilt.in_domain(-0.1, 0.0, [0.1])


def test_interpolated_wronskian_can_degenerate():
    # I and -I average to the zero matrix halfway between grid times
    dec = SincovDecomposition(
        0.0,
        (0.0, 1.0),
        np.stack([np.eye(2), -np.eye(2)]),
        np.zeros((2, 2)),
    )
    rebuilt = family_from_decomposition(dec)
    with pytest.raises(DomainViolation):
        rebuilt.evaluate(0.0, 0.5, [1.0, 0.0])
    assert not rebuilt.in_domain(0.0, 0.5, [1.0, 0.0])


# decompositions whose rebuilt family mixes every outcome: times outside the grid
# span, an interpolated Wronski matrix that is singular halfway between I and -I,
# and states large enough that the rebuilt value overflows
DECOMPOSITIONS = {
    "affine_scalar": lambda: sincov_decompose(affine_family(), 0.0, (0.0, 0.25, 0.5, 1.0)),
    "rotation": lambda: sincov_decompose(rotation_family(), 0.0, (0.0, 0.5, 1.0)),
    "degenerate": lambda: SincovDecomposition(
        0.0, (0.0, 1.0), np.stack([np.eye(2), -np.eye(2)]), np.zeros((2, 2))
    ),
}
SPAN_TIMES = st.sampled_from([-0.25, -0.0, 0.0, 0.5, 1.0, 1.25]) | st.floats(-0.5, 1.5)
COMPONENTS = st.sampled_from([0.0, -1.0, 1.0, 1e308, -1e308]) | st.floats(-2.0, 2.0)


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_affine_family_lanes_equal_evaluate(name, data):
    fam = family_from_decomposition(DECOMPOSITIONS[name]())
    lane = st.tuples(SPAN_TIMES, SPAN_TIMES, st.lists(COMPONENTS, min_size=fam.n, max_size=fam.n))
    lanes = data.draw(st.lists(lane, max_size=30))
    tau, sigma = (np.array([lane[k] for lane in lanes], dtype=float) for k in range(2))
    a = np.array([lane[2] for lane in lanes], dtype=float).reshape(-1, fam.n)
    values, ok = fam.evaluate_batch(tau, sigma, a)
    for i, (t, s, x) in enumerate(lanes):
        assert fam.in_domain(t, s, x) == ok[i]
        try:
            want = fam.evaluate(t, s, x).tobytes()
        except DomainViolation:
            assert not ok[i] and np.isnan(values[i]).all()
        else:
            assert ok[i] and values[i].tobytes() == want


# --- Wronski consistency ----------------------------------------------------


def test_wronski_consistency_scalar_affine():
    fld = VectorField.from_strings(["x1 + 1"], DomainSpec(1))
    grid = tuple(np.arange(0.0, 1.0 + 1e-12, 1e-2))
    dec = sincov_decompose(affine_family(), 0.0, grid)
    rep = wronski_consistency(dec, fld, tol=1e-3)
    assert rep.passed
    assert rep.condition_name == "wronski_consistency"


def test_wronski_consistency_rotation():
    fld = VectorField.from_strings(["-x2", "x1"], DomainSpec(2))
    grid = tuple(np.arange(0.0, 1.0 + 1e-12, 1e-2))
    dec = sincov_decompose(rotation_family(), 0.0, grid)
    assert wronski_consistency(dec, fld, tol=1e-3).passed


def test_wronski_consistency_zero_field_exact():
    fld = VectorField.from_strings(["0"], DomainSpec(1))
    dec = sincov_decompose(closed_form_family(1, ["a1"]), 0.0, (0.0, 0.5, 1.0))
    rep = wronski_consistency(dec, fld, tol=1e-12)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_wronski_consistency_rejects_nonaffine_field():
    fld = VectorField.from_strings(["x1^2"], DomainSpec(1))
    dec = sincov_decompose(affine_family(), 0.0, (0.0, 0.5, 1.0))
    with pytest.raises(NotAffineField):
        wronski_consistency(dec, fld, tol=1e-3)


def test_wronski_consistency_names_the_first_time_the_field_is_not_affine_at():
    fld = VectorField.from_strings(["x1 + (t - 0.25)*x1^2"], DomainSpec(1))
    dec = sincov_decompose(affine_family(), 0.0, (0.0, 0.25, 0.5, 0.75, 1.0))
    with pytest.raises(NotAffineField, match=r"at time 0\.5 \(residual 0\.5\)"):
        wronski_consistency(dec, fld, tol=1e-3)


def test_wronski_consistency_reports_a_field_it_cannot_probe():
    fld = VectorField.from_strings(["sqrt(x1 + t - 0.4)"], DomainSpec(1))
    dec = sincov_decompose(affine_family(), 0.0, (0.0, 0.25, 0.5, 1.0))
    with pytest.raises(NotAffineField, match="could not probe the field: affine probe at tau=0.25"):
        wronski_consistency(dec, fld, tol=1e-3)


def test_wronski_consistency_needs_interior_points():
    dec = sincov_decompose(affine_family(), 0.0, (0.0, 1.0))
    fld = VectorField.from_strings(["x1 + 1"], DomainSpec(1))
    with pytest.raises(ValueError):
        wronski_consistency(dec, fld, tol=1e-3)


def test_wronski_consistency_catches_wrong_field():
    fld = VectorField.from_strings(["2*x1 + 1"], DomainSpec(1))
    grid = tuple(np.arange(0.0, 1.0 + 1e-12, 1e-2))
    dec = sincov_decompose(affine_family(), 0.0, grid)
    assert not wronski_consistency(dec, fld, tol=1e-3).passed


# --- mollifier ---------------------------------------------------------------


def test_mollify_rotation_half_pi():
    m = mollify(to_group(rotation_family()), math.pi / 2)
    assert np.max(np.abs(m.H.A - (2.0 / math.pi) * np.eye(2))) <= 1e-10
    assert np.max(np.abs(m.H.b)) <= 1e-12


def test_mollify_identity_group_is_identity():
    group = _group(1, lambda alpha, a: a.copy())
    m = mollify(group, 0.3)
    assert np.allclose(m.H.A, np.eye(1), atol=1e-15)
    assert np.allclose(m.H.b, 0.0, atol=1e-15)


def test_mollify_translation_group_cancels():
    v = np.array([1.0, -2.0])
    group = _group(2, lambda alpha, a: a + alpha * v)
    m = mollify(group, 0.5)
    assert np.allclose(m.H.A, np.eye(2), atol=1e-15)
    assert np.max(np.abs(m.H.b)) <= 1e-15  # odd integrand cancels node by node


def test_mollify_reports_singular_average():
    with pytest.raises(NotInvertible):
        mollify(to_group(rotation_family()), math.pi)


def test_mollify_rejects_nonaffine_group():
    with pytest.raises(NotAffine):
        mollify(to_group(riccati_family()), 0.25)


def test_mollify_parameter_validation():
    group = _group(1, lambda alpha, a: a.copy())
    with pytest.raises(ValueError):
        mollify(group, 0.0)
    with pytest.raises(ValueError):
        mollify(group, 0.25, panels=3)
    with pytest.raises(ValueError, match="at most 65536"):
        mollify(group, 0.25, panels=2**16 + 2)


def test_a_window_without_usable_width_is_a_value_error():
    group = _group(1, lambda alpha, a: a.copy())
    with pytest.raises(UnusableWindow, match=r"averaging window \[-1e\+308, 1e\+308\]") as caught:
        mollify(group, 1e308)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("panels", [2, 4, 256, 2**16])
@pytest.mark.parametrize("name", [name for name in catalog.names() if name not in ("riccati", "shear")])
def test_window_average_is_the_node_by_node_sum_bit_for_bit(name, panels):
    # the affine groups of the catalog: riccati is not affine and shear not autonomous
    group = to_group(catalog.get(name).family())
    for center, eps in ((0.0, 0.25), (0.3, math.pi / 2)):
        got, want = _window_average(group, center, eps, panels), scalar.window_average(group, center, eps, panels)
        assert (got.A.tobytes(), got.b.tobytes()) == (want.A.tobytes(), want.b.tobytes())


def test_mollifier_limit_monotone():
    group = to_group(closed_form_family(1, ["exp(tau - sigma)*a1"]))
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        m = mollify(group, eps)
        gaps.append(max(abs(m.H.A[0, 0] - 1.0), abs(m.H.b[0])))
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-3


def test_mollifier_error_bound_scales():
    group = _group(1, lambda alpha, a: a.copy())
    wide = mollify(group, 0.4, panels=64)
    narrow = mollify(group, 0.2, panels=64)
    fine = mollify(group, 0.4, panels=128)
    assert wide.error_bound == pytest.approx(32.0 * narrow.error_bound)
    assert wide.error_bound == pytest.approx(16.0 * fine.error_bound)


# --- smoothing ---------------------------------------------------------------


def test_smooth_apply_rotation():
    group = to_group(rotation_family())
    m = mollify(group, math.pi / 4)
    got = smooth_apply(group, m, 0.3)
    want = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    assert np.max(np.abs(got.A - want)) <= 1e-8
    assert np.max(np.abs(got.b)) <= 1e-8


def test_smooth_apply_at_zero_is_identity():
    group = to_group(rotation_family())
    m = mollify(group, 0.25)
    got = smooth_apply(group, m, 0.0)
    assert np.max(np.abs(got.A - np.eye(2))) <= 1e-10
    assert np.max(np.abs(got.b)) <= 1e-10


def test_smooth_apply_scalar_exponential():
    group = to_group(closed_form_family(1, ["exp(tau - sigma)*a1"]))
    got = smooth_apply(group, mollify(group, 0.5), 1.0)
    assert abs(got.A[0, 0] - math.e) <= 1e-8
    assert abs(got.b[0]) <= 1e-8


def test_smoothing_identity_sweep():
    rot = to_group(rotation_family())
    exp_group = to_group(closed_form_family(1, ["exp(tau - sigma)*a1"]))
    m_rot = mollify(rot, 0.25)
    m_exp = mollify(exp_group, 0.25)
    for alpha in (-1.0, -0.3, 0.0, 0.3, 1.0):
        got = smooth_apply(rot, m_rot, alpha)
        want = np.array(
            [[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]]
        )
        assert np.max(np.abs(got.A - want)) <= 1e-8
        assert np.max(np.abs(got.b)) <= 1e-8
        got1 = smooth_apply(exp_group, m_exp, alpha)
        assert abs(got1.A[0, 0] - math.exp(alpha)) <= 1e-8
        assert abs(got1.b[0]) <= 1e-8


def test_affine_of_affine_group_with_offset():
    # translation-with-scaling group: G_alpha(a) = e^alpha a + (e^alpha - 1)
    group = to_group(affine_family())
    got = smooth_apply(group, mollify(group, 0.25), 0.7)
    assert abs(got.A[0, 0] - math.exp(0.7)) <= 1e-8
    assert abs(got.b[0] - (math.exp(0.7) - 1.0)) <= 1e-8


# --- the shared affine probe ------------------------------------------------


def point_probe(fn, n):
    """(A, b) of fn read point by point, one call a point: b = fn(0), A e_k = fn(e_k) - b."""
    b = np.asarray(fn(np.zeros(n)), dtype=float)
    A = np.empty((n, n))
    for k in range(n):
        A[:, k] = np.asarray(fn(np.eye(n)[k]), dtype=float) - b
    return A, b


def point_defect(fn, A, b):
    """The residual at fn's first probe lam e_k off a -> A a + b, point by point; None when all hold."""
    for k in range(A.shape[0]):
        for lam in (-1.0, 2.0):
            want = lam * A[:, k] + b
            gap = float(np.abs(np.asarray(fn(lam * np.eye(A.shape[0])[k]), dtype=float) - want).max())
            if gap > 1e-9 * (1.0 + float(np.abs(want).max())):
                return gap
    return None


def test_probe_affine_reads_matrix_and_offset():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])

    def batch(tau, sigma, x):
        return x @ A.T + b, np.ones(len(x), dtype=bool)

    got_A, got_b = probe_affine(batch, np.zeros(1), np.zeros(1), 2)
    assert np.array_equal(got_A[0], A) and np.array_equal(got_b[0], b)
    assert np.isnan(affine_defect(batch, np.zeros(1), np.zeros(1), got_A, got_b)).all()


# seven lanes make 21 basis probes, more than the numeric lane driver hands to its scalar tail
PROBE_TAU = np.array([-1.0, 0.0, 0.3, 2.5, -0.0, 1.2, 0.7])
PROBE_SIGMA = np.array([0.0, 0.0, -0.7, 1.0, 0.0, 0.4, 0.7])


@pytest.mark.parametrize("fam", [rotation_family(), _spread_with_lanes(rotation_family()),
                                 _group(2, lambda alpha, a: a + alpha),
                                 numeric_family(VectorField.from_strings(["-x2", "x1"], DomainSpec(2)))],
                         ids=["closed_form", "group_backed", "no_lane_form", "numeric"])
def test_probe_affine_is_the_point_probe_at_every_lane(fam):
    A, b = probe_affine(fam.evaluate_batch, PROBE_TAU, PROBE_SIGMA, 2)
    for i in range(len(PROBE_TAU)):
        want_A, want_b = point_probe(partial(fam.evaluate, PROBE_TAU[i], PROBE_SIGMA[i]), 2)
        assert A[i].tobytes() == want_A.tobytes() and b[i].tobytes() == want_b.tobytes()


def test_probe_affine_of_a_field_is_the_point_probe_at_every_time():
    fld = VectorField.from_strings(["-x2*t + sin(t)", "x1*cos(t) + 0.3*x2 - t^2"], DomainSpec(2))
    A, c = probe_affine(lambda t, _, x: fld.lanes(t, x), PROBE_TAU, PROBE_SIGMA, 2)
    for i, t in enumerate(PROBE_TAU):
        want_A, want_c = point_probe(partial(fld.slope, t), 2)
        assert A[i].tobytes() == want_A.tobytes() and c[i].tobytes() == want_c.tobytes()


def test_affine_defect_is_the_point_defect_at_every_lane():
    # riccati leaves its affine reading at some lanes and not on the diagonal
    fam = riccati_family()
    tau, sigma = np.array([0.0, 0.2, -0.3, 0.1]), np.array([0.0, 0.1, 0.0, -0.1])
    A, b = probe_affine(fam.evaluate_batch, tau, sigma, 1)
    gap = affine_defect(fam.evaluate_batch, tau, sigma, A, b)
    want = [point_defect(partial(fam.evaluate, tau[i], sigma[i]), A[i], b[i]) for i in range(len(tau))]
    assert [None if math.isnan(g) else g.hex() for g in gap] == [w and w.hex() for w in want]
    assert want[0] is None and None not in want[1:]


def test_probe_affine_names_the_lane_that_leaves_the_domain():
    fam = closed_form_family(1, ["a1 + tau - sigma"], predicate="1.2 - tau")
    with pytest.raises(DomainViolation, match="tau=1.5, sigma=0.5"):
        probe_affine(fam.evaluate_batch, np.array([0.0, 1.5, 2.0]), np.array([0.0, 0.5, 0.0]), 1)


def test_affine_defect_reports_first_failing_probe():
    def batch(tau, sigma, x):  # x + tau x^2: affine at tau = 0 only
        return x + tau[:, None] * x**2, np.ones(len(x), dtype=bool)

    tau, sigma = np.array([0.1, 0.0]), np.zeros(2)
    A, b = probe_affine(batch, tau, sigma, 1)  # A = 1.1 and 1, b = 0
    # lam = -1 at tau = 0.1: -0.9 against want -1.1
    gap = affine_defect(batch, tau, sigma, A, b)
    assert gap[0] == pytest.approx(0.2) and math.isnan(gap[1])


def test_mollify_probes_each_node_once():
    calls = []

    def g(alpha, a):
        calls.append(alpha)
        return a.copy()

    mollify(_group(1, g), 0.25, panels=16)
    # the ends and centre: one probe batch of n + 1 lanes each and one defect batch of 2n
    # lanes each, then n + 1 lanes per node; this group has no lane form, so a lane is a call
    ends = [-0.25, -0.25, 0.0, 0.0, 0.25, 0.25]
    assert calls[:12] == ends + ends
    assert len(calls) == 3 * 4 + 17 * 2
