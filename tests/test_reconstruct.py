"""Vector-field recovery: finite-difference rates, tabulation, roundtrips."""

import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfam import catalog, integrate
from flowfam import expr as ex
from flowfam.core import DomainSpec, DomainViolation, VectorField, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.reconstruct import (
    BoxDomain,
    ReconstructionConfig,
    ReconstructionFailed,
    StepTooSmall,
    TabulatedVectorField,
    diagonal_rate,
    field_from_family,
    field_gap,
    roundtrip_error,
)
from flowfam.verify import SamplePlan


def riccati_family():
    return closed_form_family(
        1,
        ["a1/(1 + (sigma - tau)*a1)"],
        predicate="1 - (tau - sigma)*a1",
    )


# tau and sigma inside (-1, 1): 2 - 2 max(tau^2, sigma^2) is positive
UNIT_TIME_BOX = "1 - tau^2 + 1 - sigma^2 - abs(tau^2 - sigma^2)"


def boxed_exp_family():
    return closed_form_family(1, ["exp(tau - sigma)*a1"], predicate=UNIT_TIME_BOX)


def exp_family():
    return closed_form_family(1, ["exp(tau - sigma)*a1"])


def rotation_family():
    return closed_form_family(
        2,
        [
            "cos(tau - sigma)*a1 - sin(tau - sigma)*a2",
            "sin(tau - sigma)*a1 + cos(tau - sigma)*a2",
        ],
    )


def dense_riccati_plan():
    # state knots ~1.2e-3 apart: linear-interpolation bias on a quadratic
    # rate stays a few 1e-7, which the worst roundtrip leg amplifies ~10x
    return SamplePlan(
        tuple(np.linspace(-1.1, 1.6, 7)),
        tuple((s,) for s in np.linspace(-2.4, 2.4, 4001)),
        random_count=0,
    )


@pytest.fixture(scope="module")
def riccati_field():
    return field_from_family(riccati_family(), ReconstructionConfig(grid=dense_riccati_plan()))


# --- diagonal_rate -------------------------------------------------------


def test_rate_riccati_point():
    d = diagonal_rate(riccati_family(), 0.3, [0.7])
    assert abs(d[0] - 0.49) <= 1e-8


def test_rate_riccati_origin_is_zero():
    assert diagonal_rate(riccati_family(), 0.3, [0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_rate_exp_point():
    d = diagonal_rate(exp_family(), 1.2, [2.0])
    assert abs(d[0] - 2.0) <= 1e-8


def test_rate_rotation_vector():
    d = diagonal_rate(rotation_family(), 0.25, [1.0, -0.5])
    assert np.allclose(d, [0.5, 1.0], atol=1e-8)


def test_rate_second_order_without_richardson():
    fam = riccati_family()
    e_coarse = abs(diagonal_rate(fam, 0.3, [0.7], h=1e-2, richardson=False)[0] - 0.49)
    e_fine = abs(diagonal_rate(fam, 0.3, [0.7], h=1e-3, richardson=False)[0] - 0.49)
    assert 50.0 <= e_coarse / e_fine <= 200.0


def test_rate_richardson_improves_tenfold():
    fam = riccati_family()
    plain = abs(diagonal_rate(fam, 0.3, [0.7], h=1e-3, richardson=False)[0] - 0.49)
    sharp = abs(diagonal_rate(fam, 0.3, [0.7], h=1e-3, richardson=True)[0] - 0.49)
    assert plain >= 10.0 * sharp


def test_rate_skips_when_stencil_leaves_domain():
    fam = boxed_exp_family()
    with pytest.raises(DomainViolation):
        diagonal_rate(fam, 1.0 - 1e-5, [0.5], h=1e-4)


def test_config_rejects_bad_step():
    plan = SamplePlan((0.0, 1.0), ((0.0,), (1.0,)), random_count=0)
    with pytest.raises(ValueError):
        ReconstructionConfig(grid=plan, h=0.0)
    with pytest.raises(ValueError):
        ReconstructionConfig(grid=plan, h=math.inf)


# --- tabulated field -----------------------------------------------------


def test_tabulated_recovers_square_law(riccati_field):
    worst = 0.0
    for t in (-1.1, -0.3, 0.6, 1.6):
        for a in np.linspace(-2.4, 2.4, 9):
            worst = max(worst, abs(riccati_field.slope(t, [a])[0] - a * a))
    assert worst <= 1e-6


def test_tabulated_exposes_box_domain(riccati_field):
    dom = riccati_field.domain
    assert isinstance(dom, BoxDomain)
    assert dom.contains(0.0, [0.0])
    assert dom.contains(-1.1, [2.4])  # closed box keeps its edges
    assert not dom.contains(2.0, [0.0])
    assert not dom.contains(0.0, [3.0])


def test_tabulated_extrapolates_one_cell_only(riccati_field):
    dx = 4.8 / 4000
    riccati_field.slope(0.0, [2.4 + 0.5 * dx])  # one overshot stage point is fine
    with pytest.raises(ex.EvalError):
        riccati_field.slope(0.0, [2.4 + 3.0 * dx])


def test_tabulated_rejects_wrong_dimension(riccati_field):
    with pytest.raises(ValueError):
        riccati_field.slope(0.0, [0.1, 0.2])


def test_tabulated_validates_shape():
    times = np.array([0.0, 1.0])
    axes = [np.array([0.0, 1.0])]
    with pytest.raises(ValueError):
        TabulatedVectorField(times, axes, np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        TabulatedVectorField(np.array([0.0]), axes, np.zeros((1, 2, 1)))
    with pytest.raises(ValueError):
        TabulatedVectorField(np.array([1.0, 0.0]), axes, np.zeros((2, 2, 1)))


@pytest.mark.parametrize(
    "times, axis",
    [([0.0, math.nan, 1.0], [0.0, 1.0]), ([0.0, 0.5, math.inf], [0.0, 1.0]), ([-math.inf, 0.0], [0.0, 1.0]),
     ([0.0, 1.0], [0.0, math.nan]), ([0.0, 1.0], [-1.0, math.inf])],
    ids=["time-nan", "time-inf", "time-minus-inf", "state-nan", "state-inf"],
)
def test_tabulated_refuses_knots_that_are_not_finite(times, axis):
    # no comparison with NaN holds, so a NaN knot passes a test for a non-positive step
    table = np.zeros((len(times), len(axis), 1))
    with pytest.raises(ValueError, match="knots must be finite and strictly increasing"):
        TabulatedVectorField(np.array(times), [np.array(axis)], table)


def test_field_from_family_checks_plan_dimension():
    plan = SamplePlan((0.0, 1.0), ((0.0, 0.0), (1.0, 1.0)), random_count=0)
    with pytest.raises(ValueError):
        field_from_family(riccati_family(), ReconstructionConfig(grid=plan))


def test_holes_are_skipped_not_extrapolated():
    fam = boxed_exp_family()
    plan = SamplePlan(
        (-0.99995, -0.5, 0.0, 0.5, 0.99995),
        tuple((s,) for s in np.linspace(-1.0, 1.0, 5)),
        random_count=0,
    )
    field = field_from_family(fam, ReconstructionConfig(grid=plan))
    assert field.skipped_sites == 10  # both edge rows sit too close to the window
    assert np.allclose(field.slope(0.0, [0.5]), [0.5], atol=1e-9)
    with pytest.raises(ex.EvalError):
        field.slope(-0.9999, [0.5])  # interpolation would touch a hole


def test_start_touching_a_hole_leaves_the_rebuilt_domain():
    fam = boxed_exp_family()
    plan = SamplePlan(
        (-0.99995, -0.5, 0.0, 0.5, 0.99995),
        tuple((s,) for s in np.linspace(-1.0, 1.0, 5)),
        random_count=0,
    )
    cfg = ReconstructionConfig(grid=plan)
    rebuilt = numeric_family(field_from_family(fam, cfg))
    with pytest.raises(DomainViolation) as exc:
        rebuilt.evaluate(0.0, -0.9999, [0.5])  # the slope at the start reads a hole
    assert exc.value.kind == "out_of_domain"
    assert not rebuilt.in_domain(0.0, -0.9999, [0.5])
    # the same start inside roundtrip_error is one skipped sample, not a crash
    eval_plan = SamplePlan((-0.9999, 0.0), ((0.5,),), random_count=0)
    assert roundtrip_error(fam, cfg, eval_plan=eval_plan) <= 1e-12


def test_reconstruction_fails_when_mostly_holes():
    fam = boxed_exp_family()
    plan = SamplePlan(
        (-0.99995, 0.0, 0.99995),
        tuple((s,) for s in np.linspace(-1.0, 1.0, 5)),
        random_count=0,
    )
    with pytest.raises(ReconstructionFailed):
        field_from_family(fam, ReconstructionConfig(grid=plan))


# --- roundtrips ----------------------------------------------------------


def test_roundtrip_riccati(riccati_field):
    err = roundtrip_error(
        riccati_family(),
        ReconstructionConfig(grid=dense_riccati_plan()),
        IntegratorConfig(),
    )
    assert err <= 1e-5


def test_roundtrip_identity_family_is_exact():
    fam = closed_form_family(1, ["a1"])
    plan = SamplePlan((-1.5, 0.0, 1.6), tuple((s,) for s in np.linspace(-2, 2, 5)), random_count=0)
    assert roundtrip_error(fam, ReconstructionConfig(grid=plan)) <= 1e-12


def test_roundtrip_exp_family():
    plan = SamplePlan(
        tuple(np.linspace(-1.1, 1.6, 7)),
        tuple((s,) for s in np.linspace(-8.0, 8.0, 41)),
        random_count=0,
    )
    assert roundtrip_error(exp_family(), ReconstructionConfig(grid=plan)) <= 1e-6


def test_roundtrip_rotation_two_dimensional():
    from itertools import product

    plan = SamplePlan(
        (-0.1, 0.8, 1.7),
        tuple(product(np.linspace(-2.0, 2.0, 21), repeat=2)),
        random_count=0,
    )
    eval_plan = SamplePlan(
        (0.0, 0.5, 1.5),
        ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.5)),
        random_count=0,
    )
    err = roundtrip_error(rotation_family(), ReconstructionConfig(grid=plan), eval_plan=eval_plan)
    assert err <= 1e-7  # the rate is linear in the state, so interpolation is exact


def test_roundtrip_requires_comparable_samples(riccati_field):
    eval_plan = SamplePlan((5.0, 6.0), ((0.0,),), random_count=0)
    with pytest.raises(ReconstructionFailed):
        roundtrip_error(
            riccati_family(),
            ReconstructionConfig(grid=dense_riccati_plan()),
            eval_plan=eval_plan,
        )


def test_reconstructed_field_matches_family_slope(riccati_field):
    # d/dtau F_{tau,rho}(a) should equal the recovered field at (tau, F_{tau,rho}(a))
    fam = riccati_family()
    d = 1e-4
    worst = 0.0
    for tau in (-0.5, 0.0, 0.5, 1.0):
        for rho in (-0.5, 0.0, 0.5, 1.0):
            for a0 in (-0.3, 0.0, 0.3):
                a = np.array([a0])
                try:
                    mid = fam.evaluate(tau, rho, a)
                    lhs = (fam.evaluate(tau + d, rho, a) - fam.evaluate(tau - d, rho, a)) / (2 * d)
                except DomainViolation:
                    continue
                rhs = riccati_field.slope(tau, mid)
                worst = max(worst, abs(lhs[0] - rhs[0]))
    assert worst <= 1e-4


# --- interpolation properties --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=12,
        max_size=12,
    )
)
def test_interpolation_reproduces_knot_values(data):
    times = np.array([0.0, 1.0, 2.0])
    axes = [np.array([-1.0, 0.0, 1.0, 2.0])]
    table = np.array(data).reshape(3, 4, 1)
    field = TabulatedVectorField(times, axes, table)
    for i, t in enumerate(times):
        for j, x in enumerate(axes[0]):
            assert field.slope(t, [x])[0] == table[i, j, 0]


def test_interpolation_exact_on_affine_data():
    times = np.array([0.0, 2.0])
    axes = [np.array([-1.0, 1.0]), np.array([0.0, 4.0])]
    # f(t, x) = (3t - x1 + 2 x2 + 1, t + x1) sampled at the corners
    table = np.empty((2, 2, 2, 2))
    for i, t in enumerate(times):
        for j, x1 in enumerate(axes[0]):
            for k, x2 in enumerate(axes[1]):
                table[i, j, k] = (3 * t - x1 + 2 * x2 + 1, t + x1)
    field = TabulatedVectorField(times, axes, table)
    got = field.slope(0.7, [0.3, 1.9])
    want = np.array([3 * 0.7 - 0.3 + 2 * 1.9 + 1, 0.7 + 0.3])
    assert np.allclose(got, want, atol=1e-12)


def test_sites_are_time_major():
    table = np.arange(2 * 3 * 1, dtype=float).reshape(2, 3, 1)
    tab = TabulatedVectorField(np.array([0.0, 1.0]), [np.array([-1.0, 0.0, 1.0])], table)
    sites = [(float(t), float(x[0]), float(v[0])) for t, x, v in zip(*tab.site_columns())]
    expected = [
        (t, x, float(3 * i + j))
        for i, t in enumerate((0.0, 1.0))
        for j, x in enumerate((-1.0, 0.0, 1.0))
    ]
    assert sites == expected


def test_field_gap_skips_holes_and_counts_compared():
    from flowfam.catalog import get

    fld = get("exp_scalar").field()
    times, knots = np.array([0.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    table = np.broadcast_to(knots[None, :, None], (2, 3, 1)).copy()
    table[1, 2, 0] = np.nan
    table[0, 0, 0] += 0.25
    worst, compared = field_gap(TabulatedVectorField(times, [knots], table), fld)
    assert compared == 5
    assert worst == pytest.approx(0.25)
    empty = TabulatedVectorField(times, [knots], np.full((2, 3, 1), np.nan))
    assert field_gap(empty, fld) == (None, 0)


def field_gap_by_site(tab, fld):
    """field_gap as a loop over the sites, one scalar query each: the reference the batch must equal."""
    worst, compared = -math.inf, 0
    for t, x, value in zip(*tab.site_columns()):
        t = float(t)
        if not np.all(np.isfinite(value)) or not fld.domain.contains(t, x):
            continue
        try:
            ref = fld.slope(t, x)
        except ex.EvalError:
            continue
        compared += 1
        worst = max(worst, float(np.max(np.abs(value - ref))))
    return (worst if compared else None), compared


def holed_table(times, axes):
    grid = np.meshgrid(times, *axes, indexing="ij")
    table = np.stack([np.sin(3.0 * grid[0] + grid[1]) * grid[2], np.cos(grid[1] * grid[2]) - grid[0]], axis=-1)
    table[::3, 2, -2, 0] = np.nan
    table[1, -2, :, 1] = np.nan
    return table


@pytest.mark.parametrize("reference", ["vector-field", "tabulated"])
def test_field_gap_equals_the_site_loop_on_a_predicate_and_holes(reference):
    # a table with holes against a field on the unit disc and a time box, where sqrt(x1) and
    # log(x1 + x2) fail on parts of it, or against a smaller tabulated field with holes of its own
    times, axes = np.linspace(-1.0, 2.0, 7), [np.linspace(-1.2, 1.2, 9), np.linspace(-1.0, 1.0, 11)]
    tab = TabulatedVectorField(times, axes, holed_table(times, axes))
    if reference == "vector-field":
        domain = DomainSpec(2, time_box=(-1.0, 1.5), space_predicate="1 - x1^2 - x2^2")
        fld = VectorField.from_strings(["sqrt(x1) * x2 - t", "log(x1 + x2) + t"], domain)
    else:
        knots = [np.linspace(-0.9, 0.9, 5), np.linspace(-0.7, 1.1, 4)]
        fld = TabulatedVectorField(np.linspace(-0.5, 2.5, 4), knots, holed_table(np.linspace(-0.5, 2.5, 4), knots))
    t, x, values = tab.site_columns()
    inside = int(np.count_nonzero(np.isfinite(values).all(axis=1) & fld.domain.contains_lanes(t, x)))
    worst, compared = field_gap(tab, fld)
    assert 0 < compared < inside < len(t)  # the predicate, the holes and fld's failures each drop sites
    assert (worst, compared) == field_gap_by_site(tab, fld)


@pytest.mark.parametrize(
    "h, richardson, knot",
    [(1e-20, True, 0.5), (1e-17, False, -1.0), (2e-16, True, -1.0)],
    ids=["tiny", "tiny-no-richardson", "half-step-only"],
)
def test_a_step_that_leaves_a_time_knot_unmoved_is_refused(monkeypatch, h, richardson, knot):
    # t + h or t - h rounding to t makes a rate of zero; at t = -1.0, 2e-16 moves the knot but its half does not
    from flowfam.core import FlowFamily

    batches, batch = [], FlowFamily.evaluate_batch
    monkeypatch.setattr(FlowFamily, "evaluate_batch", lambda self, *args: batches.append(1) or batch(self, *args))
    plan = SamplePlan(tuple(sorted((knot, 0.0))), ((-0.3,), (0.3,)), random_count=0)
    message = f"finite-difference step h={h} leaves the time knot t={knot} unmoved"
    with pytest.raises(StepTooSmall, match=re.escape(message)):
        field_from_family(riccati_family(), ReconstructionConfig(grid=plan, h=h, richardson=richardson))
    with pytest.raises(StepTooSmall, match=re.escape(message)):
        diagonal_rate(riccati_family(), knot, [0.5], h=h, richardson=richardson)
    assert batches == []
    if h == 2e-16:  # without Richardson the step itself moves every knot
        field_from_family(riccati_family(), ReconstructionConfig(grid=plan, h=h, richardson=False))


def test_both_fields_return_a_tuple_of_floats():
    # one rhs contract for the integrator: a tuple of n floats from any sequence of n floats
    rotation = catalog.get("rotation").field()
    times, axes = np.array([0.0, 1.0]), [np.array([-1.0, 1.0]), np.array([0.0, 4.0])]
    table = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
    tabulated = TabulatedVectorField(times, axes, table)
    for fld in (rotation, tabulated):
        for x in ((0.5, 1.5), [0.5, 1.5], np.array([0.5, 1.5])):
            got = fld.slope(0.25, x)
            assert type(got) is tuple and len(got) == 2 and all(type(v) is float for v in got)
            assert got == fld.slope(0.25, (0.5, 1.5))


# --- bit-for-bit references ----------------------------------------------
#
# Tabulation and interpolation are batched and gathered; these are the
# scalar loops they replaced, kept to pin every output bit.


def reference_table(fam, cfg):
    """(table, skipped): one scalar central-difference stencil per site, time-major."""
    times = np.asarray(cfg.grid.time_grid, dtype=float)
    points = np.asarray(cfg.grid.state_grid, dtype=float)
    axes = [np.unique(points[:, k]) for k in range(fam.n)]
    table = np.empty((len(times), *[len(ax) for ax in axes], fam.n))
    skipped = 0
    for it, tau in enumerate(times):
        for idx in np.ndindex(*[len(ax) for ax in axes]):
            t, a = float(tau), np.array([ax[i] for ax, i in zip(axes, idx)])

            def central(step):
                up, down = fam.evaluate(t + step, t, a), fam.evaluate(t - step, t, a)
                return (up - down) / (2.0 * step)

            try:
                d_h = central(cfg.h)
                table[(it, *idx)] = (4.0 * central(cfg.h / 2.0) - d_h) / 3.0 if cfg.richardson else d_h
            except DomainViolation:
                table[(it, *idx)] = np.nan
                skipped += 1
    return table, skipped


def reference_interp(field, t, x):
    """The per-corner interpolation loop, as the tabulated field's slope once ran it."""
    coords = [float(t), *[float(c) for c in np.asarray(x, dtype=float)]]
    all_axes = [field.times, *field.axes]
    if len(coords) != len(all_axes):
        raise ValueError(f"state has wrong dimension for this field ({field.n})")
    cells, weights = [], []
    for ax, c in zip(all_axes, coords):
        i = int(np.searchsorted(ax, c)) - 1
        i = min(max(i, 0), len(ax) - 2)
        lo, hi = ax[i], ax[i + 1]
        w = (c - lo) / (hi - lo)
        if w < -1.0 or w > 2.0:
            raise ex.EvalError("domain", f"query {c} outside the tabulated box")
        cells.append(i)
        weights.append(w)
    out = np.zeros(field.n)
    dims = len(all_axes)
    for corner in range(1 << dims):
        weight = 1.0
        key = []
        for d in range(dims):
            bit = (corner >> d) & 1
            weight *= weights[d] if bit else (1.0 - weights[d])
            key.append(cells[d] + bit)
        if weight != 0.0:
            out += weight * field.table[tuple(key)]
    if not np.all(np.isfinite(out)):
        raise ex.EvalError("domain", "query touches a skipped tabulation site")
    return out


def outcome(fn, *args):
    """Result bytes, or the EvalError's kind and message."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except ex.EvalError as err:
        return err.kind, str(err)


def _catalog_plan(n):
    times = (-1.1, -0.35, 0.4, 1.6)
    if n == 1:
        return SamplePlan(times, tuple((s,) for s in np.linspace(-2.4, 2.4, 61)), random_count=0)
    return SamplePlan(times, tuple(product(np.linspace(-2.0, 2.0, 9), repeat=n)), random_count=0)


@pytest.mark.parametrize("richardson", [True, False], ids=["richardson", "plain"])
@pytest.mark.parametrize("name", catalog.names())
def test_table_matches_the_scalar_stencil(name, richardson):
    fam = catalog.get(name).family()
    # h = 0.5 pushes riccati's stencil past its pole for |a| >= 2, which leaves holes
    for h in (1e-4, 0.5):
        cfg = ReconstructionConfig(grid=_catalog_plan(fam.n), h=h, richardson=richardson)
        table, skipped = reference_table(fam, cfg)
        field = field_from_family(fam, cfg)
        assert field.table.tobytes() == table.tobytes()
        assert field.skipped_sites == skipped
        assert skipped > 0 if (name, h) == ("riccati", 0.5) else skipped == 0


@pytest.mark.parametrize("richardson", [True, False], ids=["richardson", "plain"])
def test_table_with_holes_matches_the_scalar_stencil(richardson):
    fam = closed_form_family(2, ["exp(tau - sigma)*a1", "a2 + (tau - sigma)*sqrt(a1 + 0.6)"],
                             predicate=UNIT_TIME_BOX)
    plan = SamplePlan((-0.99995, -0.5, 0.3, 0.6),
                      tuple(product(np.linspace(-1.0, 1.0, 5), repeat=2)), random_count=0)
    cfg = ReconstructionConfig(grid=plan, richardson=richardson)
    table, skipped = reference_table(fam, cfg)
    field = field_from_family(fam, cfg)
    assert field.table.tobytes() == table.tobytes()
    assert field.skipped_sites == skipped == 25 + 3 * 5  # the edge row, and a1 = -1


def test_diagonal_rate_is_the_table_entry():
    fam = riccati_family()
    cfg = ReconstructionConfig(grid=_catalog_plan(1))
    field = field_from_family(fam, cfg)
    for it, tau in enumerate(field.times):
        for ia, a in enumerate(field.axes[0]):
            assert diagonal_rate(fam, tau, [a]).tobytes() == field.table[it, ia].tobytes()


def _holey_field(rng, times, axes, holes):
    table = rng.uniform(-3.0, 3.0, (len(times), *[len(ax) for ax in axes], len(axes)))
    flat = table.reshape(-1, len(axes))
    flat[rng.choice(len(flat), holes, replace=False)] = np.nan
    return TabulatedVectorField(times, axes, table)


def _queries(rng, knots, count):
    """Coordinates along one axis: knots, cell interiors, up to a cell past the box, far out."""
    lo, hi, cell = knots[0], knots[-1], knots[1] - knots[0]
    kinds = rng.integers(0, 4, count)
    return np.where(
        kinds == 0, rng.choice(knots, count),
        np.where(kinds == 1, rng.uniform(lo, hi, count),
                 np.where(kinds == 2, rng.uniform(lo - 1.2 * cell, hi + 1.2 * cell, count),
                          rng.uniform(lo - 5.0 * (hi - lo), hi + 5.0 * (hi - lo), count))))


@pytest.mark.parametrize("holes", [0, 5], ids=["full", "holes"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_interpolation_matches_the_corner_loop(n, holes):
    rng = np.random.default_rng(7 + n + holes)
    times = np.cumsum(rng.uniform(0.2, 1.0, 6)) - 2.0
    axes = [np.cumsum(rng.uniform(0.1, 0.5, 7)) - 1.5 for _ in range(n)]
    field = _holey_field(rng, times, axes, holes)
    count = 3000
    coords = [_queries(rng, knots, count) for knots in (times, *axes)]
    seen = set()
    for q in range(count):
        t, x = coords[0][q], [c[q] for c in coords[1:]]
        got = outcome(field.slope, t, x)
        assert got == outcome(reference_interp, field, t, x), (t, x)
        if q % 5 == 0:  # a state given as a list, not an array
            assert outcome(field.slope, t, np.array(x).tolist()) == got
        seen.add("value" if isinstance(got, bytes) else "hole" if "skipped" in got[1] else "box")
    # values and queries beyond the box came up, and holes did whenever the table has them
    assert seen == ({"value", "box", "hole"} if holes else {"value", "box"})


def test_interpolation_matches_the_corner_loop_on_edge_cases():
    rng = np.random.default_rng(3)
    field = _holey_field(rng, np.array([0.0, 1.0, 2.5]), [np.array([-1.0, 0.0, 2.0])], 1)
    for t, x in [(0.0, [-1.0]), (2.5, [2.0]), (-0.0, [-0.0]), (1.0, [math.nan]),
                 (math.nan, [0.0]), (math.inf, [0.0]), (0.5, [-math.inf]), (-1.0, [4.0]),
                 (-1.0000001, [0.0]), (5.0, [0.0]), (3.5, [4.0 + 1e-12])]:
        assert outcome(field.slope, t, x) == outcome(reference_interp, field, t, x), (t, x)
    with pytest.raises(ValueError):
        field.slope(0.0, [0.1, 0.2])
    # the sum starts at +0.0, so a knot holding -0.0 interpolates to +0.0
    field.table[1, 1, 0] = -0.0
    assert outcome(field.slope, 1.0, [0.0]) == outcome(reference_interp, field, 1.0, [0.0]) == b"\0" * 8


# tables with holes, in 2-D (two holes), 1-D and 3-D; coordinates on and between the knots,
# at the box's edges, up to and past one cell beyond them, and not finite
_LANE_TIMES, _LANE_AXES = np.array([0.0, 1.0, 2.5]), [np.array([-1.0, 0.0, 2.0]), np.array([-0.5, 0.5])]
_LANE_FIELD = _holey_field(np.random.default_rng(11), _LANE_TIMES, _LANE_AXES, 2)
_LANE_FIELD_1D = _holey_field(np.random.default_rng(12), _LANE_TIMES, _LANE_AXES[:1], 1)
_LANE_FIELD_3D = _holey_field(np.random.default_rng(13), _LANE_TIMES, [*_LANE_AXES, np.array([0.0, 0.25, 1.0])], 3)


def _lane_coordinate(knots):
    lo, hi, cell = float(knots[0]), float(knots[-1]), float(knots[1] - knots[0])
    edges = [*knots.tolist(), -0.0, lo - cell, hi + cell, lo - 1.01 * cell, hi + 1.01 * cell,
             math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan, math.inf, -math.inf]
    return st.one_of(st.sampled_from(edges), st.floats(lo - 3.0 * cell, hi + 3.0 * cell))


def _lane_points(field):
    return st.lists(st.tuples(*map(_lane_coordinate, [field.times, *field.axes])), min_size=1, max_size=12)


def assert_lanes_are_scalar_calls(field, points):
    t, x = np.array([p[0] for p in points]), np.array([p[1:] for p in points])
    values, ok = field.lanes(t, x)
    inside = field.domain.contains_lanes(t, x)
    assert values.shape == x.shape and ok.dtype == inside.dtype == bool
    for i, (t_i, *x_i) in enumerate(points):
        want = outcome(field.slope, t_i, x_i)
        assert ok[i] == isinstance(want, bytes)
        assert values[i].tobytes() == want if ok[i] else np.isnan(values[i]).all()
        assert inside[i] == field.domain.contains(t_i, x_i)


@settings(max_examples=30, deadline=None)
@given(_lane_points(_LANE_FIELD))
@example([(0.0, -1.0, -0.5), (2.5, 2.0, 0.5), (2.5, -1.0, 0.5), (0.0, 2.0, -0.5),  # the box's corners
          (math.nextafter(2.5, 3.0), 2.0, 0.5), (0.0, -1.0, math.nextafter(-0.5, -1.0))])
def test_tabulated_lanes_are_its_scalar_calls(points):
    assert_lanes_are_scalar_calls(_LANE_FIELD, points)


@settings(max_examples=30, deadline=None)
@given(_lane_points(_LANE_FIELD_1D))
@example([(math.nan, 0.0), (0.5, math.nan), (math.inf, 0.0), (0.5, -math.inf), (-1.0, 4.0), (3.5, -3.0)])
def test_tabulated_lanes_are_its_scalar_calls_in_one_dimension(points):
    # NaN: bisect_left puts it before every knot and searchsorted after, and both lanes fail as the sum's hole
    assert_lanes_are_scalar_calls(_LANE_FIELD_1D, points)


@settings(max_examples=30, deadline=None)
@given(_lane_points(_LANE_FIELD_3D))
@example([(1.0, 0.0, 0.5, 0.25), (2.5, 2.0, 0.5, 1.0), (0.0, -1.0, -0.5, math.nan), (0.5, 0.5, 0.0, 1.76)])
def test_tabulated_lanes_are_its_scalar_calls_in_three_dimensions(points):
    assert_lanes_are_scalar_calls(_LANE_FIELD_3D, points)


def test_tabulated_lanes_read_the_table_as_it_is_now():
    field = _holey_field(np.random.default_rng(4), _LANE_TIMES, _LANE_AXES[:1], 0)
    cfg, point = IntegratorConfig(window=(0.0, 2.5)), (0.9, 0.4, [0.2])
    fam = numeric_family(field, cfg)
    first = fam.evaluate(*point)  # the driver has run once before the writes below
    field.table[1, 1, 0] = -0.0  # written after construction: both forms and the driver read the table in place
    t, x = np.array([1.0, 1.0, 0.5]), np.array([[0.0], [-0.0], [0.0]])
    values, ok = field.lanes(t, x)
    assert ok.all() and values[:2].tobytes() == b"\0" * 16 == np.array([field.slope(1.0, [0.0])]).tobytes() * 2
    copied = numeric_family(TabulatedVectorField(field.times, field.axes, field.table.copy()), cfg)
    assert fam.evaluate(*point).tobytes() == copied.evaluate(*point).tobytes() != first.tobytes()
    field.table[1, 1, 0] = math.nan
    assert field.lanes(t, x)[1].tolist() == [False, False, False]
    assert outcome(field.slope, 1.0, [0.0]) == ("domain", "query touches a skipped tabulation site")
    assert not fam.in_domain(*point)
    with pytest.raises(ValueError, match=re.escape("state has wrong dimension for this field (1)")):
        field.lanes(t, np.zeros((3, 2)))


def test_knots_are_frozen_copies():
    times, knots = np.array([0.0, 1.0, 2.0]), np.array([-1.0, 1.0])
    field = TabulatedVectorField(times, [knots], np.zeros((3, 2, 1)))
    for frozen in (field.times, field.axes[0]):
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = -5.0
    times[0], knots[0] = -5.0, -3.0  # the caller's arrays stay writeable, and the field's knots do not follow them
    assert field.times[0] == 0.0 and field.axes[0][0] == -1.0 and field.domain.time_lo == 0.0
    assert field.slope(0.0, [-1.0]) == (0.0,)


def test_box_domain_contains_keeps_its_edges_and_its_answers():
    box = BoxDomain(time_lo=0.0, time_hi=1.0, state_lo=(-1.0, 0.0), state_hi=(1.0, 2.0))
    assert box.contains(0.0, (-1.0, 2.0)) and box.contains(1.0, [1.0, 0.0]) and box.contains(0.5, np.zeros(2))
    assert not box.contains(0.5, (math.nan, 1.0)) and not box.contains(math.nan, (0.0, 1.0))
    assert not box.contains(0.5, (0.0, math.nextafter(2.0, 3.0)))
    assert not box.contains(0.5, (5.0,))  # outside before the state runs short, as all() over zip stopped
    for x, message in [((0.0,), "zip() argument 2 is shorter than argument 1"),
                       ((0.0, 1.0, 2.0), "zip() argument 2 is longer than argument 1")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            box.contains(0.5, x)


def test_rebuilt_family_batch_is_its_point_evaluations(monkeypatch):
    # more lanes than the lane/scalar split run in the lane driver, whose tries evaluate the field's lanes; holes
    # in the table end some lanes at their start or in a step that cannot shrink past them,
    # and the box the trajectories leave ends others
    rng = np.random.default_rng(9)
    times, axes = np.linspace(-1.0, 1.0, 9), [np.linspace(-1.0, 1.0, 11)]
    table = np.sin(3.0 * times[:, None] + 2.0 * axes[0][None, :])[..., None] + 0.2 * rng.uniform(-1.0, 1.0, (9, 11, 1))
    table[6, 2, 0] = table[2, 8, 0] = math.nan
    field = TabulatedVectorField(times, axes, table)
    widest, lanes = [], field.lanes
    monkeypatch.setattr(field, "lanes", lambda t, x: widest.append(len(t)) or lanes(t, x))
    count = integrate._TAIL_LANES + 80
    sigma, a = rng.uniform(-0.9, 0.9, count), rng.uniform(-0.9, 0.9, (count, 1))
    tau = np.where(np.arange(count) % 8 == 0, sigma, rng.uniform(-1.0, 1.0, count))
    values, ok = numeric_family(field, IntegratorConfig()).evaluate_batch(tau, sigma, a)
    scalar = numeric_family(field, IntegratorConfig())
    seen = set()
    for i in range(count):
        try:
            want = [v.hex() for v in scalar.evaluate(tau[i], sigma[i], a[i]).tolist()]
        except DomainViolation as err:
            assert not ok[i], (i, str(err))
            escape = re.search(r"\((\w+)\)$", str(err))
            seen.add(escape[1] if escape else "hole" if "skipped tabulation site" in str(err) else str(err))
        else:
            assert ok[i] and [v.hex() for v in values[i].tolist()] == want, i
            seen.add("value")
    assert seen == {"value", "hole", "step_underflow", "left_domain"}
    assert max(widest) > integrate._TAIL_LANES
