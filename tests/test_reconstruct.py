"""Vector-field recovery: finite-difference rates, tabulation, roundtrips."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfam import catalog
from flowfam import expr as ex
from flowfam.core import DomainViolation, closed_form_family
from flowfam.integrate import IntegratorConfig, numeric_family
from flowfam.reconstruct import (
    BoxDomain,
    ReconstructionConfig,
    ReconstructionFailed,
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
    fam = closed_form_family(1, ["exp(tau - sigma)*a1"], time_box=(-1.0, 1.0))
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
            worst = max(worst, abs(riccati_field(t, [a])[0] - a * a))
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
    riccati_field(0.0, [2.4 + 0.5 * dx])  # one overshot stage point is fine
    with pytest.raises(ex.EvalError):
        riccati_field(0.0, [2.4 + 3.0 * dx])


def test_tabulated_rejects_wrong_dimension(riccati_field):
    with pytest.raises(ValueError):
        riccati_field(0.0, [0.1, 0.2])


def test_tabulated_validates_shape():
    times = np.array([0.0, 1.0])
    axes = [np.array([0.0, 1.0])]
    with pytest.raises(ValueError):
        TabulatedVectorField(times, axes, np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        TabulatedVectorField(np.array([0.0]), axes, np.zeros((1, 2, 1)))
    with pytest.raises(ValueError):
        TabulatedVectorField(np.array([1.0, 0.0]), axes, np.zeros((2, 2, 1)))


def test_field_from_family_checks_plan_dimension():
    plan = SamplePlan((0.0, 1.0), ((0.0, 0.0), (1.0, 1.0)), random_count=0)
    with pytest.raises(ValueError):
        field_from_family(riccati_family(), ReconstructionConfig(grid=plan))


def test_holes_are_skipped_not_extrapolated():
    fam = closed_form_family(1, ["exp(tau - sigma)*a1"], time_box=(-1.0, 1.0))
    plan = SamplePlan(
        (-0.99995, -0.5, 0.0, 0.5, 0.99995),
        tuple((s,) for s in np.linspace(-1.0, 1.0, 5)),
        random_count=0,
    )
    field = field_from_family(fam, ReconstructionConfig(grid=plan))
    assert field.skipped_sites == 10  # both edge rows sit too close to the window
    assert np.allclose(field(0.0, [0.5]), [0.5], atol=1e-9)
    with pytest.raises(ex.EvalError):
        field(-0.9999, [0.5])  # interpolation would touch a hole


def test_start_touching_a_hole_leaves_the_rebuilt_domain():
    fam = closed_form_family(1, ["exp(tau - sigma)*a1"], time_box=(-1.0, 1.0))
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
    fam = closed_form_family(1, ["exp(tau - sigma)*a1"], time_box=(-1.0, 1.0))
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
                rhs = riccati_field(tau, mid)
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
            assert field(t, [x])[0] == table[i, j, 0]


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
    got = field(0.7, [0.3, 1.9])
    want = np.array([3 * 0.7 - 0.3 + 2 * 1.9 + 1, 0.7 + 0.3])
    assert np.allclose(got, want, atol=1e-12)


def test_sites_are_time_major():
    table = np.arange(2 * 3 * 1, dtype=float).reshape(2, 3, 1)
    tab = TabulatedVectorField(np.array([0.0, 1.0]), [np.array([-1.0, 0.0, 1.0])], table)
    sites = [(t, float(x[0]), float(v[0])) for t, x, v in tab.sites()]
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


def test_both_fields_return_a_tuple_of_floats():
    # one rhs contract for the integrator: a tuple of n floats from any sequence of n floats
    rotation = catalog.get("rotation").field()
    times, axes = np.array([0.0, 1.0]), [np.array([-1.0, 1.0]), np.array([0.0, 4.0])]
    table = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
    tabulated = TabulatedVectorField(times, axes, table)
    for fld in (rotation, tabulated):
        for x in ((0.5, 1.5), [0.5, 1.5], np.array([0.5, 1.5])):
            got = fld(0.25, x)
            assert type(got) is tuple and len(got) == 2 and all(type(v) is float for v in got)
            assert got == fld(0.25, (0.5, 1.5))


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
    """The per-corner interpolation loop, as TabulatedVectorField.__call__ once ran it."""
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
                             time_box=(-1.0, 1.0))
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
@pytest.mark.parametrize("n", [1, 2])
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
        got = outcome(field, t, x)
        assert got == outcome(reference_interp, field, t, x), (t, x)
        if q % 5 == 0:  # a state given as a list, not an array
            assert outcome(field, t, np.array(x).tolist()) == got
        seen.add("value" if isinstance(got, bytes) else "hole" if "skipped" in got[1] else "box")
    # values and queries beyond the box came up, and holes did whenever the table has them
    assert seen == ({"value", "box", "hole"} if holes else {"value", "box"})


def test_interpolation_matches_the_corner_loop_on_edge_cases():
    rng = np.random.default_rng(3)
    field = _holey_field(rng, np.array([0.0, 1.0, 2.5]), [np.array([-1.0, 0.0, 2.0])], 1)
    for t, x in [(0.0, [-1.0]), (2.5, [2.0]), (-0.0, [-0.0]), (1.0, [math.nan]),
                 (math.nan, [0.0]), (math.inf, [0.0]), (0.5, [-math.inf]), (-1.0, [4.0]),
                 (-1.0000001, [0.0]), (5.0, [0.0]), (3.5, [4.0 + 1e-12])]:
        assert outcome(field, t, x) == outcome(reference_interp, field, t, x), (t, x)
    with pytest.raises(ValueError):
        field(0.0, [0.1, 0.2])
    # the sum starts at +0.0, so a knot holding -0.0 interpolates to +0.0
    field.table[1, 1, 0] = -0.0
    assert outcome(field, 1.0, [0.0]) == outcome(reference_interp, field, 1.0, [0.0]) == b"\0" * 8


# a 2-D table with two holes; coordinates on and between the knots, at the box's edges,
# up to and past one cell beyond them, and not finite
_LANE_TIMES, _LANE_AXES = np.array([0.0, 1.0, 2.5]), [np.array([-1.0, 0.0, 2.0]), np.array([-0.5, 0.5])]
_LANE_FIELD = _holey_field(np.random.default_rng(11), _LANE_TIMES, _LANE_AXES, 2)


def _lane_coordinate(knots):
    lo, hi, cell = float(knots[0]), float(knots[-1]), float(knots[1] - knots[0])
    edges = [*knots.tolist(), -0.0, lo - cell, hi + cell, lo - 1.01 * cell, hi + 1.01 * cell,
             math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan, math.inf, -math.inf]
    return st.one_of(st.sampled_from(edges), st.floats(lo - 3.0 * cell, hi + 3.0 * cell))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(*map(_lane_coordinate, [_LANE_TIMES, *_LANE_AXES])), min_size=1, max_size=12))
@example([(0.0, -1.0, -0.5), (2.5, 2.0, 0.5), (2.5, -1.0, 0.5), (0.0, 2.0, -0.5),  # the box's corners
          (math.nextafter(2.5, 3.0), 2.0, 0.5), (0.0, -1.0, math.nextafter(-0.5, -1.0))])
def test_tabulated_lanes_are_its_scalar_calls(points):
    t, x = np.array([p[0] for p in points]), np.array([p[1:] for p in points])
    values, ok = _LANE_FIELD.lanes(t, x)
    inside = _LANE_FIELD.domain.contains_lanes(t, x)
    assert values.shape == x.shape and ok.dtype == inside.dtype == bool
    for i, (t_i, *x_i) in enumerate(points):
        want = outcome(_LANE_FIELD, t_i, x_i)
        assert ok[i] == isinstance(want, bytes)
        assert values[i].tobytes() == want if ok[i] else np.isnan(values[i]).all()
        assert inside[i] == _LANE_FIELD.domain.contains(t_i, x_i)
