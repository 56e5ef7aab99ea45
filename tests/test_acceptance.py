"""Release gate: the nine shipping criteria, one test each.

Every test reports a `[criterion N] PASS/FAIL` line through the `gate`
fixture, which replays all lines after the run, then asserts.  Tolerances are
pinned here and nowhere else; loosening one is a release decision, not a
test fix.
"""

import hashlib
import importlib.util
import json
import math
import pathlib
import time

import numpy as np

from flowfam import catalog
from flowfam import expr as ex
from flowfam.autonomous import check_group_law, check_time_shift, to_group
from flowfam.cli import main as cli_main
from flowfam.core import FlowFamily, closed_form_family
from flowfam.integrate import IntegratorConfig, escape_interval, numeric_family
from flowfam.linear import (
    family_from_decomposition,
    mollify,
    sincov_decompose,
    smooth_apply,
    wronski_consistency,
)
from flowfam.reconstruct import ReconstructionConfig, field_from_family, roundtrip_error
from flowfam.verify import SamplePlan, check_cocycle, default_plan, run_suite

# Shared evaluation grid: all criteria that compare flow maps pointwise
# sample these times and states, guarded by (tau - sigma) * a < 0.9 so the
# reference trajectories stay clear of blow-up.
GRID_TIMES = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
GRID_STATES = (-1.0, -0.5, 0.0, 0.25, 0.5)
GUARD = 0.9



def _guarded_pairs():
    for tau in GRID_TIMES:
        for sigma in GRID_TIMES:
            for a in GRID_STATES:
                if (tau - sigma) * a < GUARD:
                    yield tau, sigma, a


def test_criterion_1_numeric_matches_closed_form(gate):
    """Integrated flow of x' = x^2 agrees with the closed form to 1e-8."""
    entry = catalog.get("riccati")
    closed = entry.family()
    numeric = numeric_family(entry.field(), IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for tau, sigma, a in _guarded_pairs():
        want = closed.evaluate(tau, sigma, (a,))
        got = numeric.evaluate(tau, sigma, (a,))
        worst = max(worst, abs(float(got[0] - want[0])))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    gate(1, ok, f"max gap {worst:.3e} over {count} guarded points in {elapsed:.2f}s")


def test_criterion_2_escape_interval(gate):
    """Blow-up time of x' = x^2 from (0, 0.5) is located to 1e-3."""
    field = catalog.get("riccati").field()
    interval = escape_interval(field, 0.0, (0.5,))
    ok = (
        abs(interval.upper - 2.0) <= 1e-3
        and interval.upper_kind == "blow_up"
        and interval.lower_kind == "window_limit"
    )
    gate(
        2,
        ok,
        f"upper {interval.upper:.6f} ({interval.upper_kind}), "
        f"lower {interval.lower:.1f} ({interval.lower_kind})",
    )


def _dense_plan():
    return SamplePlan(
        tuple(np.linspace(-1.1, 1.6, 7)),
        tuple((s,) for s in np.linspace(-2.4, 2.4, 4001)),
        random_count=0,
        seed=0,
    )


def test_criterion_3_reconstruction(gate):
    """Tabulated rates recover x^2 to 1e-6; the rebuilt flow round-trips to 1e-5."""
    fam = catalog.get("riccati").family()
    cfg = ReconstructionConfig(h=1e-4, richardson=True, grid=_dense_plan())

    field = field_from_family(fam, cfg)
    states = field.axes[0]
    recovery = 0.0
    for it in range(len(field.times)):
        col = field.table[it, :, 0]
        mask = np.isfinite(col)
        recovery = max(recovery, float(np.max(np.abs(col[mask] - states[mask] ** 2))))

    eval_plan = SamplePlan(
        GRID_TIMES, tuple((s,) for s in GRID_STATES), random_count=0, seed=0
    )
    rt = roundtrip_error(fam, cfg, eval_plan=eval_plan)
    ok = recovery <= 1e-6 and rt <= 1e-5
    gate(3, ok, f"field recovery {recovery:.3e}, flow round-trip {rt:.3e}")
    # bit-level pins: a faster tabulation or interpolation must reproduce
    # the table and both figures exactly, not merely within the bounds; the
    # round trip integrates in plain float arithmetic, so its figure is the
    # same on every IEEE-double machine
    assert recovery.hex() == "0x1.b418000000000p-36"  # 2.479e-11
    assert rt.hex() == "0x1.6cf7f4b500000p-19"  # 2.719e-06
    assert field.skipped_sites == 0
    assert hashlib.sha256(field.table.tobytes()).hexdigest() == (
        "112c1e30daed040ce8ff9ab6cb33046a27aefb9da0a743c14e165e87fd520154"
    )


def test_criterion_4_condition_suite(gate):
    """Suite passes all catalog families, flags each counterexample, and the
    numeric flow satisfies the composition rule to 1e-7."""
    details = []
    ok = True

    for name in catalog.names():
        entry = catalog.get(name)
        report = run_suite(entry.family(), default_plan(entry.n))
        ok &= report.passed
        if not report.passed:
            details.append(f"{name} unexpectedly failed")

    riccati_map = "a1/(1 + (sigma - tau)*a1)"
    riccati_dom = "1 - (tau - sigma)*a1"
    broken_identity = closed_form_family(1, [riccati_map + " + 0.1"], predicate=riccati_dom)

    def collapse(tau, sigma, a):
        return a.copy() if tau == sigma else np.zeros_like(a)

    non_bijective = FlowFamily(1, "closed_form", collapse)
    drifted = closed_form_family(1, ["a1 + 0.01*(tau - sigma)^3"])

    plan = default_plan(1)
    for fam, expected in (
        (broken_identity, "identity"),
        (non_bijective, "inverse"),
        (drifted, "cocycle"),
    ):
        report = run_suite(fam, plan)
        failed = [r.condition_name for r in report.conditions if not r.passed]
        if report.passed or expected not in failed:
            ok = False
            details.append(f"counterexample for {expected} flagged {failed}")
    # the drifted family must fail *only* the composition rule
    drift_report = run_suite(drifted, plan)
    drift_failed = [r.condition_name for r in drift_report.conditions if not r.passed]
    if drift_failed != ["cocycle"]:
        ok = False
        details.append(f"drifted family flagged {drift_failed}")

    numeric = numeric_family(catalog.get("riccati").field(), IntegratorConfig())
    random_plan = SamplePlan(
        GRID_TIMES, ((-0.3,), (0.0,), (0.3,)), random_count=1000, seed=20240817
    )
    rep = check_cocycle(numeric, random_plan, tol=1e-7)
    ok &= rep.passed
    details.append(
        f"numeric cocycle residual {rep.max_residual:.3e} "
        f"({rep.samples_checked} checked, {rep.samples_skipped} skipped)"
    )
    gate(4, ok, "; ".join(details))


def test_criterion_5_sincov_decomposition(gate):
    """Affine flows split into matrix and offset parts, gauge independent."""
    fam = catalog.get("affine_scalar").family()
    ln2 = math.log(2.0)
    grid = (0.0, 0.25, 0.5, ln2, 1.0)

    dec0 = sincov_decompose(fam, 0.0, grid)
    i = dec0.grid.index(ln2)
    w = float(dec0.W[i][0, 0])
    p = float(dec0.particular(i)[0])
    ok = abs(w - 2.0) <= 1e-8 and abs(p - 1.0) <= 1e-8

    dec1 = sincov_decompose(fam, 1.0, grid)
    rebuilt0 = family_from_decomposition(dec0)
    rebuilt1 = family_from_decomposition(dec1)
    gauge_gap = 0.0
    for tau in grid:
        for sigma in grid:
            for a in (-0.5, 0.0, 0.5, 1.0):
                lhs = rebuilt0.evaluate(tau, sigma, (a,))
                rhs = rebuilt1.evaluate(tau, sigma, (a,))
                gauge_gap = max(gauge_gap, abs(float(lhs[0] - rhs[0])))
    ok &= gauge_gap <= 1e-10

    # affinity already certified above; the fine grid only feeds the
    # finite-difference consistency check
    fine = sincov_decompose(fam, 0.0, tuple(np.linspace(0.0, 1.0, 101)), check=False)
    consistency = wronski_consistency(fine, catalog.get("affine_scalar").field(), tol=1e-3)
    ok &= consistency.passed
    gate(
        5,
        ok,
        f"W(ln 2) = {w:.10f}, p(ln 2) = {p:.10f}, gauge gap {gauge_gap:.2e}, "
        f"rate consistency residual {consistency.max_residual:.2e}",
    )


def test_criterion_6_mollifier(gate):
    """Window averages of the rotation group behave like sinc(eps) times a
    rotation and smoothing reproduces the group."""
    group = to_group(catalog.get("rotation").family())

    m = mollify(group, math.pi / 2, panels=256)
    target = (2.0 / math.pi) * np.eye(2)
    avg_gap = float(np.max(np.abs(m.H.A - target)))
    ok = avg_gap <= 1e-10

    m_smooth = mollify(group, 0.25, panels=256)
    states = ((1.0, 0.0), (0.0, 1.0), (-0.5, 0.5), (0.3, -0.7))
    smooth_gap = 0.0
    for alpha in (-1.0, -0.3, 0.0, 0.3, 1.0):
        mapped = smooth_apply(group, m_smooth, alpha)
        for s in states:
            a = np.array(s)
            smooth_gap = max(
                smooth_gap, float(np.max(np.abs(mapped(a) - group.evaluate(alpha, a))))
            )
    ok &= smooth_gap <= 1e-8

    deviations = [
        float(np.max(np.abs(mollify(group, eps, panels=256).H.A - np.eye(2))))
        for eps in (0.4, 0.2, 0.1, 0.05)
    ]
    monotone = all(x > y for x, y in zip(deviations, deviations[1:]))
    ok &= monotone
    gate(
        6,
        ok,
        f"quarter-turn average gap {avg_gap:.2e}, smoothing gap {smooth_gap:.2e}, "
        f"identity deviation {['%.1e' % d for d in deviations]} monotone={monotone}",
    )


def test_criterion_7_autonomy(gate):
    """Time-shift detection sorts the catalog correctly and reduced groups
    obey the addition law."""
    families = {name: catalog.get(name).family() for name in ("riccati", "exp_scalar", "rotation", "shear")}
    verdicts = {name: check_time_shift(f, default_plan(f.n)).passed for name, f in families.items()}
    expected = {"riccati": True, "exp_scalar": True, "rotation": True, "shear": False}
    ok = verdicts == expected

    group = to_group(catalog.get("riccati").family())
    plan = SamplePlan(
        (-0.4, -0.2, 0.0, 0.2, 0.4),
        ((-0.3,), (0.0,), (0.3,)),
        random_count=500,
        seed=911,
    )
    law = check_group_law(group, plan, tol=1e-7)
    ok &= law.passed

    mid = group.evaluate(0.5, (0.5,))
    composed = group.evaluate(0.5, mid)
    direct = group.evaluate(1.0, (0.5,))
    worked = abs(composed[0] - 1.0) <= 1e-12 and abs(direct[0] - 1.0) <= 1e-12
    ok &= worked
    gate(
        7,
        ok,
        f"verdicts {verdicts}, group-law residual {law.max_residual:.2e} "
        f"over {law.samples_checked} triples, halving composition lands on 1: {worked}",
    )


def test_criterion_8_expression_corpus(gate):
    """The golden corpus round-trips and the documented parse errors point
    at the right bytes."""
    here = pathlib.Path(__file__).resolve().parent
    spec = importlib.util.spec_from_file_location("expr_corpus", here / "test_expr.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    corpus = mod.CORPUS
    ok = len(corpus) >= 30
    failures = 0
    for source, canonical in corpus:
        tree = ex.parse(source)
        if ex.pretty_print(tree) != canonical or ex.parse(canonical) != tree:
            failures += 1
    ok &= failures == 0

    documented = [("x1 +", 4), ("(x1", 3), ("foo(1)", 0)]
    doc_text = (here.parent / "docs" / "expressions.md").read_text()
    offsets_ok = True
    for source, offset in documented:
        try:
            ex.parse(source)
            offsets_ok = False
        except ex.ParseError as err:
            offsets_ok &= err.offset == offset
        offsets_ok &= f"`{source}`" in doc_text
    ok &= offsets_ok
    gate(
        8,
        ok,
        f"{len(corpus)} corpus entries, {failures} round-trip failures, "
        f"documented offsets hold: {offsets_ok}",
    )


def test_criterion_9_reproducible_reports(gate, tmp_path):
    """Same config, same seed, no timestamp: byte-identical output."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"system": {"catalog": "riccati"}}))
    outputs = []
    codes = []
    for name in ("first.ndjson", "second.ndjson"):
        out = tmp_path / name
        codes.append(
            cli_main(
                [
                    "verify",
                    "--config",
                    str(cfg_path),
                    "--seed",
                    "1234",
                    "--no-timestamp",
                    "--out",
                    str(out),
                ]
            )
        )
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    ok = identical and codes == [0, 0]
    gate(
        9,
        ok,
        f"two runs, exit codes {codes}, byte-identical: {identical} "
        f"({len(outputs[0])} bytes)",
    )
