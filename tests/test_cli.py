"""End-to-end checks of the command-line layer: config resolution, NDJSON
shapes, exit codes, CSV artifacts, and byte-level reproducibility."""

import collections
import json
import math
import os
import subprocess
import sys

import pytest

from flowfam import expr, pcg
from flowfam.cli import ConfigError, load_config, main
from flowfam.verify import SamplePlan


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    return code, [json.loads(ln) for ln in lines]


RICCATI = {"system": {"catalog": "riccati"}}
SMALL_PLAN = {
    "time_grid": [-0.5, 0.0, 0.5],
    "state_grid": [[-0.3], [0.0], [0.3]],
    "random_count": 3,
    "seed": 42,
}


# --- config loading ----------------------------------------------------------


def test_load_catalog_config(tmp_path):
    spec = load_config(write_config(tmp_path, RICCATI))
    assert spec.system_name == "catalog:riccati"
    assert spec.field is not None and spec.family is not None


def test_load_field_config(tmp_path):
    path = write_config(
        tmp_path,
        {
            "system": {
                "field": {
                    "n": 1,
                    "rhs": ["x1^2"],
                    "domain": {"time": [-3, 3], "predicate": "4 - x1^2"},
                }
            }
        },
    )
    spec = load_config(path)
    assert spec.family is None
    assert spec.field.n == 1
    assert spec.field.domain.time_box == (-3.0, 3.0)


def test_load_family_config(tmp_path):
    path = write_config(
        tmp_path,
        {
            "system": {
                "family": {
                    "n": 1,
                    "components": ["a1/(1 + (sigma - tau)*a1)"],
                    "domain_predicate": "1 - (tau - sigma)*a1",
                }
            }
        },
    )
    spec = load_config(path)
    assert spec.field is None
    assert spec.family.evaluate(1.0, 0.0, (0.5,))[0] == pytest.approx(1.0)


def test_two_system_sources_rejected(tmp_path):
    path = write_config(
        tmp_path,
        {"system": {"catalog": "riccati", "field": {"n": 1, "rhs": ["x1"]}}},
    )
    with pytest.raises(ConfigError, match="exactly one system source"):
        load_config(path)


def test_no_system_source_rejected(tmp_path):
    with pytest.raises(ConfigError, match="exactly one system source"):
        load_config(write_config(tmp_path, {"system": {}}))


def test_unknown_catalog_name(tmp_path):
    path = write_config(tmp_path, {"system": {"catalog": "lorenz"}})
    with pytest.raises(ConfigError, match="system.catalog"):
        load_config(path)


def test_field_component_validation(tmp_path):
    # x2 does not exist in a one-dimensional field
    path = write_config(tmp_path, {"system": {"field": {"n": 1, "rhs": ["x2"]}}})
    with pytest.raises(ConfigError, match="x2"):
        load_config(path)


def test_parse_error_carries_offset(tmp_path):
    path = write_config(tmp_path, {"system": {"field": {"n": 1, "rhs": ["x1 +"]}}})
    with pytest.raises(ConfigError, match="offset 4"):
        load_config(path)


def test_non_ascii_digit_is_a_parse_error_with_its_offset(tmp_path, capsys):
    path = write_config(tmp_path, {"system": {"field": {"n": 1, "rhs": ["x1 + ²"]}}})
    code, recs = run_cli(["flow", "--config", path, "--tau", "0", "--sigma", "0", "--a", "1"], capsys)
    assert code == 2
    assert recs[0]["message"].endswith("expression error at offset 5: unexpected character '²'")


def test_invalid_json_reports_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"system": {')
    with pytest.raises(ConfigError, match="offset"):
        load_config(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="<file>"):
        load_config(str(tmp_path / "nope.json"))


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(path))


def test_integrator_overrides(tmp_path):
    path = write_config(
        tmp_path,
        {**RICCATI, "integrator": {"rel_tol": 1e-12, "window": [-10, 10]}},
    )
    spec = load_config(path)
    assert spec.integrator.rel_tol == 1e-12
    assert spec.integrator.window == (-10.0, 10.0)


def test_unknown_integrator_key(tmp_path):
    path = write_config(tmp_path, {**RICCATI, "integrator": {"steps": 5}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"system": {"field": {"n": 1, "rhs": ["x1"], "domain": [1, 2]}}}, "system.field"),
        ({"system": {"field": {"n": 1, "rhs": ["x1"], "domain": {"time": 5}}}}, "system.field"),
        ({**RICCATI, "integrator": {"window": 3}}, "integrator"),
        ({"system": {"catalog": ["riccati"]}}, "system.catalog"),
        ({"system": {"family": {"n": 1, "components": [5]}}}, "system.family"),
        ({"system": {"field": {"n": 1, "rhs": ["x1"], "domain": {"time": ["a", "b"]}}}}, "system.field"),
        ({**RICCATI, "integrator": {"window": ["a", "b"]}}, "integrator"),
        ({**RICCATI, "tolerances": {"identity": "x"}}, "tolerances"),
        ({**RICCATI, "integrator": {"max_steps": 2.5}}, "integrator"),
        ({"system": {"field": {"n": 1, "rhs": "x1"}}}, "system.field: rhs must be a list"),
        ({"system": {"family": {"n": 1, "components": "a1"}}}, "system.family: components must be a list"),
        ({**RICCATI, "integrator": {"max_steps": True}}, "integrator.max_steps"),
        ({**RICCATI, "tolerances": {"identity": True}}, "tolerances.identity"),
        ({**RICCATI, "plan": {**SMALL_PLAN, "random_count": True}}, "plan.random_count"),
        ({"system": {"field": {"n": True, "rhs": ["x1"]}}}, "system.field.n"),
        ({"system": {"field": {"n": 1.9, "rhs": ["x1"]}}}, "system.field.n"),
        ({"system": {"family": {"n": 1.0, "components": ["a1"]}}}, "system.family.n"),
        ({**RICCATI, "plan": {**SMALL_PLAN, "seed": 3.9}}, "plan.seed"),
        ({**RICCATI, "plan": {**SMALL_PLAN, "random_count": 2.5}}, "plan.random_count"),
        # a misspelled key would leave its default in force, so every config object refuses one
        ({**RICCATI, "plna": {"seed": 3}}, r"<json>: unknown keys: \['plna'\]"),
        ({"system": {"catalog": "riccati", "famliy": {}}}, r"system: unknown keys: \['famliy'\]"),
        ({"system": {"field": {"n": 1, "rhs": ["x1"], "rhs2": []}}}, r"system.field: unknown keys: \['rhs2'\]"),
        ({"system": {"field": {"n": 1, "rhs": ["x1"], "domain": {"predicte": "x1"}}}},
         r"system.field.domain: unknown keys: \['predicte'\]"),
        ({"system": {"family": {"n": 1, "components": ["a1"], "predicate": "a1"}}},
         r"system.family: unknown keys: \['predicate'\]"),
        # JSON 1e400 reads as infinity, which no knob or tolerance takes
        ({**RICCATI, "integrator": {"abs_tol": 1e400}}, "integrator: abs_tol must be finite, got inf"),
        ({**RICCATI, "integrator": {"rel_tol": 1e400}}, "integrator: rel_tol must be finite, got inf"),
        ({**RICCATI, "tolerances": {"openness_delta": 1e400}},
         "tolerances: openness_delta must be a finite number, got inf"),
        # a JSON integer past every double makes float() raise OverflowError
        ({**RICCATI, "plan": {**SMALL_PLAN, "time_grid": [0, 10**400]}}, "plan: int too large to convert to float"),
        ({**RICCATI, "plan": {**SMALL_PLAN, "state_grid": [[10**400]]}}, "plan: int too large to convert to float"),
        ({"system": {"field": {"n": 1, "rhs": ["x1"], "domain": {"time": [0, 10**400]}}}},
         "system.field: int too large to convert to float"),
        ({**RICCATI, "integrator": {"window": [0, 10**400]}}, "integrator: int too large to convert to float"),
        # random draws over a span whose max - min overflows would be infinite
        ({**RICCATI, "plan": {"time_grid": [-1e308, 1e308], "state_grid": [[0.5]], "random_count": 1}},
         "plan: random draws need"),
        ({**RICCATI, "plan": {"time_grid": [0.0], "state_grid": [[-1e308], [1e308]], "random_count": 1}},
         "plan: random draws need"),
        ({"plan": SMALL_PLAN}, "system: missing or not an object"),
        ({"system": ["riccati"]}, "system: missing or not an object"),
    ],
    ids=[
        "domain-list",
        "time-scalar",
        "window-scalar",
        "catalog-list",
        "component-number",
        "time-strings",
        "window-strings",
        "tolerance-string",
        "max-steps-fraction",
        "rhs-string",
        "components-string",
        "max-steps-bool",
        "tolerance-bool",
        "random-count-bool",
        "n-bool",
        "n-fraction",
        "family-n-float",
        "seed-fraction",
        "random-count-fraction",
        "unknown-top-level-key",
        "unknown-system-key",
        "unknown-field-key",
        "unknown-domain-key",
        "unknown-family-key",
        "abs-tol-infinite",
        "rel-tol-infinite",
        "openness-delta-infinite",
        "time-grid-huge-integer",
        "state-grid-huge-integer",
        "domain-time-huge-integer",
        "window-huge-integer",
        "time-span-overflows",
        "state-span-overflows",
        "system-missing",
        "system-list",
    ],
)
def test_malformed_value_is_config_error(tmp_path, capsys, payload, field):
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match=field):
        load_config(path)
    code, recs = run_cli(
        ["flow", "--config", path, "--tau", "0", "--sigma", "0", "--a", "1"], capsys
    )
    assert code == 2
    assert recs == [{"kind": "error", "message": recs[0]["message"]}]


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--tau", "nan", "--sigma", "0", "--a", "1,0"],
        ["flow", "--tau", "0", "--sigma", "0", "--a", "nan,0"],
        ["mollify", "--eps", "0.25", "--alpha=nan"],
        ["mollify", "--eps", "nan"],
        ["mollify", "--eps", "-1"],
        ["mollify", "--eps", "0.25", "--panels", "3"],
        ["mollify", "--panels", "1000000000000"],
        ["reconstruct", "--h", "nan"],
        ["reconstruct", "--h", "0"],
        ["decompose", "--tau0", "nan"],
        ["verify", "--seed=-1"],
        ["autonomous", "--tol", "nan"],
    ],
    ids=[
        "flow-tau-nan",
        "flow-state-nan",
        "mollify-alpha-nan",
        "mollify-eps-nan",
        "mollify-eps-negative",
        "mollify-panels-odd",
        "mollify-panels-huge",
        "reconstruct-h-nan",
        "reconstruct-h-zero",
        "decompose-tau0-nan",
        "verify-seed-negative",
        "autonomous-tol-nan",
    ],
)
def test_bad_numeric_argument_is_a_usage_error(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}})
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", cfg, "--no-timestamp"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and "expected" in err


def test_plan_overrides(tmp_path):
    path = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    spec = load_config(path)
    assert spec.plan.time_grid == (-0.5, 0.0, 0.5)
    assert spec.plan.seed == 42


def test_plan_dimension_mismatch(tmp_path):
    bad = {**SMALL_PLAN, "state_grid": [[0.0, 0.0]]}
    path = write_config(tmp_path, {**RICCATI, "plan": bad})
    with pytest.raises(ConfigError, match="dimension"):
        load_config(path)


def test_tolerance_overrides(tmp_path):
    path = write_config(tmp_path, {**RICCATI, "tolerances": {"cocycle": 1e-7}})
    assert load_config(path).tolerances.cocycle == 1e-7


def test_unknown_tolerance_key(tmp_path):
    path = write_config(tmp_path, {**RICCATI, "tolerances": {"cozycle": 1e-7}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)


# --- flow --------------------------------------------------------------------


def test_flow_value(tmp_path, capsys):
    cfg = write_config(tmp_path, RICCATI)
    code, recs = run_cli(
        ["flow", "--config", cfg, "--tau", "1", "--sigma", "0", "--a", "0.5", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert recs[0]["kind"] == "meta"
    assert recs[1] == {"kind": "value", "value": [1.0]}


def test_flow_out_of_domain_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, RICCATI)
    code, recs = run_cli(
        ["flow", "--config", cfg, "--tau", "2", "--sigma", "0", "--a", "0.5", "--no-timestamp"],
        capsys,
    )
    assert code == 1
    assert recs[1]["kind"] == "error"
    assert recs[1]["message"] == "out_of_domain"


def test_flow_dimension_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, RICCATI)
    code, recs = run_cli(
        ["flow", "--config", cfg, "--tau", "0", "--sigma", "0", "--a", "0.5,0.5", "--no-timestamp"],
        capsys,
    )
    assert code == 2
    assert recs[1]["message"] == "dimension_mismatch"
    # interval reports the same usage error in the same record
    code, recs = run_cli(["interval", "--config", cfg, "--rho", "0", "--a", "0.5,0.5", "--no-timestamp"], capsys)
    assert code == 2
    assert recs[1] == {"kind": "error", "message": "dimension_mismatch",
                       "detail": "state has length 2, field dimension is 1"}


# x' = x from 0 to 0.1 needs more than three steps from the default h_init
SHORT_BUDGET = {"system": {"field": {"n": 1, "rhs": ["x1"]}}, "integrator": {"max_steps": 3}}


@pytest.mark.parametrize(
    "argv",
    [["flow", "--tau", "0.1", "--sigma", "0", "--a", "1"], ["interval", "--rho", "0", "--a", "1"]],
    ids=["flow", "interval"],
)
def test_step_budget_exhaustion_is_an_error_record(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, SHORT_BUDGET)
    code, recs = run_cli([*argv, "--config", cfg, "--no-timestamp"], capsys)
    assert code == 1
    assert len(recs) == 2 and recs[1]["kind"] == "error"
    assert "exceeded 3 steps" in recs[1].get("detail", recs[1]["message"])


# the field's domain holds t = 3, where sqrt(2 - t) has no value
WALLED = {"system": {"field": {"n": 1, "rhs": ["sqrt(2 - t)"]}}}


@pytest.mark.parametrize(
    "argv",
    [["flow", "--tau", "4", "--sigma", "3", "--a", "0"], ["interval", "--rho", "3", "--a", "0"]],
    ids=["flow", "interval"],
)
def test_unevaluable_start_is_an_error_record(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, WALLED)
    code, recs = run_cli([*argv, "--config", cfg, "--no-timestamp"], capsys)
    assert code == 1
    assert len(recs) == 2 and recs[1]["kind"] == "error"
    assert "sqrt of negative value" in recs[1].get("detail", recs[1]["message"])


@pytest.mark.parametrize("component", ["sqrt(1e400)", "-1e400", "1e400", "log(1e400)"])
def test_overflowing_component_is_an_error_record(tmp_path, capsys, component):
    cfg = write_config(tmp_path, {"system": {"family": {"n": 1, "components": [component]}}})
    argv = ["flow", "--config", cfg, "--tau", "1", "--sigma", "0", "--a", "0.5", "--no-timestamp"]
    code, recs = run_cli(argv, capsys)
    assert code == 1
    assert recs[1]["kind"] == "error" and recs[1]["message"] == "out_of_domain"


def test_flow_config_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, recs = run_cli(
        ["flow", "--config", str(path), "--tau", "0", "--sigma", "0", "--a", "1"], capsys
    )
    assert code == 2
    assert recs[0]["kind"] == "error"


# --- interval ----------------------------------------------------------------


def test_interval_blowup_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, RICCATI)
    code, recs = run_cli(
        ["interval", "--config", cfg, "--rho", "0", "--a", "0.5", "--no-timestamp"], capsys
    )
    assert code == 1
    rec = recs[1]
    assert rec["kind"] == "interval"
    assert rec["upper"] == pytest.approx(2.0, abs=1e-3)
    assert rec["upper_kind"] == "blow_up"
    assert rec["lower_kind"] == "window_limit"


def test_interval_full_window_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"catalog": "zero"}})
    code, recs = run_cli(
        ["interval", "--config", cfg, "--rho", "0", "--a", "1", "--no-timestamp"], capsys
    )
    assert code == 0
    assert recs[1]["lower_kind"] == "window_limit"
    assert recs[1]["upper_kind"] == "window_limit"


def test_interval_rejects_an_infinite_window(tmp_path, capsys):
    # JSON 1e400 parses to inf: the window used to load, and interval then ran out of steps
    cfg = tmp_path / "config.json"
    cfg.write_text('{"system": {"catalog": "rotation"}, "integrator": {"window": [-1, 1e400], "max_steps": 1000}}')
    with pytest.raises(ConfigError, match="integrator: window ends must be finite"):
        load_config(str(cfg))
    code, recs = run_cli(
        ["interval", "--config", str(cfg), "--rho", "0", "--a", "1,0", "--no-timestamp"], capsys
    )
    assert code == 2
    assert recs == [{"kind": "error", "message": recs[0]["message"]}]
    assert "window ends must be finite" in recs[0]["message"]


@pytest.mark.parametrize("integrator", [{"rel_tol": "abc"}, {"window": ["-1", "inf"]}, {"h_min": None}])
def test_integrator_value_that_is_not_a_number_names_its_key(tmp_path, capsys, integrator):
    path = write_config(tmp_path, {**RICCATI, "integrator": integrator})
    key = next(iter(integrator))
    with pytest.raises(ConfigError, match=f"integrator: {key} must be"):
        load_config(path)
    code, recs = run_cli(["flow", "--config", path, "--tau", "0", "--sigma", "0", "--a", "1"], capsys)
    assert code == 2 and recs[0]["kind"] == "error" and f"{key} must be" in recs[0]["message"]


def test_interval_requires_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"system": {"family": {"n": 1, "components": ["a1"]}}}
    )
    code, recs = run_cli(
        ["interval", "--config", cfg, "--rho", "0", "--a", "1", "--no-timestamp"], capsys
    )
    assert code == 2
    assert recs[1]["kind"] == "error"


def test_interval_without_a_field_names_the_system_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"family": {"n": 1, "components": ["a1"]}}})
    code, recs = run_cli(["interval", "--config", cfg, "--rho", "0", "--a", "1", "--no-timestamp"], capsys)
    assert code == 2
    assert recs[1] == {"kind": "error",
                       "message": f"{cfg}: system: interval requires a vector field (catalog or field config)"}


# --- verify ------------------------------------------------------------------


def test_verify_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    code, recs = run_cli(["verify", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 0
    names = [r["name"] for r in recs if r["kind"] == "condition"]
    assert {"identity", "inverse", "cocycle"} <= set(names)
    summary = recs[-1]
    assert summary == {"kind": "summary", "pass": True, "failed": []}


def test_verify_skips_samples_that_exhaust_the_step_budget(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SHORT_BUDGET, "plan": SMALL_PLAN})
    code, recs = run_cli(["verify", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 0 and recs[-1] == {"kind": "summary", "pass": True, "failed": []}
    counts = {r["name"]: (r["samples_checked"], r["samples_skipped"]) for r in recs[1:-1]}
    # only the tau == sigma samples, which need no steps, are checked
    assert counts["inverse"] == (9, 21)
    assert counts["cocycle"] == (9, 75)


def test_verify_failure_flags_condition(tmp_path, capsys):
    # (tau - sigma)^2 drift passes identity but breaks the composition rule
    cfg = write_config(
        tmp_path,
        {
            "system": {"family": {"n": 1, "components": ["a1 + (tau - sigma)^2"]}},
            "plan": SMALL_PLAN,
        },
    )
    code, recs = run_cli(["verify", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 1
    summary = recs[-1]
    assert summary["pass"] is False
    assert "cocycle" in summary["failed"]
    assert "identity" not in summary["failed"]


# --- reconstruct -------------------------------------------------------------


def test_reconstruct_summary_and_csv(tmp_path, capsys):
    plan = {
        "time_grid": [-0.5, 0.0, 0.5],
        "state_grid": [[-0.5], [-0.25], [0.0], [0.25], [0.5]],
        "random_count": 0,
        "seed": 1,
    }
    cfg = write_config(tmp_path, {**RICCATI, "plan": plan})
    out = tmp_path / "field.csv"
    code, recs = run_cli(
        ["reconstruct", "--config", cfg, "--no-timestamp", "--out", str(out)], capsys
    )
    assert code == 0
    summary = recs[1]
    assert summary["sites"] == 15
    assert summary["skipped"] == 0
    assert summary["max_field_gap"] <= 1e-6
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,f1"
    assert len(lines) == 16
    t, x, f = map(float, lines[-1].split(","))
    assert (t, x) == (0.5, 0.5)
    assert f == pytest.approx(0.25, abs=1e-6)


def test_unsorted_time_grid_is_config_error(tmp_path, capsys):
    plan = {
        "time_grid": [0.5, -0.5, 0.0],
        "state_grid": [[-0.3], [0.0], [0.3]],
        "random_count": 0,
        "seed": 1,
    }
    cfg = write_config(tmp_path, {**RICCATI, "plan": plan})
    code, recs = run_cli(["reconstruct", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 2
    assert "sorted" in recs[0]["message"]


def test_reconstruct_deduplicates_time_knots(tmp_path, capsys):
    # sorted-with-repeats passes plan validation but knots must be strict
    plan = {
        "time_grid": [-0.5, 0.0, 0.0, 0.5],
        "state_grid": [[-0.3], [0.0], [0.3]],
        "random_count": 0,
        "seed": 1,
    }
    cfg = write_config(tmp_path, {**RICCATI, "plan": plan})
    code, recs = run_cli(["reconstruct", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 0
    assert recs[1]["knots"] == [3, 3]
    assert recs[1]["time_span"] == [-0.5, 0.5]


def test_reconstruct_mostly_outside_domain_fails(tmp_path, capsys):
    fam = {
        "system": {
            "family": {
                "n": 1,
                "components": ["a1"],
                "domain_predicate": "0.01 - tau^2",
            }
        },
        "plan": {
            "time_grid": [-1.0, 0.0, 1.0],
            "state_grid": [[0.0], [0.5]],
            "random_count": 0,
            "seed": 1,
        },
    }
    cfg = write_config(tmp_path, fam)
    code, recs = run_cli(["reconstruct", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 1
    assert recs[1]["kind"] == "error"


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"time_grid": [-0.5, 0.5], "state_grid": [[0.5]]}, "need at least two knots per state axis"),
        ({"time_grid": [0.0], "state_grid": [[-0.3], [0.3]]}, "need at least two time knots"),
    ],
    ids=["one-state-knot", "one-time-knot"],
)
def test_reconstruct_a_plan_too_small_to_tabulate_is_a_config_error(tmp_path, capsys, plan, message):
    cfg = write_config(tmp_path, {**RICCATI, "plan": {**plan, "random_count": 0}})
    code = main(["reconstruct", "--config", cfg, "--no-timestamp"])
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and err == ""
    assert [r["kind"] for r in records] == ["meta", "error"]
    assert records[1]["message"] == f"{cfg}: plan: {message}"


@pytest.mark.parametrize("h", ["1e-20", "1e-17"])
def test_reconstruct_an_h_that_leaves_a_time_knot_unmoved_is_a_config_error(tmp_path, capsys, h):
    # rotation's default plan starts at t = -1.0, where -1.0 + 1e-17 rounds to -1.0: every rate there would read 0
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}})
    out = tmp_path / "field.csv"
    code = main(["reconstruct", "--config", cfg, "--no-timestamp", "--h", h, "--out", str(out)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 2 and not out.exists()
    assert records[1] == {
        "kind": "error",
        "message": f"{cfg}: --h: finite-difference step h={h} leaves the time knot t=-1.0 unmoved",
    }


def test_reconstruct_checks_the_knots_before_it_tabulates(tmp_path, capsys, monkeypatch):
    from flowfam.core import FlowFamily

    lanes, batch = [], FlowFamily.evaluate_batch

    def counted(self, tau, *args):
        lanes.append(len(tau))
        return batch(self, tau, *args)

    monkeypatch.setattr(FlowFamily, "evaluate_batch", counted)
    plan = {"time_grid": [-0.5, 0.0, 0.5], "state_grid": [[0.5]], "random_count": 0}
    cfg = write_config(tmp_path, {"system": {"field": {"n": 1, "rhs": ["x1^2"]}}, "plan": plan})
    code = main(["reconstruct", "--config", cfg, "--no-timestamp"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 2
    assert records[1] == {"kind": "error", "message": f"{cfg}: plan: need at least two knots per state axis"}
    assert sum(lanes) == 0


# --- autonomous --------------------------------------------------------------


def test_autonomous_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    code, recs = run_cli(["autonomous", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 0
    names = [r["name"] for r in recs if r["kind"] == "condition"]
    assert names == ["time_shift", "group_law"]
    assert recs[-1]["pass"] is True


def test_autonomous_runs_time_shift_once(tmp_path, capsys, monkeypatch):
    import flowfam.autonomous
    import flowfam.cli

    calls = []
    original = flowfam.autonomous.check_time_shift

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(flowfam.autonomous, "check_time_shift", counting)
    monkeypatch.setattr(flowfam.cli, "check_time_shift", counting)
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    code, recs = run_cli(["autonomous", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 0
    assert [r["name"] for r in recs if r["kind"] == "condition"] == ["time_shift", "group_law"]
    assert len(calls) == 1


def test_autonomous_rejects_shear(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"catalog": "shear"}, "plan": SMALL_PLAN})
    code, recs = run_cli(["autonomous", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 1
    shift = recs[1]
    assert shift["name"] == "time_shift"
    assert shift["pass"] is False
    assert recs[-1]["failed"] == ["time_shift"]


# --- decompose ---------------------------------------------------------------


def test_decompose_csv_matches_oracle(tmp_path, capsys):
    ln2 = math.log(2.0)
    plan = {
        "time_grid": [0.0, 0.25, 0.5, ln2, 1.0],
        "state_grid": [[-0.5], [0.0], [0.5]],
        "random_count": 2,
        "seed": 3,
    }
    cfg = write_config(tmp_path, {"system": {"catalog": "affine_scalar"}, "plan": plan})
    out = tmp_path / "dec.csv"
    code, recs = run_cli(
        ["decompose", "--config", cfg, "--no-timestamp", "--out", str(out)], capsys
    )
    assert code == 0
    assert recs[1]["tau0"] == 0.0
    rows = {
        float(line.split(",")[0]): list(map(float, line.split(",")[1:]))
        for line in out.read_text().splitlines()[1:]
    }
    w, h = rows[ln2]
    assert w == pytest.approx(2.0, abs=1e-10)
    assert h == pytest.approx(0.5, abs=1e-10)
    w0, h0 = rows[0.0]
    assert (w0, h0) == (1.0, 0.0)


def test_decompose_rejects_nonlinear(tmp_path, capsys):
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    code, recs = run_cli(["decompose", "--config", cfg, "--no-timestamp"], capsys)
    assert code == 1
    assert recs[1]["kind"] == "error"


def test_decompose_tau0_flag(tmp_path, capsys):
    plan = {
        "time_grid": [0.5, 1.0, 1.5],
        "state_grid": [[-0.5], [0.0], [0.5]],
        "random_count": 2,
        "seed": 3,
    }
    cfg = write_config(tmp_path, {"system": {"catalog": "exp_scalar"}, "plan": plan})
    code, recs = run_cli(
        ["decompose", "--config", cfg, "--tau0", "1.0", "--no-timestamp"], capsys
    )
    assert code == 0
    assert recs[1]["tau0"] == 1.0


def test_decompose_takes_each_repeated_plan_time_once(tmp_path, capsys):
    plan = {"time_grid": [0.0, 0.0, 0.5], "state_grid": [[0.5, 0.0], [0.25, 1.0]], "random_count": 0}
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}, "plan": plan})
    code = main(["decompose", "--config", cfg, "--no-timestamp"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out.splitlines()[-1])["grid"] == [0.0, 0.5]


# --- affine probes outside the domain ------------------------------------------


@pytest.mark.parametrize(
    "predicate, argv, where",
    [
        ("1.2 - tau", ["decompose"], "tau=1.5, sigma=0.0"),  # the probe at grid time 1.5
        ("0.2 - tau + sigma", ["mollify", "--eps", "0.25"], "tau=0.25, sigma=0.0"),  # the window's end
        ("1.2 - tau + sigma", ["mollify", "--eps", "0.25", "--alpha=1.0"], "tau=1.25, sigma=0.0"),  # the smoothing window's
    ],
    ids=["decompose", "mollify", "mollify-smoothing"],
)
def test_a_probe_that_leaves_the_domain_is_an_error_record(tmp_path, capsys, predicate, argv, where):
    family = {"n": 1, "components": ["a1 + tau - sigma"], "domain_predicate": predicate}
    cfg = write_config(tmp_path, {"system": {"family": family}})
    code = main([*argv, "--config", cfg, "--no-timestamp"])
    out, err = capsys.readouterr()
    last = json.loads(out.splitlines()[-1])
    assert code == 1 and err == ""
    assert last == {"kind": "error", "message": last["message"]} and where in last["message"]


# --- mollify -----------------------------------------------------------------


ROTATION_PLAN = {
    "time_grid": [-0.5, 0.0, 0.5],
    "state_grid": [[1.0, 0.0], [0.0, 1.0], [-0.5, 0.5]],
    "random_count": 2,
    "seed": 42,
}


def test_mollify_rotation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}, "plan": ROTATION_PLAN})
    code, recs = run_cli(
        ["mollify", "--config", cfg, "--eps", "0.25", "--alpha", "0,0.3", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    summary = recs[1]
    # window average of rotations is sinc(eps) times the identity
    sinc = math.sin(0.25) / 0.25
    assert summary["H_A"][0][0] == pytest.approx(sinc, abs=1e-10)
    assert summary["H_A"][0][1] == pytest.approx(0.0, abs=1e-12)
    smoothing = recs[2]
    assert smoothing["name"] == "smoothing"
    assert smoothing["pass"] is True
    assert smoothing["max_residual"] <= 1e-8


def test_mollify_without_alpha_ends_after_the_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}, "plan": ROTATION_PLAN})
    code, recs = run_cli(["mollify", "--config", cfg, "--eps", "0.25", "--no-timestamp"], capsys)
    assert code == 0
    assert [r["kind"] for r in recs] == ["meta", "summary"]
    assert recs[1]["H_A"][0][0] == pytest.approx(math.sin(0.25) / 0.25, abs=1e-10)


def test_mollify_full_turn_average_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}, "plan": ROTATION_PLAN})
    code, recs = run_cli(
        ["mollify", "--config", cfg, "--eps", str(math.pi), "--no-timestamp"], capsys
    )
    assert code == 1
    assert recs[1]["kind"] == "error"


def test_mollify_rejects_nonautonomous(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"catalog": "shear"}, "plan": SMALL_PLAN})
    code, recs = run_cli(
        ["mollify", "--config", cfg, "--eps", "0.25", "--no-timestamp"], capsys
    )
    assert code == 1
    assert recs[1]["kind"] == "error"


@pytest.mark.parametrize(
    "argv,window",
    [
        (["--eps", "1e308"], "[-1e+308, 1e+308]"),  # hi - lo overflows
        (["--eps", "0.25", "--alpha=1e16"], "[1e+16, 1e+16]"),  # alpha +- eps rounds to alpha
    ],
    ids=["width-overflows", "width-rounds-to-zero"],
)
def test_mollify_window_without_usable_width_is_an_error_record(tmp_path, capsys, argv, window):
    cfg = write_config(tmp_path, {"system": {"catalog": "rotation"}})
    code = main(["mollify", "--config", cfg, *argv, "--no-timestamp"])
    out, err = capsys.readouterr()
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and err == ""
    assert [r["kind"] for r in recs] == ["meta", "error"]
    assert recs[1]["message"] == f"averaging window {window} has no positive finite width"


def test_mollify_smoothing_check_with_no_sample_scores_an_infinite_residual(tmp_path, capsys):
    # every plan state lies outside the domain, so the check evaluates nothing and fails
    family = {"n": 1, "components": ["exp(tau - sigma)*a1"], "domain_predicate": "3 - a1"}
    plan = {"time_grid": [0.0], "state_grid": [[5], [6]]}
    cfg = write_config(tmp_path, {"system": {"family": family}, "plan": plan})
    code, recs = run_cli(["mollify", "--config", cfg, "--eps", "0.25", "--alpha", "0.3", "--no-timestamp"], capsys)
    assert code == 1
    assert recs[2] == {"kind": "condition", "name": "smoothing", "max_residual": "inf", "pass": False,
                       "samples_checked": 0, "samples_skipped": 0, "tolerance": 1e-08, "worst_case": None,
                       "note": None}


def test_a_failing_command_writes_its_error_record_to_the_report(tmp_path, capsys):
    # the report file stays open until the error record is in it
    cfg = write_config(tmp_path, RICCATI)
    report = tmp_path / "o.ndjson"
    code = main(["mollify", "--config", cfg, "--eps", "0.25", "--no-timestamp", "--out", str(report)])
    out, err = capsys.readouterr()
    recs = [json.loads(line) for line in report.read_text().splitlines()]
    assert code == 1 and out == "" and err == ""
    assert [r["kind"] for r in recs] == ["meta", "error"]
    assert recs[1]["message"].startswith("group is not affine at parameter -0.25")


def test_mollify_smoothing_check_makes_no_scalar_query(tmp_path, capsys, monkeypatch):
    from flowfam.core import FlowFamily

    def scalar_query(*args):
        raise AssertionError("a scalar evaluate or in_domain call")

    monkeypatch.setattr(FlowFamily, "evaluate", scalar_query)
    monkeypatch.setattr(FlowFamily, "in_domain", scalar_query)
    cfg = write_config(tmp_path, {"system": {"field": {"n": 2, "rhs": ["-x2", "x1"]}}})
    code, recs = run_cli(["mollify", "--config", cfg, "--eps", "0.25", "--alpha", "0.3", "--no-timestamp"], capsys)
    assert code == 0
    assert (recs[2]["samples_checked"], recs[2]["samples_skipped"]) == (9, 0)


# --- shared flags ------------------------------------------------------------


def test_seed_flag_overrides_plan(tmp_path, capsys):
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    code, recs = run_cli(
        ["verify", "--config", cfg, "--seed", "777", "--no-timestamp"], capsys
    )
    assert code == 0
    assert recs[0]["seed"] == 777


def test_timestamp_present_by_default(tmp_path, capsys):
    cfg = write_config(tmp_path, RICCATI)
    _, recs = run_cli(
        ["flow", "--config", cfg, "--tau", "0", "--sigma", "0", "--a", "1"], capsys
    )
    assert "timestamp" in recs[0]


def test_out_redirects_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    out = tmp_path / "report.ndjson"
    code = main(["verify", "--config", cfg, "--no-timestamp", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "meta"
    assert json.loads(lines[-1])["pass"] is True


@pytest.mark.parametrize(
    "argv, before",
    [(["verify"], []), (["reconstruct"], ["meta", "summary"])],
    ids=["ndjson", "csv"],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, before):
    cfg = write_config(tmp_path, {**RICCATI, "plan": SMALL_PLAN})
    target = tmp_path / "missing" / "x.out"
    code = main([*argv, "--config", cfg, "--no-timestamp", "--out", str(target)])
    out, err = capsys.readouterr()
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 2 and err == "" and not target.exists()
    assert [r["kind"] for r in recs] == [*before, "error"]
    assert recs[-1] == {"kind": "error", "message": f"[Errno 2] No such file or directory: '{target}'"}


COMMANDS = [
    ["flow", "--tau", "0", "--sigma", "0", "--a", "0.5"],
    ["interval", "--rho", "0", "--a", "0.5"],
    ["verify"],
    ["reconstruct"],
    ["autonomous"],
    ["decompose"],
    ["mollify", "--eps", "0.25"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_a_state_grid_that_is_not_finite_is_a_config_error(tmp_path, capsys, argv):
    # JSON 1e400 reads as infinity
    cfg = tmp_path / "config.json"
    cfg.write_text('{"system": {"catalog": "riccati"}, '
                   '"plan": {"time_grid": [0, 1], "state_grid": [[0.5], [1e400]], "random_count": 0}}')
    code = main([*argv, "--config", str(cfg), "--no-timestamp"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert [json.loads(line) for line in out.splitlines()] == [
        {"kind": "error", "message": f"{cfg}: plan: state_grid entries must be finite"}
    ]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_more_draws_than_a_plan_takes_is_a_config_error(tmp_path, capsys, argv):
    # drawn one by one in Python, 10^9 draws would run for hours; the plan refuses them before the first
    cfg = write_config(tmp_path, {**RICCATI, "plan": {**SMALL_PLAN, "random_count": 10**9}})
    code = main([*argv, "--config", cfg, "--no-timestamp"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert [json.loads(line) for line in out.splitlines()] == [
        {"kind": "error", "message": f"{cfg}: plan: random_count must lie in [0, 65536], got 1000000000"}
    ]


def test_repeated_commands_redo_no_draws_lane_builds_or_checked_lanes(tmp_path, capsys, monkeypatch):
    """Two passes of the closed-form commands: the second draws nothing, and no pass redoes a plan's lanes or
    runs exp's checked helper over lanes whose values are all finite."""
    monkeypatch.setattr(pcg, "_UNITS", {})
    draws, builds, plans, fallbacks, mapped = [], collections.Counter(), [], [], []
    next_uint64, build_columns = pcg._Generator.next_uint64, SamplePlan._build_columns
    checked_lanes = expr._checked_lanes

    def build(plan, k, m):
        plans.append(plan)  # kept alive, so no two plans share an id
        builds[id(plan), k, m] += 1
        return build_columns(plan, k, m)

    monkeypatch.setattr(pcg._Generator, "next_uint64", lambda stream: draws.append(1) or next_uint64(stream))
    monkeypatch.setattr(SamplePlan, "_build_columns", build)
    monkeypatch.setattr(expr, "_checked_lanes", lambda *args: fallbacks.append(args[0]) or checked_lanes(*args))
    monkeypatch.setitem(expr._UNCHECKED, expr._CALLS["exp"], lambda x: mapped.append(1) or math.exp(x))
    drawn = []
    for _ in range(2):
        for name in ("exp_scalar", "rotation"):
            cfg = write_config(tmp_path, {"system": {"catalog": name}}, f"{name}.json")
            for argv in (["verify"], ["autonomous"], ["decompose"], ["mollify", "--eps", "0.25", "--alpha=0.5"]):
                assert main([*argv, "--config", cfg, "--seed", "7", "--no-timestamp"]) == 0, (name, argv)
        drawn.append(len(draws) - sum(drawn))
    capsys.readouterr()
    assert drawn[0] > 0 and drawn[1] == 0
    assert mapped and fallbacks == []
    assert len(builds) == 24 and set(builds.values()) == {1}


def test_same_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, RICCATI)
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    for target in (a, b):
        code = main(
            ["verify", "--config", cfg, "--seed", "99", "--no-timestamp", "--out", str(target)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, RICCATI)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "flowfam",
            "flow",
            "--config",
            cfg,
            "--tau",
            "1",
            "--sigma",
            "0",
            "--a",
            "0.5",
            "--no-timestamp",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert json.loads(lines[1]) == {"kind": "value", "value": [1.0]}


def test_closed_stdout_exits_quietly(tmp_path):
    cfg = write_config(tmp_path, RICCATI)
    # the pipe's reader is gone before the child starts, so however fast the
    # child runs, its first record (-u writes each one when it is emitted)
    # meets a closed pipe
    reader, writer = os.pipe()
    os.close(reader)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "flowfam", "verify", "--config", cfg, "--no-timestamp"],
        stdout=writer,
        stderr=subprocess.PIPE,
        text=True,
    )
    os.close(writer)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == ""


def test_a_closed_stdout_passes_on_to_main(tmp_path, capsys, monkeypatch):
    # BrokenPipeError is an OSError, which the failure table answers as an unwritable --out
    from flowfam import cli

    def closed(args, spec, out):
        raise BrokenPipeError

    monkeypatch.setitem(cli._COMMANDS, "verify", closed)
    args = cli._build_parser().parse_args(["verify", "--config", write_config(tmp_path, RICCATI)])
    with pytest.raises(BrokenPipeError):
        cli._run(args)


def test_every_line_is_json_even_with_nonfinite(tmp_path, capsys):
    # unbounded family: residuals can overflow; every line must still parse
    cfg = write_config(
        tmp_path,
        {
            "system": {"family": {"n": 1, "components": ["exp((tau - sigma)*a1)*a1"]}},
            "plan": SMALL_PLAN,
        },
    )
    code, recs = run_cli(["verify", "--config", cfg, "--no-timestamp"], capsys)
    assert code in (0, 1)
    assert all("kind" in r for r in recs)
