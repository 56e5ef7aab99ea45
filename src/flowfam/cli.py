"""Command-line front end: JSON configs in, NDJSON reports out.

One command per concern: flow (point evaluation), interval (escape
interval), verify (condition suite), reconstruct (tabulated field +
export), autonomous (shift detection + group law), decompose (Sincov),
mollify (window average + smoothing check).  Reports are one JSON object
per line with sorted keys; given the same config and seed, and
--no-timestamp, output is byte-identical across runs.  Exit codes: 0 on
success/pass, 1 when a verification fails or a point query leaves the
domain, 2 on usage or config errors.  Commands raise; ``_run`` alone turns
what a command, its config or its report file raises into one error record
and an exit code, by the table ``_FAILURES``.  flow answers a point outside
the domain itself, with the violation's kind and detail.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import catalog as _catalog
from . import expr as ex
from .autonomous import NotAutonomous, check_group_law, check_time_shift, group_from_family, to_group
from .core import DomainSpec, DomainViolation, FlowFamily, VectorField
from .core import closed_form_family, scaled_tol
from .integrate import IntegratorConfig, StepBudgetExceeded, escape_interval, numeric_family
from .linear import MAX_PANELS, NotAffine, NotInvertible, SingularWronskian, UnusableWindow
from .linear import mollify, sincov_decompose, smooth_apply
from .reconstruct import ReconstructionConfig, ReconstructionFailed, field_from_family, field_gap
from .verify import Accumulator, ConditionReport, SamplePlan, SuiteTolerances, default_plan, run_suite

__all__ = ["ConfigError", "RunSpec", "load_config", "main"]


class ConfigError(Exception):
    """A config file could not be turned into a runnable spec."""

    def __init__(self, path: str, field: str, message: str):
        self.path = path
        self.field = field
        self.message = message
        super().__init__(f"{path}: {field}: {message}")


@dataclasses.dataclass
class RunSpec:
    """Everything a command needs: the system plus shared knobs."""

    n: int
    system_name: str
    field: VectorField | None
    family: FlowFamily | None
    integrator: IntegratorConfig
    plan: SamplePlan
    tolerances: SuiteTolerances


def _section(path: str, data: dict, key: str, cls) -> dict:
    """The config object under key; its keys must be fields of the dataclass cls."""
    cfg = data.get(key, {})
    if not isinstance(cfg, dict):
        raise ConfigError(path, key, "must be an object")
    unknown = set(cfg) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(path, key, f"unknown keys: {sorted(unknown)}")
    return cfg


def _reject_booleans(path: str, key: str, value) -> None:
    """No config value is a boolean, and bool would otherwise pass as the integer 1 or 0."""
    if isinstance(value, bool):
        raise ConfigError(path, key, "true/false is not a config value")
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        _reject_booleans(path, f"{key}.{k}" if key else str(k), v)


def _integer(path: str, key: str, value) -> int:
    """A count or seed must be a JSON integer; int() would truncate 1.9 to 1."""
    if not isinstance(value, int):
        raise ConfigError(path, key, f"must be an integer, got {value!r}")
    return value


@contextlib.contextmanager
def _config_errors(path: str, key: str):
    """Report what building the config object under key raises as a ConfigError:
    ParseError with its offset, or a KeyError, TypeError or ValueError (ValidationError too)."""
    try:
        yield
    except ex.ParseError as err:
        raise ConfigError(path, key, f"expression error at offset {err.offset}: {err.message}") from None
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(path, key, str(err)) from None


def load_config(path: str) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(path, "<file>", str(err)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(path, "<json>", f"invalid JSON at offset {err.pos}: {err.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(path, "<json>", "top level must be an object")
    _reject_booleans(path, "", data)

    system = data.get("system")
    if not isinstance(system, dict):
        raise ConfigError(path, "system", "missing or not an object")
    sources = [k for k in ("catalog", "field", "family") if k in system]
    if len(sources) != 1:
        raise ConfigError(path, "system", "exactly one system source (catalog, field, or family)")

    field_obj: VectorField | None = None
    family_obj: FlowFamily | None = None
    if sources[0] == "catalog":
        with _config_errors(path, "system.catalog"):
            entry = _catalog.get(system["catalog"])
        n = entry.n
        system_name = f"catalog:{entry.name}"
        field_obj = entry.field()
        family_obj = entry.family()
    elif sources[0] == "field":
        fdef = system["field"]
        if not isinstance(fdef, dict):
            raise ConfigError(path, "system.field", "must be an object")
        dom = fdef.get("domain", {})
        if not isinstance(dom, dict):
            raise ConfigError(path, "system.field", "domain must be an object")
        with _config_errors(path, "system.field"):
            n = _integer(path, "system.field.n", fdef["n"])
            time_box = dom.get("time", (-math.inf, math.inf))
            spec = DomainSpec(n, time_box=time_box, space_predicate=dom.get("predicate"))
            if not isinstance(fdef["rhs"], list):  # a string would split into characters
                raise TypeError("rhs must be a list of expressions")
            field_obj = VectorField.from_strings(fdef["rhs"], spec)
        system_name = "field"
    else:
        fdef = system["family"]
        if not isinstance(fdef, dict):
            raise ConfigError(path, "system.family", "must be an object")
        with _config_errors(path, "system.family"):
            n = _integer(path, "system.family.n", fdef["n"])
            components = fdef["components"]
            if not isinstance(components, list):
                raise TypeError("components must be a list of expressions")
            family_obj = closed_form_family(n, components, predicate=fdef.get("domain_predicate"))
        system_name = "family"

    with _config_errors(path, "integrator"):
        integrator = IntegratorConfig(**_section(path, data, "integrator", IntegratorConfig))

    if data.get("plan") is None:
        plan = default_plan(n)
    else:
        plan_cfg = _section(path, data, "plan", SamplePlan)
        with _config_errors(path, "plan"):
            plan = SamplePlan(
                tuple(plan_cfg.get("time_grid", ())),
                tuple(tuple(s) for s in plan_cfg.get("state_grid", ())),
                random_count=_integer(path, "plan.random_count", plan_cfg.get("random_count", 25)),
                seed=_integer(path, "plan.seed", plan_cfg.get("seed", 12345)),
            )
        if plan.n != n:
            raise ConfigError(path, "plan", f"state dimension {plan.n} does not match system n={n}")

    with _config_errors(path, "tolerances"):
        tolerances = SuiteTolerances(**_section(path, data, "tolerances", SuiteTolerances))

    return RunSpec(
        n=n,
        system_name=system_name,
        field=field_obj,
        family=family_obj,
        integrator=integrator,
        plan=plan,
        tolerances=tolerances,
    )


# --- report emission ---------------------------------------------------------


def _jsonable(obj):
    """JSON-safe copy; non-finite floats become strings so every line parses."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else str(v)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _emit(stream, record: dict):
    stream.write(json.dumps(_jsonable(record), sort_keys=True, separators=(",", ":")) + "\n")


def _condition_record(rep: ConditionReport) -> dict:
    return {
        "kind": "condition",
        "name": rep.condition_name,
        "max_residual": rep.max_residual,
        "worst_case": rep.worst_case,
        "pass": rep.passed,
        "samples_checked": rep.samples_checked,
        "samples_skipped": rep.samples_skipped,
        "tolerance": rep.tolerance,
        "note": rep.note,
    }


def _emit_conditions(out, reports) -> int:
    """One record per condition, then the pass/fail summary; returns the exit code."""
    for rep in reports:
        _emit(out, _condition_record(rep))
    failed = [rep.condition_name for rep in reports if not rep.passed]
    _emit(out, {"kind": "summary", "pass": not failed, "failed": failed})
    return 1 if failed else 0


def _meta_record(args, spec: RunSpec) -> dict:
    record = {
        "kind": "meta",
        "command": args.command,
        "config": args.config,
        "system": spec.system_name,
        "seed": spec.plan.seed,
    }
    if not args.no_timestamp:
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    return record


def _number(cast, expected: str, ok=math.isfinite):
    """argparse type: text cast to a number for which ok holds; anything else is a usage error."""

    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got '{text}'")

    return parse


_real = _number(float, "a finite real")
_positive = _number(float, "a positive finite real", lambda v: 0 < v < math.inf)
_seed = _number(int, "an integer in [0, 2^64)", lambda v: 0 <= v < 2**64)
_panels = _number(int, "an even integer in [2, 2^16]", lambda v: 2 <= v <= MAX_PANELS and v % 2 == 0)


def _parse_state(text: str) -> list:
    return [_real(part) for part in text.split(",") if part.strip() != ""]


def _resolve_family(spec: RunSpec) -> FlowFamily:
    if spec.family is not None:
        return spec.family
    return numeric_family(spec.field, spec.integrator)


def _write_csv(path: str, header: list, rows):
    """A CSV artifact: the header, then each row's numbers as repr of their floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- commands ----------------------------------------------------------------


def _cmd_flow(args, spec: RunSpec, out) -> int:
    family = _resolve_family(spec)
    try:
        value = family.evaluate(args.tau, args.sigma, args.a)
    except DomainViolation as err:
        _emit(out, {"kind": "error", "message": err.kind, "detail": str(err)})
        return 2 if err.kind == "dimension_mismatch" else 1
    _emit(out, {"kind": "value", "value": list(map(float, value))})
    return 0


def _cmd_interval(args, spec: RunSpec, out) -> int:
    if spec.field is None:
        raise ConfigError(args.config, "system", "interval requires a vector field (catalog or field config)")
    if len(args.a) != spec.field.n:  # a usage error, as flow reports it
        detail = f"state has length {len(args.a)}, field dimension is {spec.field.n}"
        _emit(out, {"kind": "error", "message": "dimension_mismatch", "detail": detail})
        return 2
    interval = escape_interval(spec.field, args.rho, args.a, spec.integrator)
    _emit(
        out,
        {
            "kind": "interval",
            "lower": interval.lower,
            "upper": interval.upper,
            "lower_kind": interval.lower_kind,
            "upper_kind": interval.upper_kind,
        },
    )
    fully_open = interval.lower_kind == "window_limit" and interval.upper_kind == "window_limit"
    return 0 if fully_open else 1


def _cmd_verify(args, spec: RunSpec, out) -> int:
    family = _resolve_family(spec)
    return _emit_conditions(out, run_suite(family, spec.plan, spec.tolerances).conditions)


def _cmd_reconstruct(args, spec: RunSpec, out) -> int:
    family = _resolve_family(spec)
    # tabulation needs strictly increasing knots; a plan's times are sorted but may repeat
    grid = dataclasses.replace(
        spec.plan, time_grid=tuple(sorted(set(map(float, spec.plan.time_grid))))
    )
    cfg = ReconstructionConfig(h=args.h, richardson=not args.no_richardson, grid=grid)
    with _config_errors(args.config, "plan"):  # fewer than two distinct knots on an axis cannot be tabulated
        field = field_from_family(family, cfg)
    knots = list(field.table.shape[:-1])
    summary = {
        "kind": "summary",
        "command": "reconstruct",
        "sites": math.prod(knots),
        "skipped": field.skipped_sites,
        "time_span": [float(field.times[0]), float(field.times[-1])],
        "knots": knots,
    }
    if spec.field is not None:
        summary["max_field_gap"], summary["compared_sites"] = field_gap(field, spec.field)
    _emit(out, summary)
    if args.out:
        n = field.n
        header = ["t", *(f"x{k + 1}" for k in range(n)), *(f"f{k + 1}" for k in range(n))]
        _write_csv(args.out, header, ([t, *x, *f] for t, x, f in field.sites()))
    return 0


def _cmd_autonomous(args, spec: RunSpec, out) -> int:
    family = _resolve_family(spec)
    shift = check_time_shift(family, spec.plan, args.tol)
    if not shift.passed:
        return _emit_conditions(out, [shift])
    law = check_group_law(group_from_family(family), spec.plan, tol=scaled_tol(family.tol_hint))
    return _emit_conditions(out, [shift, law])


def _cmd_decompose(args, spec: RunSpec, out) -> int:
    family = _resolve_family(spec)
    dec = sincov_decompose(family, args.tau0, spec.plan.time_grid)
    _emit(
        out,
        {
            "kind": "summary",
            "command": "decompose",
            "tau0": dec.tau0,
            "grid": list(dec.grid),
            "n": dec.n,
        },
    )
    if args.out:
        n = dec.n
        header = ["tau", *(f"w{r + 1}{c + 1}" for r in range(n) for c in range(n)), *(f"h{k + 1}" for k in range(n))]
        _write_csv(args.out, header, ([tau, *W.reshape(-1), *h] for tau, W, h in zip(dec.grid, dec.W, dec.h)))
    return 0


def _cmd_mollify(args, spec: RunSpec, out) -> int:
    family = _resolve_family(spec)
    group = to_group(family, spec.plan)
    average = mollify(group, args.eps, args.panels)
    smoothed = [(alpha, smooth_apply(group, average, alpha)) for alpha in args.alpha]
    _emit(
        out,
        {
            "kind": "summary",
            "command": "mollify",
            "eps": average.eps,
            "panels": average.panels,
            "H_A": average.H.A,
            "H_b": average.H.b,
            "error_bound": average.error_bound,
        },
    )
    if not args.alpha:
        return 0
    states = np.array(spec.plan.state_grid, dtype=float)
    lanes = [(mapped, a) for _, mapped in smoothed for a in states]  # alpha-major, as np.repeat
    values, ok = group.family.evaluate_batch(
        np.repeat(args.alpha, len(states)), np.zeros(len(lanes)), np.array([a for _, a in lanes]))
    acc = Accumulator()
    for (mapped, a), value, a_ok in zip(lanes, values, ok):
        if a_ok:  # states outside are not counted as skips
            acc.record(float(np.max(np.abs(mapped(a) - value))), None)
    tol = max(1e-8, scaled_tol(group.tol_hint))
    smoothing = acc.report("smoothing", tol, force_fail=not acc.checked)
    _emit(out, _condition_record(smoothing))
    return 0 if smoothing.passed else 1


_COMMANDS = {
    "flow": _cmd_flow,
    "interval": _cmd_interval,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "autonomous": _cmd_autonomous,
    "decompose": _cmd_decompose,
    "mollify": _cmd_mollify,
}

# commands whose --out is a CSV artifact; their report always goes to stdout
_CSV_COMMANDS = {"reconstruct", "decompose"}

# what a command, its config or its --out may raise, and its exit code: 2 for
# a usage or config error, 1 for a failed check or a refused query.  The first
# match wins; each becomes the one record {"kind": "error", "message": str(err)}.
_FAILURES = (
    (ConfigError, 2),
    (UnusableWindow, 2),  # a mollify window whose width overflows or rounds to zero
    (OSError, 2),  # an --out path that cannot be written
    (ValueError, 1),  # interval's start outside the window or domain, or not evaluable
    (StepBudgetExceeded, 1),
    (DomainViolation, 1),  # an affine probe of decompose or mollify outside the domain
    (ReconstructionFailed, 1),
    (NotAffine, 1),
    (SingularWronskian, 1),
    (NotAutonomous, 1),
    (NotInvertible, 1),
)


@functools.cache  # built once: a parser built on every call grew resident memory with each call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowfam",
        description="evaluate, verify, and decompose two-parameter evolution families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output path (CSV for reconstruct/decompose, NDJSON otherwise)")
        p.add_argument("--seed", type=_seed, help="override the sample plan seed")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp for reproducible output")

    p = sub.add_parser("flow", help="evaluate F_{tau,sigma}(a)")
    common(p)
    p.add_argument("--tau", type=_real, required=True)
    p.add_argument("--sigma", type=_real, required=True)
    p.add_argument("--a", type=_parse_state, required=True)

    p = sub.add_parser("interval", help="escape interval through (rho, a)")
    common(p)
    p.add_argument("--rho", type=_real, required=True)
    p.add_argument("--a", type=_parse_state, required=True)

    p = sub.add_parser("verify", help="run the flow-condition suite")
    common(p)

    p = sub.add_parser("reconstruct", help="tabulate the generating vector field")
    common(p)
    p.add_argument("--h", type=_positive, default=1e-4, help="finite-difference step")
    p.add_argument("--no-richardson", action="store_true", help="plain central differences")

    p = sub.add_parser("autonomous", help="detect time-shift invariance and check the group law")
    common(p)
    p.add_argument("--tol", type=_positive, help="override the autonomy tolerance")

    p = sub.add_parser("decompose", help="Sincov decomposition of an affine family")
    common(p)
    p.add_argument("--tau0", type=_real, default=0.0, help="gauge base time")

    p = sub.add_parser("mollify", help="window-average an affine group")
    common(p)
    p.add_argument("--eps", type=_positive, required=True, help="window half-width")
    p.add_argument("--panels", type=_panels, default=256, help="Simpson panel count (even, at most 2^16)")
    p.add_argument("--alpha", type=_parse_state, default=[], help="parameters for the smoothing check")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that closed stdout early shows here at the latest
    except BrokenPipeError:
        # as in the Python docs' SIGPIPE note: point stdout at devnull so the
        # interpreter's last flush stays quiet, and exit 1 with nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    """Run one command; what it raises becomes an error record and exit code by _FAILURES.

    The record goes where the report goes: to stdout until the report file is
    open, then to the file, which stays open until the record is written.
    """
    with contextlib.ExitStack() as report:
        out = sys.stdout
        try:
            spec = load_config(args.config)
            if args.seed is not None:
                spec.plan = dataclasses.replace(spec.plan, seed=args.seed)
            if args.out and args.command not in _CSV_COMMANDS:
                out = report.enter_context(open(args.out, "w", encoding="utf-8"))
            _emit(out, _meta_record(args, spec))
            return _COMMANDS[args.command](args, spec, out)
        except BrokenPipeError:  # an OSError, but a closed stdout is main's to answer
            raise
        except tuple(kind for kind, _ in _FAILURES) as err:
            _emit(out, {"kind": "error", "message": str(err)})
            return next(code for kind, code in _FAILURES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
