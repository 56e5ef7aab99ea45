"""Span recorders wrapped around flowfam's public entry points, for traced runs.

The fine-grained boundaries (rhs, expression, DP5 step, interpolation) fire
millions of times per pass, so spans are not kept one record per call.
Each boundary aggregates count, total time and self time in memory per
(span, parent span) pair.  Self time is a span's duration less the time its
child spans cover.  Calls on FlowFamily carry the family kind in the span
name (``core.evaluate/numeric``), which separates the integration driver
from the closed-form evaluator.

A boundary whose entry point no longer exists is skipped and reports zero
calls.  End-to-end figures never come from a traced pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span, module, attribute); an attribute "Class.method" patches the class,
# a plain function is replaced under every name any flowfam module binds it to.
BOUNDARIES = (
    ("expr.eval", "flowfam.expr", "evaluate_expr"),
    ("expr.eval", "flowfam.expr", "evaluate_family"),
    ("core.rhs", "flowfam.core", "VectorField.__call__"),
    ("core.evaluate", "flowfam.core", "FlowFamily.evaluate"),
    ("core.in_domain", "flowfam.core", "FlowFamily.in_domain"),
    ("core.contains", "flowfam.core", "DomainSpec.contains"),
    ("integrate.step", "flowfam.integrate", "dopri5_step"),
    ("integrate.escape_interval", "flowfam.integrate", "escape_interval"),
    ("verify.identity", "flowfam.verify", "check_identity"),
    ("verify.inverse", "flowfam.verify", "check_inverse"),
    ("verify.cocycle", "flowfam.verify", "check_cocycle"),
    ("verify.domain_inclusion", "flowfam.verify", "check_domain_inclusion"),
    ("verify.interval", "flowfam.verify", "check_interval"),
    ("verify.openness", "flowfam.verify", "check_openness"),
    ("reconstruct.field_from_family", "flowfam.reconstruct", "field_from_family"),
    ("reconstruct.diagonal_rate", "flowfam.reconstruct", "diagonal_rate"),
    ("reconstruct.interp", "flowfam.reconstruct", "TabulatedVectorField.__call__"),
    ("reconstruct.roundtrip", "flowfam.reconstruct", "roundtrip_error"),
    ("autonomous.time_shift", "flowfam.autonomous", "check_time_shift"),
    ("autonomous.to_group", "flowfam.autonomous", "to_group"),
    ("autonomous.group_law", "flowfam.autonomous", "check_group_law"),
    ("linear.check_affine", "flowfam.linear", "check_affine"),
    ("linear.decompose", "flowfam.linear", "sincov_decompose"),
    ("linear.mollify", "flowfam.linear", "mollify"),
    ("cli.main", "flowfam.cli", "main"),
    ("cli.load_config", "flowfam.cli", "load_config"),
    ("catalog.build", "flowfam.catalog", "CatalogEntry.field"),
    ("catalog.build", "flowfam.catalog", "CatalogEntry.family"),
)

# spans named after the kind of the FlowFamily they run on
_KIND_TAGGED = {"core.evaluate", "core.in_domain"}
VERIFY_CHECKS = ("identity", "inverse", "cocycle", "domain_inclusion", "interval", "openness")


class Tracer:
    """Aggregating span recorder; ``with tracer:`` installs it, leaving restores."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # (span, parent) -> [calls, total_s, self_s]
        self.samples_checked = 0  # summed over the verify checks' reports
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._restore: list[tuple] = []

    def reset(self):
        self.stats.clear()
        self.samples_checked = 0

    # --- installing ---------------------------------------------------------

    def __enter__(self):
        for span, module, attr in BOUNDARIES:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(span, fn)
            if owner_name:
                self._restore.append((owner, name, owner.__dict__.get(name)))
                setattr(owner, name, wrapper)
                continue
            for m in [m for k, m in sys.modules.items() if k.split(".")[0] == "flowfam"]:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    self._restore.append((m, key, fn))
                    setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        return False

    def _wrap(self, span: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        tagged = span in _KIND_TAGGED
        is_check = span.startswith("verify.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{span}/{args[0].kind}" if tagged else span
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if is_check:
                    self.samples_checked += getattr(result, "samples_checked", 0)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent else "")
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed

        return wrapper

    # --- reading ------------------------------------------------------------

    def _sum(self, span: str, field: int, parent: str | None = None) -> float:
        """Sum one field over ``span`` and its kind-tagged variants.

        With ``parent`` given, only calls made directly under that span (or
        its variants) count.  Totals skip calls nested in the same span, so
        an inclusive time is never counted twice.
        """
        out = 0
        for (name, par), rec in self.stats.items():
            if _base(name) != span:
                continue
            if parent is not None and _base(par) != parent:
                continue
            if field == 1 and _base(par) == span:
                continue
            out += rec[field]
        return out

    def calls(self, span: str, parent: str | None = None) -> int:
        return self._sum(span, 0, parent)

    def total_s(self, span: str) -> float:
        return self._sum(span, 1)

    def self_s(self, span: str) -> float:
        return self._sum(span, 2)

    def counts(self) -> dict:
        """Every (span, parent) call count, for the determinism check."""
        return {f"{name}<{par}": rec[0] for (name, par), rec in sorted(self.stats.items())}

    def table(self) -> list:
        """The aggregated spans, heaviest self time first."""
        rows = [
            {"span": name, "parent": par, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (name, par), rec in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        steps = self.calls("integrate.step")
        rhs_in_steps = self.calls("core.rhs", "integrate.step") + self.calls(
            "reconstruct.interp", "integrate.step"
        )
        evals_in_checks = sum(
            self.calls(kind, f"verify.{check}")
            for kind in ("core.evaluate", "core.in_domain")
            for check in VERIFY_CHECKS
        )
        driver = sum(
            rec[2]
            for (name, _), rec in self.stats.items()
            if name in ("core.evaluate/numeric", "core.in_domain/numeric")
        )
        m = {
            "expr.eval.calls": (self.calls("expr.eval"), "count"),
            "expr.eval.self_s": (self.self_s("expr.eval"), "s"),
            "core.rhs.calls": (self.calls("core.rhs"), "count"),
            "core.rhs.self_s": (self.self_s("core.rhs"), "s"),
            "core.evaluate.calls": (self.calls("core.evaluate"), "count"),
            "core.evaluate.self_s": (self.self_s("core.evaluate"), "s"),
            "core.in_domain.calls": (self.calls("core.in_domain"), "count"),
            "core.contains.calls": (self.calls("core.contains"), "count"),
            "integrate.step.calls": (steps, "count"),
            "integrate.step.self_s": (self.self_s("integrate.step"), "s"),
            "integrate.step_us": (_ratio(self.total_s("integrate.step") * 1e6, steps), "us"),
            "integrate.rhs_per_step": (_ratio(rhs_in_steps, steps), "ratio"),
            "integrate.driver.self_s": (driver, "s"),
            "integrate.escape_interval.calls": (self.calls("integrate.escape_interval"), "count"),
            "integrate.escape_interval.s": (self.total_s("integrate.escape_interval"), "s"),
        }
        for check in VERIFY_CHECKS:
            m[f"verify.{check}.s"] = (self.total_s(f"verify.{check}"), "s")
        m["verify.evals_per_sample"] = (_ratio(evals_in_checks, self.samples_checked), "ratio")
        m.update({
            "reconstruct.field_from_family.s": (self.total_s("reconstruct.field_from_family"), "s"),
            "reconstruct.diagonal_rate.calls": (self.calls("reconstruct.diagonal_rate"), "count"),
            "reconstruct.interp.calls": (self.calls("reconstruct.interp"), "count"),
            "reconstruct.interp.self_s": (self.self_s("reconstruct.interp"), "s"),
            "reconstruct.roundtrip.s": (self.total_s("reconstruct.roundtrip"), "s"),
            "autonomous.time_shift.s": (self.total_s("autonomous.time_shift"), "s"),
            "autonomous.to_group.s": (self.total_s("autonomous.to_group"), "s"),
            "autonomous.group_law.s": (self.total_s("autonomous.group_law"), "s"),
            "linear.check_affine.s": (self.total_s("linear.check_affine"), "s"),
            "linear.decompose.s": (self.total_s("linear.decompose"), "s"),
            "linear.mollify.s": (self.total_s("linear.mollify"), "s"),
            "cli.main.calls": (self.calls("cli.main"), "count"),
            "cli.main.self_s": (self.self_s("cli.main"), "s"),
            "cli.load_config.s": (self.total_s("cli.load_config"), "s"),
            "catalog.build_s": (self.total_s("catalog.build"), "s"),
        })
        return m


def _base(name: str) -> str:
    return name.partition("/")[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
