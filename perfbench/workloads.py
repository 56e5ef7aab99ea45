"""The three benchmark workloads: build, untimed reference, and one timed pass.

An op is one user-level call: a CLI command, a point query, or a library
call such as ``escape_interval`` or ``roundtrip_error``.  It fails when it
raises, exits with the wrong code, or its output fails a check.  Every pass
checks every output.  CLI output, the tabulated field and the round-trip
error must repeat the first pass's exactly, since inputs and seed are the
same; point queries come in rounds that change from pass to pass, and each
is checked against the closed form.

Library entry points are always reached through their module
(``flowfam.cli.main``), never through a name bound at import, so a traced
pass sees the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import flowfam.catalog
import flowfam.cli
import flowfam.integrate
import flowfam.reconstruct
import flowfam.verify

# pinned bounds of the acceptance criteria the checks reuse
NUMERIC_GAP = 1e-8  # criterion 1: numeric vs closed form
BLOWUP_GAP = 1e-3  # criterion 2: riccati escape time
RECOVERY_GAP = 1e-6  # criterion 3: tabulated field vs x^2
ROUNDTRIP_GAP = 1e-5  # criterion 3: family -> field -> family


class Ops:
    """Counts ops and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, fn, *args):
        """Run one op; ``fn`` returns (problem or None, value)."""
        self.attempted += 1
        try:
            problem, value = fn(*args)
        except Exception as err:  # any raise is a failed op; the run goes on
            problem, value = f"raised {type(err).__name__}: {err}", None
        if problem:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {problem}")
        return value


def _cli(argv: list) -> tuple[int, str]:
    """flowfam's CLI in-process; returns (exit code, NDJSON output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = flowfam.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def _call(fn, *args):
    return fn(*args)


def _records(ndjson: str) -> list:
    return [json.loads(line) for line in ndjson.splitlines()]


def write_configs(spec: dict, workdir: str):
    """Write the workload's config files; every other input stays in memory."""
    for name, cfg in spec.get("configs", {}).items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)


class Workload:
    """Shared plumbing: the first pass's outputs are what later passes must repeat."""

    def __init__(self, spec: dict, workdir: str):
        self.spec = spec
        self.workdir = workdir
        self.first: dict = {}
        self.expected: dict = {}
        self.passes = 0

    def _same_as_first(self, label: str, output) -> str | None:
        if label not in self.first:
            self.first[label] = output
            return None
        if self.first[label] != output:
            return "output differs from the first pass"
        return None

    def _config(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _point_queries(self, ops: Ops, name: str, fam, bound, time_call):
        """This pass's round of queries on ``fam``, checked against the closed form."""
        rounds = self.spec["queries"][name]
        queries = rounds[self.passes % len(rounds)]
        expected = self.expected[name][self.passes % len(rounds)]

        def query(i):
            value = time_call(fam.evaluate, *queries[i])
            gap = float(np.max(np.abs(value - expected[i])))
            return (f"gap {gap:.3e} > {bound:g} at {queries[i]}" if not gap <= bound else None), None

        for i in range(len(queries)):
            ops.run(f"{name} query {i}", query, i)

    def _expect_queries(self, name: str, closed):
        """Closed-form values of every round of queries on ``name``."""
        self.expected[name] = [
            [closed.evaluate(tau, sigma, a) for tau, sigma, a in queries]
            for queries in self.spec["queries"][name]
        ]

    def reference(self, ops: Ops):
        """Untimed: outputs of the oracle route that the passes are checked against."""

    def run_pass(self, ops: Ops, time_call=None):
        """One pass.  Each point query is made as ``time_call(fam.evaluate, *query)``,
        which returns the result and may time the call; by default it is untimed.
        """
        self._pass(ops, time_call or _call)
        self.passes += 1

    def _pass(self, ops: Ops, time_call):
        raise NotImplementedError


class VerifyNumeric(Workload):
    """`flowfam verify` on riccati and rotation field configs: the numeric route."""

    def __init__(self, spec, workdir):
        super().__init__(spec, workdir)
        self.families = {}
        for run in spec["runs"]:
            name = run["system"]
            flowfam.cli.load_config(self._config(f"{name}-closed.json"))
            field = flowfam.cli.load_config(self._config(f"{name}-field.json"))
            self.families[name] = (
                flowfam.integrate.numeric_family(field.field, field.integrator),
                flowfam.catalog.get(name).family(),
            )

    def _verify(self, name: str, kind: str, seed: int) -> tuple[int, str]:
        argv = ["verify", "--config", self._config(f"{name}-{kind}.json"),
                "--seed", str(seed), "--no-timestamp"]
        return _cli(argv)

    def reference(self, ops):
        self.verdicts = {}
        for run in self.spec["runs"]:
            name = run["system"]

            def closed(name=name, seed=run["seed"]):
                code, out = self._verify(name, "closed", seed)
                verdicts = {r["name"]: r["pass"] for r in _records(out) if r["kind"] == "condition"}
                self.verdicts[name] = (code, verdicts)
                return (None if len(verdicts) == 6 else f"{len(verdicts)} conditions reported"), None

            ops.run(f"{name} closed-form verify", closed)
            self._expect_queries(name, self.families[name][1])

    def _pass(self, ops, time_call):
        for run in self.spec["runs"]:
            name = run["system"]

            def numeric(name=name, seed=run["seed"]):
                code, out = self._verify(name, "field", seed)
                verdicts = {r["name"]: r["pass"] for r in _records(out) if r["kind"] == "condition"}
                if (code, verdicts) != self.verdicts.get(name):
                    return f"exit {code}, verdicts {verdicts} != closed form {self.verdicts.get(name)}", None
                return self._same_as_first(f"{name} verify", out), None

            ops.run(f"{name} numeric verify", numeric)
        for name, (fam, _) in self.families.items():
            self._point_queries(ops, name, fam, NUMERIC_GAP, time_call)


class ReconstructRoundtrip(Workload):
    """Tabulate riccati's field from its closed form, then rebuild the flow from it."""

    def __init__(self, spec, workdir):
        super().__init__(spec, workdir)
        plan = flowfam.verify.SamplePlan
        self.family = flowfam.catalog.get("riccati").family()
        dense = plan(tuple(spec["dense_times"]), tuple((s,) for s in spec["dense_states"]),
                     random_count=0, seed=0)
        self.cfg = flowfam.reconstruct.ReconstructionConfig(h=spec["h"], richardson=True, grid=dense)
        self.eval_plan = plan(tuple(spec["eval_times"]), tuple((s,) for s in spec["eval_states"]),
                              random_count=0, seed=0)
        self.icfg = flowfam.integrate.IntegratorConfig()

    def reference(self, ops):
        self._expect_queries("riccati", self.family)

    def _pass(self, ops, time_call):
        def tabulate():
            field = flowfam.reconstruct.field_from_family(self.family, self.cfg)
            states = field.axes[0]
            recovery = 0.0
            for it in range(len(field.times)):
                col = field.table[it, :, 0]
                mask = np.isfinite(col)
                recovery = max(recovery, float(np.max(np.abs(col[mask] - states[mask] ** 2))))
            if not recovery <= RECOVERY_GAP:
                return f"field recovery {recovery:.3e} > {RECOVERY_GAP:g}", None
            return self._same_as_first("table", field.table.tobytes()), field

        field = ops.run("field_from_family", tabulate)

        def roundtrip():
            err = flowfam.reconstruct.roundtrip_error(self.family, self.cfg, self.icfg,
                                                      eval_plan=self.eval_plan)
            if not err <= ROUNDTRIP_GAP:
                return f"round trip {err:.3e} > {ROUNDTRIP_GAP:g}", None
            return self._same_as_first("roundtrip", err), None

        ops.run("roundtrip_error", roundtrip)
        if field is None:
            return
        rebuilt = flowfam.integrate.numeric_family(field, self.icfg)
        self._point_queries(ops, "riccati", rebuilt, ROUNDTRIP_GAP, time_call)


class QueryMix(Workload):
    """Closed-form CLI commands over the catalog, numeric point queries, escape intervals."""

    def __init__(self, spec, workdir):
        super().__init__(spec, workdir)
        for name in spec["configs"]:
            flowfam.cli.load_config(self._config(name))
        self.families = {}
        for name in spec["queries"]:
            entry = flowfam.catalog.get(name)
            field = entry.field()
            self.families[name] = (
                field,
                flowfam.integrate.numeric_family(field, flowfam.integrate.IntegratorConfig()),
                entry.family(),
            )

    def reference(self, ops):
        for name, (_, _, closed) in self.families.items():
            self._expect_queries(name, closed)

    def _pass(self, ops, time_call):
        for i, cmd in enumerate(self.spec["commands"]):
            def command(cmd=cmd, i=i):
                code, out = _cli([cmd["command"], "--config", self._config(cmd["config"]), *cmd["args"]])
                if code != cmd["expect"]:
                    return f"exit {code}, expected {cmd['expect']}", None
                return self._same_as_first(f"command {i}", out), None

            ops.run(f"{cmd['command']} {cmd['config']}", command)
        for name, (_, fam, _) in self.families.items():
            self._point_queries(ops, name, fam, NUMERIC_GAP, time_call)
        for anchor in self.spec["anchors"]:
            ops.run(f"escape_interval {anchor}", self._escape, anchor)

    def _escape(self, anchor):
        field = self.families[anchor["system"]][0]
        rho, a = anchor["rho"], anchor["a"]
        iv = flowfam.integrate.escape_interval(field, rho, a)
        lo, hi = flowfam.integrate.IntegratorConfig().window
        want_lo, want_hi = (lo, "window_limit"), (hi, "window_limit")
        if anchor["system"] == "riccati":
            blow = (rho + 1.0 / a[0], "blow_up")
            want_lo, want_hi = (want_lo, blow) if a[0] > 0 else (blow, want_hi)
        for (got, kind), (want, want_kind) in (
            ((iv.lower, iv.lower_kind), want_lo),
            ((iv.upper, iv.upper_kind), want_hi),
        ):
            if kind != want_kind or not abs(got - want) <= BLOWUP_GAP:
                return f"endpoint {got} ({kind}), expected {want} ({want_kind})", None
        return None, None


WORKLOADS = {
    "verify-numeric": VerifyNumeric,
    "reconstruct-roundtrip": ReconstructRoundtrip,
    "query-mix": QueryMix,
}


def build(name: str, spec: dict, workdir: str) -> Workload:
    """Import-side set-up: every system, config and family the workload uses."""
    return WORKLOADS[name](spec, workdir)
