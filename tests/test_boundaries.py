"""Module boundaries inside the package: no module reaches another's private names.

A name that starts with an underscore belongs to its module or object.
When a sibling needs it, the name is made public instead of imported
across the boundary or read off another object.  Attributes of ``self``
and ``cls`` and dunder names are exempt.

A sample that leaves the domain is one rule, kept by ``Accumulator.lanes``:
a lane whose legs do not all exist is a skip, and a lane whose legs exist
while its direct map does not scores an infinite residual, so no
``except DomainViolation`` handler skips or records by hand.

Lane kernels equal the scalar forms bit for bit only while they leave
``exp``, ``tanh``, ``log`` and powers to ``math``: numpy's versions round
some arguments differently, so no module references them, and no generated
lane function names numpy or binds them.  A lane form runs those scalar
helpers only through ``per_lane``, which maps one over the lanes.  A power
whose exponent is a literal integer, |k| <= 16, is a chain of products
instead, in both forms, so its source names no ``power`` helper.

The integrator's scalar step loop makes no numpy call: it runs on tuples of
floats, summed in plain arithmetic, so no BLAS kernel fuses its products.
The driver it generates per dimension and rhs names no numpy either, and
no catalog or tabulated field's driver calls ``slope`` or ``contains`` in
its loop: the rhs, or the interpolant, and the domain's box test run in
the driver itself.  The DOPRI5 tableau is read only by the
generated code: no function of ``integrate`` names a coefficient, so the
sums are written once, in the templates the driver and the lane try are
rendered from.

Source text is compiled in three places only: ``expr._generate`` (one
straight-line function per expression tuple, over floats or over lanes),
``integrate._step`` (the step loop per dimension and rhs, over floats, and
its try over lanes) and ``reconstruct._interpolant`` (a tabulated field's
interpolant per dimension, over floats and over lanes).  The interpolant's
scalar slope names no numpy, and its lane form binds none of numpy's
functions that differ from ``math``.

A Cauchy datum has one rule in the integrator: ``_integrate`` refuses a
start outside the window or the field's domain, or where the field cannot
be evaluated, and every scalar entry point goes through it, so no other
function of ``integrate`` raises ``ValueError`` (``IntegratorConfig``
validates its knots).

A numeric family has one batch path: the integrator tests no field's type
or attributes, only ``_drive_lanes`` reads ``_TAIL_LANES``, the lane count
at which the scalar loop takes over, and no ``_TrajectoryCache`` method
calls ``_drive``: the lane driver finishes its scalar tail itself.

A field has one protocol: the integrator reads a field only through
``n``, ``domain``, ``slope`` and ``lanes``, and its domain only through
``contains`` and ``contains_lanes``.  Neither field type is callable, and
``lanes``, like ``slope``, is the compiled function itself.

The CLI answers a failure in one place: ``cli._run`` turns what a command
raises into an error record and exit code by the table ``cli._FAILURES``.
No other function of ``cli`` catches a type the table names and answers it
with a record or a return; one that converts it and raises again feeds the
table.  flow's own answer to a point outside the domain is the one exemption.

No module uses numpy.random: a plan's draws come from ``flowfam.pcg``, and
importing numpy.random loads secrets, hashlib and libcrypto, about 6 MB
resident.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import flowfam
from flowfam import catalog, cli, expr, integrate, reconstruct
from test_expr import CORPUS

PACKAGE = Path(flowfam.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "flowfam"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    return found


def _private_attributes(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{path.name}:{node.lineno} reaches {ast.unparse(node)}")
    return found


def _hand_written_guards(path: Path) -> list[str]:
    found = []
    for handler in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in caught}
        if "DomainViolation" not in names:
            continue
        for node in (n for stmt in handler.body for n in ast.walk(stmt)):
            call = node.func if isinstance(node, ast.Call) else None
            if isinstance(call, ast.Attribute) and call.attr in ("skip", "record"):
                where = f"{path.name}:{node.lineno}"
                found.append(f"{where} calls {ast.unparse(call)} under except DomainViolation")
    return found


# numpy functions whose results differ from math's in the last bit for some lanes
_LANE_UNSAFE = {"exp", "tanh", "log", "power", "float_power"}


def _lane_unsafe_numpy(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"imports {a.name} from numpy") for a in node.names if a.name in _LANE_UNSAFE]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _LANE_UNSAFE
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"uses {ast.unparse(node)}"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


# the scalar step loop runs on tuples of floats: numpy there brings back
# per-call dispatch on tiny arrays, and BLAS products whose fused
# multiply-adds make results depend on the machine
_STEP_LOOP = {"_step", "_step_source", "_drive", "_first_try", "_integrate", "_bisect_escape",
              "_Trajectory"}
# the functions _step_source generates over floats: the step loop; its lane try is attempt_lanes
_GENERATED_STEP = {"drive"}
# the names of the DOPRI5 tableau's coefficients: _A21.._A76, _E1.._E7, _C2.._C5
_TABLEAU = re.compile(r"_(A\d\d|E\d|C\d)")


def _numpy_in_step_loop(path: Path) -> list[str]:
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in _STEP_LOOP):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno} {top.name} uses {ast.unparse(node)}")
    return found


def _numpy_in_source(source: str) -> list[str]:
    names = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)]
    return [f"line {line} names {name}" for line, name in sorted((n.lineno, n.id) for n in names if n.id in ("np", "numpy"))]


def _lane_unsafe_bindings(f) -> list[str]:
    """The names in a generated function's namespace bound to one of numpy's _LANE_UNSAFE functions."""
    unsafe = {id(getattr(np, name)): name for name in _LANE_UNSAFE}
    namespace = inspect.unwrap(f).__globals__
    return sorted(f"{name} is numpy.{unsafe[id(v)]}" for name, v in namespace.items() if id(v) in unsafe)


# every node kind and every function, over both conventions' variables
_EVERY_NODE = {
    "field": "sin(x1) + cos(t)*exp(x2)/log(x1) - sqrt(abs(x2))^tanh(-t) + 2^x1",
    "family": "sin(a1) + cos(tau)*exp(a2)/log(a1) - sqrt(abs(a2))^tanh(-sigma) + 2^a1",
}


def _lane_kernels():
    """(lane form, its source) of _EVERY_NODE and of every catalog field and family, as tuples."""
    conventions = {"field": (expr.compile_field_lanes, expr._FIELD),
                   "family": (expr.compile_family_lanes, expr._FAMILY)}
    found = [(convention, expr.parse(source), 2) for convention, source in _EVERY_NODE.items()]
    for name in catalog.names():
        entry = catalog.get(name)
        found.append(("field", tuple(map(expr.parse, entry.rhs)), entry.n))
        found.append(("family", tuple(map(expr.parse, entry.family_components)), entry.n))
    kernels = []
    for convention, tree, n in found:
        compile_lanes, (scalars, prefix) = conventions[convention]
        kernels.append((compile_lanes(tree, n), expr._source(tree, scalars, prefix, n, lanes=True)[0]))
    return kernels


def _code_compilers(path: Path) -> list[str]:
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval", "compile"):
                found.append(f"{path.name}:{getattr(top, 'name', node.lineno)} calls {node.func.id}")
    return found


def _batch_forks(path: Path) -> list[str]:
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "hasattr")
                and "field" in ast.unparse(node).lower()
            ):
                found.append((node.lineno, f"tests {ast.unparse(node)}"))
            elif (
                isinstance(node, ast.Name)
                and node.id == "_TAIL_LANES"
                and isinstance(node.ctx, ast.Load)
                and getattr(top, "name", None) != "_drive_lanes"
            ):
                found.append((node.lineno, "reads _TAIL_LANES"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_drive"
                and getattr(top, "name", None) == "_TrajectoryCache"
            ):
                found.append((node.lineno, "calls _drive"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


# what the integrator reads of a field (``field`` or ``self.field``), and of the field's domain
_FIELD_READS = {"n", "domain", "slope", "lanes"}
_DOMAIN_READS = {"contains", "contains_lanes"}


def _field_reads(path: Path) -> tuple[set, list[str]]:
    """(the protocol attributes read, where a field or its domain is read past the protocol or called)."""
    fields = ("field", "self.field")
    seen, found = set(), []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func, first = ast.unparse(node.func), ast.unparse(node.args[0]) if node.args else None
            if func in fields or (func in ("getattr", "vars") and first in fields):
                found.append((node.lineno, f"calls {ast.unparse(node)}"))
        elif isinstance(node, ast.Attribute):
            base = ast.unparse(node.value)
            domains = [f"{f}.domain" for f in fields]
            allowed = _FIELD_READS if base in fields else _DOMAIN_READS if base in domains else set()
            if node.attr in allowed:
                seen.add(node.attr)
            elif allowed:
                found.append((node.lineno, f"reads {ast.unparse(node)}"))
    return seen, [f"{path.name}:{line} {what}" for line, what in sorted(found)]


# the one start rule, and the config's own validation
_START_RULE = ("_integrate", "IntegratorConfig")


def _start_checks(path: Path) -> list[str]:
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if getattr(top, "name", None) in _START_RULE:
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "ValueError":
                found.append(f"{path.name}:{node.lineno} {getattr(top, 'name', 'module')} raises ValueError")
    return found


def _numpy_random(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("numpy.random")]
            found += [(node.lineno, f"imports {name}") for name in names]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, "imports random from numpy") for a in node.names if a.name == "random"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append((node.lineno, f"imports from {node.module}"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"uses {ast.unparse(node)}"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


# flow answers a point outside the domain with the violation's kind and detail
_FLOW_ANSWER = ("_cmd_flow", "DomainViolation")


def _failure_answers(path: Path, failures) -> list[str]:
    """Handlers outside _run that catch a type named in failures and answer it: by a record or a return."""
    listed = {kind.__name__ for kind, _ in failures}
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(top, ast.FunctionDef) or top.name == "_run":
            continue
        for handler in ast.walk(top):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names = sorted({c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in caught} & listed)
            if not names or (top.name, *names) == _FLOW_ANSWER:
                continue
            body = [node for stmt in handler.body for node in ast.walk(stmt)]
            emits = any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_emit" for n in body)
            if emits or any(isinstance(n, ast.Return) for n in body):
                found.append(f"{path.name}:{handler.lineno} {top.name} answers {', '.join(names)}")
    return found


def test_package_modules_found():
    assert {"core.py", "verify.py", "cli.py"} <= {p.name for p in PACKAGE.glob("*.py")}


def test_every_exported_name_resolves():
    # __main__ runs the CLI when imported, and exports nothing
    modules = [flowfam] + [
        importlib.import_module(f"flowfam.{p.stem}")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.stem not in ("__init__", "__main__")
    ]
    missing = [
        f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)
    ]
    assert missing == []


def test_no_module_imports_private_names_from_a_sibling():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _private_imports(path)]
    assert found == []


def test_detector_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .verify import SamplePlan, _hidden\nfrom os import _exit\n")
    assert _private_imports(probe) == ["probe.py:1 imports _hidden from verify"]


def test_no_module_reaches_private_attributes():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _private_attributes(path)]
    assert found == []


def test_detector_sees_a_private_attribute(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "rng = plan._rng()\n"
        "self._own, cls._too = 1, 2\n"
        "object.__setattr__(x, 'a', 1)\n"
        "x.public = y.__class__\n"
    )
    assert _private_attributes(probe) == ["probe.py:1 reaches plan._rng"]


def test_no_handler_skips_or_records_a_domain_violation():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _hand_written_guards(path)]
    assert found == []


def test_detector_sees_a_hand_written_guard(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "try:\n"
        "    f()\n"
        "except DomainViolation:\n"
        "    acc.skip()\n"
        "except (ValueError, core.DomainViolation):\n"
        "    acc.record(inf, None)\n"
        "except KeyError:\n"
        "    acc.skip()\n"
        "except DomainViolation:\n"
        "    residual = inf\n"
    )
    assert _hand_written_guards(probe) == [
        "probe.py:4 calls acc.skip under except DomainViolation",
        "probe.py:6 calls acc.record under except DomainViolation",
    ]


def test_no_module_uses_numpy_where_it_differs_from_math():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _lane_unsafe_numpy(path)]
    assert found == []


def test_detector_sees_lane_unsafe_numpy(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy import power, sin\n"
        "y = np.exp(x) + numpy.tanh(x) + np.sin(x) + math.exp(x) + np.log1p(x) + np.log(x)\n"
        "z = np.float_power\n"
    )
    assert _lane_unsafe_numpy(probe) == [
        "probe.py:2 imports power from numpy",
        "probe.py:3 uses np.exp",
        "probe.py:3 uses np.log",
        "probe.py:3 uses numpy.tanh",
        "probe.py:4 uses np.float_power",
    ]


def test_step_loop_uses_no_numpy():
    path = PACKAGE / "integrate.py"
    defined = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if hasattr(node, "name")}
    assert _STEP_LOOP <= defined  # a rename must not empty the check
    assert _numpy_in_step_loop(path) == []


def test_detector_sees_numpy_in_the_step_loop(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _drive(y):\n"
        "    return np.isfinite(y).all()\n"
        "class _Trajectory:\n"
        "    def state(self):\n"
        "        return numpy.array(self.rows)\n"
        "def advance(a):\n"
        "    return np.asarray(a)\n"
    )
    assert _numpy_in_step_loop(probe) == [
        "probe.py:2 _drive uses np.isfinite",
        "probe.py:5 _Trajectory uses numpy.array",
    ]


def _step_sources():
    """(field, _step_source of its driver) of every catalog field, whose rhs is spliced, and of tabulated fields."""
    fields = [catalog.get(name).field() for name in catalog.names()]
    knots = np.array([0.0, 1.0])
    for n in (1, 2, 3, 4):
        fields.append(reconstruct.TabulatedVectorField(knots, [knots] * n, np.zeros((2,) * (n + 1) + (n,))))
    step, keys = integrate._step, []
    integrate._step = lambda *key: keys.append(key) or step(*key)  # what each fresh field's driver is rendered from
    try:
        for field in fields:
            integrate._driver(field)
    finally:
        integrate._step = step
    return [(field, "".join(integrate._step_source(*key))) for field, key in zip(fields, keys, strict=True)]


def test_generated_step_uses_no_numpy():
    for _, source in _step_sources():
        defined = {node.name: node for node in ast.parse(source).body}
        assert set(defined) == _GENERATED_STEP | {"attempt_lanes"}  # a rename must not empty the check
        for name in _GENERATED_STEP:
            assert _numpy_in_source(ast.unparse(defined[name])) == []


def _field_calls_in_loop(source: str) -> list[str]:
    """Where the generated driver's loop calls slope or contains, or reads a field's slope or a domain's contains."""
    (drive,) = [node for node in ast.parse(source).body if node.name == "drive"]
    (loop,) = [node for node in drive.body if isinstance(node, ast.While)]
    found = [node for node in ast.walk(loop) if isinstance(node, ast.Name) and node.id in ("slope", "contains")
             or isinstance(node, ast.Attribute) and node.attr in ("slope", "contains")]
    return [f"line {node.lineno} {ast.unparse(node)}" for node in found]


def test_no_drivers_loop_calls_slope_or_contains():
    # a field whose slope is not generated, on a domain that is not a box, is called in the loop
    assert len(_field_calls_in_loop(integrate._step_source(1)[0])) == 7
    for field, source in _step_sources():
        assert _field_calls_in_loop(source) == [], source


def test_generated_interpolant_slope_uses_no_numpy():
    for n in (1, 2, 3):
        (bind,) = ast.parse(reconstruct._interpolant_source(n)[0]).body  # bind defines slope and lanes
        defined = {node.name: node for node in bind.body if isinstance(node, ast.FunctionDef)}
        assert set(defined) == {"slope", "lanes"}  # a rename must not empty the check
        assert _numpy_in_source(ast.unparse(defined["slope"])) == []


def test_generated_interpolant_lanes_bind_no_numpy_that_differs_from_math():
    field = reconstruct.TabulatedVectorField(np.array([0.0, 1.0]), [np.array([0.0, 1.0])], np.zeros((2, 2, 1)))
    lanes = vars(field)["lanes"]  # the generated function, bound on the instance
    assert "searchsorted" in inspect.unwrap(lanes).__globals__  # the check reads the lane form's own names
    assert _lane_unsafe_bindings(lanes) == []


def _tableau_readers(path: Path) -> list[str]:
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and _TABLEAU.fullmatch(node.id):
                found.append(f"{path.name}:{node.lineno} {top.name} names {node.id}")
    return found


def test_only_the_generated_tries_read_the_tableau():
    path = PACKAGE / "integrate.py"
    assert {"_A21", "_E7", "_C5"} <= set(vars(integrate))  # a rename must not empty the check
    assert _tableau_readers(path) == []


def test_detector_sees_a_tableau_coefficient_in_a_function(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_A21, _E1, _C2 = 1 / 5, 71 / 57600, 1 / 5\n"
        "_SUM = 'y{i} + {h} * (_A21 * p1{i})'\n"
        "def lanes(f, t, y, h, k1):\n"
        "    return f(t + _C2 * h, y + h * (_A21 * k1)), _A210, _E\n"
        "class Step:\n"
        "    error = _E1\n"
    )
    assert _tableau_readers(probe) == [
        "probe.py:4 lanes names _C2",
        "probe.py:4 lanes names _A21",
        "probe.py:6 Step names _E1",
    ]


def test_detector_sees_numpy_in_generated_source():
    source = "def step(f, y):\n    return np.add(y, 1)\n\n\nz = numpy\n"
    assert _numpy_in_source(source) == ["line 2 names np", "line 5 names numpy"]


def test_generated_lane_source_uses_no_numpy():
    for _, source in _lane_kernels():
        assert _numpy_in_source(source) == [], source


def _source_names(source: str) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}


def test_integer_powers_call_no_power_helper():
    # a literal integer exponent, |k| <= 16, once negated or not, is a chain of products in both
    # forms; any other exponent still names the power helper, _pow, which the lane form maps
    integer = [f"{k}" for k in range(17)] + [f"-{k}" for k in range(17)]
    for (scalars, prefix), base, other in ((expr._FIELD, "x1", "x2"), (expr._FAMILY, "a1", "a2")):
        for lanes in (False, True):
            for exponent in integer:
                source = expr._source(expr.parse(f"{base}^{exponent}"), scalars, prefix, 2, lanes)[0]
                assert "power" not in _source_names(source), source
            for exponent in ("17", "-17", "0.5", "--2", other):
                source = expr._source(expr.parse(f"{base}^{exponent}"), scalars, prefix, 2, lanes)[0]
                assert "power" in _source_names(source), source


def _scalar_helpers_outside_per_lane(source: str, helpers: set) -> list[str]:
    """Where generated source names one of helpers other than as the first argument of per_lane."""
    tree = ast.parse(source)
    mapped = {
        id(node.args[0]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "per_lane" and node.args
    }
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in helpers and id(n) not in mapped]
    return [f"line {line} names {name}" for line, name in sorted((n.lineno, n.id) for n in names)]


def test_lane_forms_run_scalar_helpers_only_through_per_lane():
    scalar = [expr._pow, *expr._CALLS.values()]
    seen = set()
    for source in [s for s, _ in CORPUS] + ["a1^a2", "a1^0.5", "exp(a1)", "log(a1)", "tanh(a1)"]:
        tree = expr.parse(source)
        try:
            text, bound, _ = expr._source(tree, *expr._FIELD, 12, lanes=True)
        except expr.ValidationError:
            text, bound, _ = expr._source(tree, *expr._FAMILY, 12, lanes=True)
        namespace = {**expr._LANES.helpers, **bound}
        helpers = {name for name, v in namespace.items() if any(v is f for f in scalar)}
        seen |= {namespace[name] for name in helpers & _source_names(text)}
        assert _scalar_helpers_outside_per_lane(text, helpers) == [], text
    # a rename must not empty the check: pow and each helper the lane form maps are seen
    assert seen == {expr._pow, *(expr._CALLS[fn] for fn in ("exp", "log", "tanh"))}


def test_detector_sees_a_scalar_helper_outside_per_lane():
    source = (
        "def generated(s0, s1, state):\n"
        "    v1, ok = per_lane(power, ok, s0, s1)\n"
        "    v2 = k0(s0)\n"
        "    v3, ok = per_lane(k1, ok, power(s0, s1))\n"
        "    v4, ok = per_lane(k1, ok, k0)\n"
        "    return v1, ok\n"
    )
    assert _scalar_helpers_outside_per_lane(source, {"power", "k0", "k1"}) == [
        "line 3 names k0",
        "line 4 names power",
        "line 5 names k0",
    ]


def test_generated_lane_functions_bind_no_numpy_that_differs_from_math():
    kernels = _lane_kernels()
    assert len(kernels) == 14
    for lanes, source in kernels:
        assert _lane_unsafe_bindings(lanes) == [], source


def test_detector_sees_lane_unsafe_numpy_in_a_namespace():
    namespace = {"k0": np.exp, "k1": np.sin, "power": np.power, "log": np.log1p}
    exec("def generated(s0, state):\n    return k0(s0)\n", namespace)
    assert _lane_unsafe_bindings(np.errstate(all="ignore")(namespace["generated"])) == [
        "k0 is numpy.exp",
        "power is numpy.power",
    ]


def test_only_the_three_generators_compile_source():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _code_compilers(path)]
    assert found == [
        "expr.py:_generate calls exec",
        "expr.py:_generate calls compile",
        "integrate.py:_step calls exec",
        "integrate.py:_step calls compile",
        "reconstruct.py:_interpolant calls exec",
        "reconstruct.py:_interpolant calls compile",
    ]


def test_detector_sees_compiled_source(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def run(text):\n"
        "    return eval(text) + builtins.exec(text) + re.compile(text)\n"
        "exec(code)\n"
    )
    assert _code_compilers(probe) == ["probe.py:run calls eval", "probe.py:3 calls exec"]


def test_one_batch_path_in_the_integrator():
    path = PACKAGE / "integrate.py"
    names = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if hasattr(node, "name")}
    assert {"_drive_lanes", "_TrajectoryCache"} <= names  # a rename must not exempt every reader or caller
    assert _batch_forks(path) == []


def test_detector_sees_a_batch_fork(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_TAIL_LANES = 16\n"
        "def _drive_lanes(lanes):\n"
        "    return len(lanes) <= _TAIL_LANES\n"
        "def batch(field, tau):\n"
        "    if len(tau) > _TAIL_LANES and isinstance(field, VectorField):\n"
        "        return hasattr(self.field, 'lanes')\n"
        "    return isinstance(tau, np.ndarray)\n"
        "class Cache:\n"
        "    def solve(self, t):\n"
        "        return isinstance(t, TabulatedVectorField) or t > _TAIL_LANES\n"
        "class _TrajectoryCache:\n"
        "    def solve(self, state):\n"
        "        return _drive(self.field, state) or self._drive(state)\n"
        "def _integrate(state):\n"
        "    return _drive(state)\n"
    )
    assert _batch_forks(probe) == [
        "probe.py:5 reads _TAIL_LANES",
        "probe.py:5 tests isinstance(field, VectorField)",
        "probe.py:6 tests hasattr(self.field, 'lanes')",
        "probe.py:10 reads _TAIL_LANES",
        "probe.py:10 tests isinstance(t, TabulatedVectorField)",
        "probe.py:13 calls _drive",
    ]


def test_the_integrator_reads_a_field_only_through_its_protocol():
    seen, found = _field_reads(PACKAGE / "integrate.py")
    assert seen == _FIELD_READS | _DOMAIN_READS  # a rename must not empty the check
    assert found == []


def test_detector_sees_a_field_read_past_its_protocol(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def drive(field, t, y):\n"
        "    k1 = field.slope(t, y) if field.n else field(t, y)\n"
        "    box = field.domain.time_box if field.domain.contains(t, y) else field.times\n"
        "    return getattr(field, 'table'), vars(self.field), self.field.rhs, getattr(box, 'lo')\n"
        "class Cache:\n"
        "    def solve(self, t, x):\n"
        "        return self.field.lanes(t, x), self.field.domain.contains_lanes(t, x), self.field.domain.n\n"
    )
    seen, found = _field_reads(probe)
    assert seen == _FIELD_READS | _DOMAIN_READS
    assert found == [
        "probe.py:2 calls field(t, y)",
        "probe.py:3 reads field.domain.time_box",
        "probe.py:3 reads field.times",
        "probe.py:4 calls getattr(field, 'table')",
        "probe.py:4 calls vars(self.field)",
        "probe.py:4 reads self.field.rhs",
        "probe.py:7 reads self.field.domain.n",
    ]


def _both_field_types():
    return [catalog.get("rotation").field(),
            reconstruct.TabulatedVectorField(np.array([0.0, 1.0]), [np.array([0.0, 1.0])], np.zeros((2, 2, 1)))]


def test_neither_field_type_is_callable():
    for field in _both_field_types():
        assert not callable(field)  # its slope is field.slope, and nothing else


def test_a_fields_lanes_is_its_compiled_function():
    for field in _both_field_types():
        assert field.lanes is field.lanes and field.slope is field.slope  # not a method bound anew per read
        assert {"slope", "lanes"} <= set(vars(field))


def test_only_integrate_refuses_a_start():
    path = PACKAGE / "integrate.py"
    names = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if hasattr(node, "name")}
    assert set(_START_RULE) <= names  # a rename must not exempt a function
    assert _start_checks(path) == []


def test_detector_sees_a_start_check_outside_the_rule(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class IntegratorConfig:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError('window must be a nonempty interval')\n"
        "def _integrate(field, rho, a, tau):\n"
        "    raise ValueError('outside the integration window')\n"
        "def advance(field, rho, a, tau):\n"
        "    if not field.domain.contains(rho, a):\n"
        "        raise ValueError('outside the field domain')\n"
        "    raise KeyError(rho)\n"
        "class _Cache:\n"
        "    def solve(self, tau):\n"
        "        raise ValueError\n"
        "def evaluator(tau):\n"
        "    raise DomainViolation('out_of_domain', 'outside the integration window')\n"
    )
    assert _start_checks(probe) == [
        "probe.py:8 advance raises ValueError",
        "probe.py:12 _Cache raises ValueError",
    ]


def test_only_run_answers_a_failure_in_the_cli():
    path = PACKAGE / "cli.py"
    names = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if hasattr(node, "name")}
    assert {"_run", _FLOW_ANSWER[0]} <= names  # a rename must not exempt a handler
    assert _failure_answers(path, cli._FAILURES) == []


def test_detector_sees_a_failure_answered_outside_run(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _cmd_decompose(args, spec, out):\n"
        "    try:\n"
        "        dec = sincov_decompose(family)\n"
        "    except (NotAffine, core.DomainViolation) as err:\n"
        "        _emit(out, {'kind': 'error', 'message': str(err)})\n"
        "    except ValueError:\n"
        "        return 2\n"
        "    except KeyError:\n"
        "        return 2\n"
        "def _cmd_flow(args, spec, out):\n"
        "    try:\n"
        "        value = family.evaluate(args.tau, args.sigma, args.a)\n"
        "    except DomainViolation as err:\n"
        "        return 1\n"
        "    except (DomainViolation, ValueError):\n"
        "        return 1\n"
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError as err:\n"
        "        raise ConfigError(path, '<file>', str(err)) from None\n"
        "def _run(args):\n"
        "    try:\n"
        "        return command(args)\n"
        "    except ValueError as err:\n"
        "        return 1\n"
    )
    failures = ((OSError, 2), (ValueError, 1), (type("NotAffine", (Exception,), {}), 1),
                (type("DomainViolation", (Exception,), {}), 1))
    assert _failure_answers(probe, failures) == [
        "probe.py:4 _cmd_decompose answers DomainViolation, NotAffine",
        "probe.py:6 _cmd_decompose answers ValueError",
        "probe.py:15 _cmd_flow answers DomainViolation, ValueError",
    ]


def test_no_module_uses_numpy_random():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _numpy_random(path)]
    assert found == []


def test_detector_sees_numpy_random(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy.random\n"
        "from numpy import random, sin\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng(3) if numpy.random else random.Random(3)\n"
        "x = np.sin(rng.random())\n"
    )
    assert _numpy_random(probe) == [
        "probe.py:1 imports numpy.random",
        "probe.py:2 imports random from numpy",
        "probe.py:3 imports from numpy.random",
        "probe.py:4 uses np.random",
        "probe.py:4 uses numpy.random",
    ]
