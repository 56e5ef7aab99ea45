"""Module boundaries inside the package: no module reaches another's private names.

A name that starts with an underscore belongs to its module or object.
When a sibling needs it, the name is made public instead of imported
across the boundary or read off another object.  Attributes of ``self``
and ``cls`` and dunder names are exempt.

A sample that leaves the domain is one rule, kept by ``Accumulator.lanes``:
a lane whose legs do not all exist is a skip, and a lane whose legs exist
while its direct map does not scores an infinite residual, so no
``except DomainViolation`` handler skips or records by hand.

Lane kernels equal the scalar closures bit for bit only while they leave
``exp``, ``tanh``, ``log`` and powers to ``math``: numpy's versions round
some arguments differently, so no module references them.

The integrator's scalar step loop makes no numpy call: it runs on tuples of
floats, summed in plain arithmetic, so no BLAS kernel fuses its products.

A numeric family has one batch path: the integrator tests no field's type
or attributes, and only ``_drive_lanes`` reads ``_TAIL_LANES``, the lane
count at which the scalar loop takes over.

No module uses numpy.random: a plan's draws come from ``flowfam.pcg``, and
importing numpy.random loads secrets, hashlib and libcrypto, about 6 MB
resident.
"""

import ast
import importlib
from pathlib import Path

import flowfam

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
_STEP_LOOP = {"dopri5_step", "_drive", "_error_norm", "_classify", "_first_try", "_integrate", "_bisect_escape",
              "_Trajectory"}


def _numpy_in_step_loop(path: Path) -> list[str]:
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in _STEP_LOOP):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno} {top.name} uses {ast.unparse(node)}")
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
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


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


def test_one_batch_path_in_the_integrator():
    path = PACKAGE / "integrate.py"
    names = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body if hasattr(node, "name")}
    assert "_drive_lanes" in names  # a rename must not exempt every reader
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
    )
    assert _batch_forks(probe) == [
        "probe.py:5 reads _TAIL_LANES",
        "probe.py:5 tests isinstance(field, VectorField)",
        "probe.py:6 tests hasattr(self.field, 'lanes')",
        "probe.py:10 reads _TAIL_LANES",
        "probe.py:10 tests isinstance(t, TabulatedVectorField)",
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
