"""The example scripts keep working: what they import exists, and the quick ones run."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import flowfam

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = pathlib.Path(flowfam.__file__).resolve().parent.parent


def flowfam_imports(path: pathlib.Path):
    """(module, name) for each name the script imports from flowfam; name is None for a plain import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flowfam":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "flowfam")


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_resolve(path):
    found = list(flowfam_imports(path))
    assert found, f"{path.name} imports nothing from flowfam"
    for module, name in found:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"


def test_import_detector_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import flowfam.core\nfrom flowfam import gone\nfrom flowfam.linear import mollify\nimport os\n")
    assert list(flowfam_imports(probe)) == [
        ("flowfam.core", None), ("flowfam", "gone"), ("flowfam.linear", "mollify")
    ]


@pytest.mark.parametrize("name", ["riccati_demo.py", "mollifier_sweep.py"])
def test_script_runs(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
