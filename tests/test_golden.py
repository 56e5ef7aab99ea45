"""Golden NDJSON reports: the CLI's output for fixed configs and seeds, byte for byte.

Each case runs one command in-process on a config written under a fixed
relative name, so the meta record's ``config`` field is stable, and compares
stdout with ``tests/golden/<case>.ndjson``.  Closed-form cases cover every
catalog entry for verify, autonomous, decompose, mollify and reconstruct;
numeric cases run verify and autonomous on riccati and rotation field
configs over a small plan, which exercises the integrator-backed membership
path.  Three closed-form family configs make the set-based checks fail:
one domain has a hole around tau = 0.5 (interval and inclusion
violations), one misses the single sigma that openness half-probes land
on (openness violations), and one is empty (openness fails outright).

A mismatch is reported record by record: the case, the record's name (its
kind for meta and summary records), each changed key (dotted into nested
objects) and its old and new JSON values.  Regenerate the files (only when a
report change is intended) with ``PYTHONPATH=src python tests/test_golden.py``,
which prints the same list for every file it changes.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from flowfam.catalog import names
from flowfam.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG_NAME = "config.json"

CLOSED_FORM_ARGS = {
    "verify": [],
    "autonomous": [],
    "decompose": [],
    "mollify": ["--eps", "0.25", "--alpha=-0.2,0.3"],
    "reconstruct": [],
}

FAMILY_PREDICATES = {
    "gap": "(tau - 0.5)^2 - 0.01",
    "pinhole": "(sigma - 0.00005)^2",
    "empty": "-1",
}

NUMERIC_FIELDS = {
    "riccati": (["x1^2"], [[-0.5], [0.0], [0.5]]),
    "rotation": (["-x2", "x1"], [[1.0, 0.0], [0.0, 1.0], [-0.5, 0.5]]),
}


def _cases() -> dict:
    cases = {}
    for command, extra in CLOSED_FORM_ARGS.items():
        for name in names():
            cases[f"{command}-{name}"] = ({"system": {"catalog": name}}, [command, *extra])
    for name, predicate in FAMILY_PREDICATES.items():
        family = {"n": 1, "components": ["exp(tau - sigma)*a1"], "domain_predicate": predicate}
        cases[f"verify-{name}-family"] = ({"system": {"family": family}}, ["verify"])
    for name, (rhs, states) in NUMERIC_FIELDS.items():
        config = {
            "system": {"field": {"n": len(rhs), "rhs": rhs}},
            "plan": {"time_grid": [-0.2, 0.0, 0.2], "state_grid": states, "random_count": 2},
        }
        for command in ("verify", "autonomous"):
            cases[f"{command}-{name}-field"] = (config, [command])
    return cases


CASES = _cases()


def _report(case: str) -> tuple[int, str]:
    """Exit code and stdout of the CLI for one case."""
    config, argv = CASES[case]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(CONFIG_NAME).write_text(json.dumps(config))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([*argv, "--config", CONFIG_NAME, "--seed", "7", "--no-timestamp"])
        finally:
            os.chdir(cwd)
    return code, out.getvalue()


def _golden_path(case: str) -> Path:
    return GOLDEN / f"{case}.ndjson"


def _flat(record: dict, prefix: str = "") -> dict:
    """Record keys dotted into nested objects, each with its JSON text."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = json.dumps(value)
    return out


def changed_records(case: str, old: str, new: str) -> list[str]:
    """One line per changed key of each record: case, record name, key, old -> new."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    lines = []
    for i in range(max(len(old_lines), len(new_lines))):
        before = json.loads(old_lines[i]) if i < len(old_lines) else {}
        after = json.loads(new_lines[i]) if i < len(new_lines) else {}
        name = after.get("name", after.get("kind")) or before.get("name", before.get("kind"))
        flat_before, flat_after = _flat(before), _flat(after)
        keys = [k for k in sorted(flat_before.keys() | flat_after.keys()) if flat_before.get(k) != flat_after.get(k)]
        for key in keys:
            was, now = flat_before.get(key, "(absent)"), flat_after.get(key, "(absent)")
            lines.append(f"{case} {name} {key}: {was} -> {now}")
        if not keys and old_lines[i:i + 1] != new_lines[i:i + 1]:  # same values, other bytes
            lines.append(f"{case} {name} record {i + 1}: {old_lines[i:i + 1]} -> {new_lines[i:i + 1]}")
    return lines


def _expected_code(text: str) -> int:
    """0 when the last record passes or is a plain summary, 1 on failure or error."""
    last = json.loads(text.splitlines()[-1])
    if last["kind"] == "error" or last.get("pass") is False:
        return 1
    return 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    code, text = _report(case)
    golden = _golden_path(case).read_bytes()
    assert text.encode("utf-8") == golden, "\n".join(changed_records(case, golden.decode("utf-8"), text))
    assert code == _expected_code(text)


def test_changed_records_lists_each_changed_key():
    old = '{"kind":"meta","seed":7}\n{"kind":"condition","max_residual":0.5,"name":"inverse","worst_case":{"a":[1.0]}}\n'
    new = '{"kind":"meta", "seed":7}\n{"kind":"condition","max_residual":0.25,"name":"inverse","worst_case":{"a":[2.0]}}\n'
    assert changed_records("case", old, old) == []
    assert changed_records("case", old, new) == [
        'case meta record 1: [\'{"kind":"meta","seed":7}\'] -> [\'{"kind":"meta", "seed":7}\']',
        "case inverse max_residual: 0.5 -> 0.25",
        "case inverse worst_case.a: [1.0] -> [2.0]",
    ]
    assert changed_records("case", old, old + '{"kind":"summary","pass":true}\n') == [
        "case summary kind: (absent) -> \"summary\"",
        "case summary pass: (absent) -> true",
    ]


def test_every_golden_file_has_a_case():
    on_disk = {p.stem for p in GOLDEN.glob("*.ndjson")}
    assert on_disk == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        _, text = _report(case)
        path = _golden_path(case)
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if old != text:
            path.write_bytes(text.encode("utf-8"))
            print(f"wrote {path}")
            print("\n".join(changed_records(case, old, text)))
