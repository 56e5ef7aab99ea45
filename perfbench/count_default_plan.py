"""Count the integrator work of riccati's six numeric checks at the CLI default plan.

    python3 perfbench/count_default_plan.py

Runs ``run_suite(numeric_family(riccati field), default_plan(1))`` twice
under the benchmark's span recorders and prints the DP5 step and rhs call
counts of each run as one JSON line.  The counts are exact and must repeat;
they are the baseline for count-based claims at the full default plan,
which the timed workloads scale down.  One run takes about half a minute.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import flowfam.catalog  # noqa: E402
import flowfam.integrate  # noqa: E402
import flowfam.verify  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            fam = flowfam.integrate.numeric_family(flowfam.catalog.get("riccati").field())
            report = flowfam.verify.run_suite(fam, flowfam.verify.default_plan(1))
        runs.append({
            "passed": report.passed,
            "dopri5_step": tracer.calls("integrate.step"),
            "vector_field_calls": tracer.calls("core.rhs"),
        })
    print(json.dumps({"runs": runs, "repeat": runs[0] == runs[1]}))
    return 0 if runs[0] == runs[1] else 1


if __name__ == "__main__":
    sys.exit(main())
