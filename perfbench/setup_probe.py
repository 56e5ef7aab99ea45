"""Time flowfam's import plus one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <workdir>

Prints two numbers of seconds: the set-up, from just before flowfam (and
with it numpy) is imported until every system, config and family the
workload uses is built; then the reference, importing REFERENCE_MODULES
right after.  The workload's config files must already be in <workdir>;
run.py writes them.
"""

import importlib
import sys
import time
from pathlib import Path

import inputs  # standard library only, so it costs nothing inside the timed span

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Standard-library modules that neither numpy nor flowfam import, ssl among
# them for a shared-library load like numpy's.  Their import does the same
# kind of work as set-up (finding, reading and unmarshalling modules,
# running their bodies, loading extensions) at the same moment, so run.py
# divides set-up by it to take out the host's speed.  Imported after set-up,
# so a module flowfam starts to import can only make set-up look slower.
REFERENCE_MODULES = ("pydoc", "unittest", "http.client", "xml.dom.minidom")


def main() -> int:
    workload, seed, size, workdir = sys.argv[1:5]
    spec = inputs.make(workload, int(seed), size)
    start = time.perf_counter()
    import workloads  # imports numpy and flowfam

    workloads.build(workload, spec, workdir)
    built = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(repr(built - start), repr(time.perf_counter() - built))
    return 0


if __name__ == "__main__":
    sys.exit(main())
