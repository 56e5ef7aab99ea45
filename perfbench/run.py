"""flowfam benchmark: one run of one workload.

    python3 perfbench/run.py --workload verify-numeric --seed 1 --seconds 30 --trace 0

Run it from the root of a flowfam checkout; it uses the package in src/.
Workloads, metrics and the reasons for both are in perfbench/README.md.

--trace 0 repeats whole passes for --seconds (the first pass is a
warm-up), times set-up in fresh interpreters between them, and prints the
end-to-end metrics.  --trace 1 runs one plain pass and two passes with span
recorders around flowfam's entry points, prints the per-layer metrics of
the first traced pass, and checks that every call count repeats in the
second.

Every output of every pass is checked.  Standard output ends with an
environment-and-detail record and then the result line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os

# one thread: pin every BLAS pool before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # timed passes, beyond the warm-up
# Set-up is timed in fresh interpreters run between the passes, until they
# have taken SETUP_SHARE of the run so far, so that like the passes they
# sample the host's speed over the whole run.  Each probe's set-up is
# rescaled by SETUP_NOMINAL_S over the time its reference imports took
# right after it (setup_probe.py); setup_s is the median over the probes.
# The loop below does not serve here: its time, taken just before a probe,
# does not follow the probe's (correlation 0.5, against 0.76 for the
# imports), and rescaling by it widened the spread.
SETUP_SHARE = 0.2
SETUP_NOMINAL_S = 0.06

# Speed normalisation.  The speed the host gives this process drifts by
# +-20% within seconds and over tens of seconds, which no median over one
# run removes.  During each timed pass a timer signal runs reference_loop
# every CAL_INTERVAL_S, and the *_norm_* metrics rescale the pass by the
# loop's nominal over its mean time during the pass, and the latencies
# measured in it by the nominal over the loop's mean time while the point
# queries ran, which follows the host's speed during them more closely
# (within a run, pass-to-pass variation of the median latency fell from 5%
# to 3.4%).  They read as seconds on a host where the loop takes
# CAL_NOMINAL_S, its typical time during passes on the 2-vCPU machine the
# bounds were set on.  Raw wall times are in the detail record.
CAL_ITERATIONS = 1000
CAL_INTERVAL_S = 0.05
CAL_NOMINAL_S = 0.0028


def _parse(argv):
    import inputs

    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed part")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=inputs.SIZES, default="full",
                   help="tiny shrinks every workload for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "flowfam" / "__init__.py").is_file():
        print(f"perfbench: no flowfam package in {SRC}; run from a flowfam checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import workloads

    spec = inputs.make(args.workload, args.seed, args.size)
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        workloads.write_configs(spec, workdir)
        wl = workloads.build(args.workload, spec, workdir)
        ops = workloads.Ops()
        wl.reference(ops)
        if args.trace:
            metrics, detail = _traced(wl, ops)
        else:
            metrics, detail = _timed(args, wl, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in ops.errors:
        print(f"perfbench: failed op: {err}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "environment": _environment(), **detail}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _timed(args, wl, ops, workdir):
    start = time.perf_counter()
    setup, setup_raw, setup_ref, probes_s = [], [], [], 0.0
    wl.run_pass(ops)  # warm-up; its outputs are the ones later passes must repeat
    wall, norm, loop_s, cuts_wall, cuts_norm = [], [], [], [], []
    while True:
        while not setup or probes_s < SETUP_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            raw, ref = _setup_probe(args, workdir)
            setup_raw.append(raw)
            setup_ref.append(ref)
            setup.append(raw * SETUP_NOMINAL_S / ref)
            probes_s += time.perf_counter() - t0
        with _SpeedProbe() as probe:
            t0 = probe.clock()
            wl.run_pass(ops, probe.time_call)
            elapsed = probe.clock() - t0
        lat_us = probe.latencies_us
        loop_s.append(probe.mean())
        wall.append(elapsed)
        norm.append(elapsed * CAL_NOMINAL_S / loop_s[-1])
        cuts = statistics.quantiles(lat_us, n=100)
        cuts_wall.append((cuts[49], cuts[89], cuts[98]))
        scale = CAL_NOMINAL_S / probe.query_mean()
        cuts_norm.append((cuts[49] * scale, cuts[89] * scale))
        if len(wall) >= MIN_PASSES and (
            time.perf_counter() - start + statistics.median(wall) > args.seconds
        ):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_norm_s": (statistics.median(norm), "s"),
        "flow_p50_norm_us": (statistics.fmean(c[0] for c in cuts_norm), "us"),
        "flow_p90_norm_us": (statistics.fmean(c[1] for c in cuts_norm), "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "run_s": _summary(wall),
        "run_norm_s": _summary(norm),
        "flow_us": {"queries_per_pass": len(lat_us), "p50_p90_p99_per_pass": cuts_wall},
        "reference_loop_s": loop_s,
        "setup_s": {"median": statistics.median(setup), "probes": len(setup), "all": setup,
                    "raw": setup_raw, "reference": setup_ref},
    }
    return metrics, detail


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "passes": len(values),
            "all": values}


def reference_loop() -> float:
    """Seconds one run of the reference loop takes now.

    The loop mixes Python float arithmetic with numpy calls on length-2
    arrays, as flowfam's hot paths do, so its time follows the speed the
    host gives this process.  No flowfam code runs in it.
    """
    import numpy

    start = time.perf_counter()
    x = numpy.zeros(2)
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        x = x * 0.5 + 1.0
        acc += math.sin(i * 1e-3)
    return time.perf_counter() - start


class _SpeedProbe:
    """Times a reference loop from a timer signal while the block runs.

    Samples land evenly in time, so their mean is the host's speed averaged
    over the block.  ``clock`` is perf_counter less the time the samples
    took.  ``time_call`` times one point query into ``latencies_us``; a
    sample due during it waits until the call returns, so it neither
    lengthens nor disturbs the query.
    """

    def __enter__(self):
        self.samples: list = []
        self.latencies_us: list = []
        self._queries_from = None  # samples before the first point query
        self._queries_to = 0  # samples before the end of the last one
        self.spent = 0.0
        self._held = self._pending = False
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_timer(self, signum, frame):
        if self._held:
            self._pending = True
        else:
            self._sample()

    def time_call(self, fn, *args):
        if self._queries_from is None:
            self._queries_from = len(self.samples)
        self._held = True
        try:
            start = time.perf_counter()
            value = fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            self._held = False
            if self._pending:
                self._pending = False
                self._sample()
        self.latencies_us.append(elapsed * 1e6)
        self._queries_to = len(self.samples)
        return value

    def _sample(self):
        took = reference_loop()
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        while True:  # retry if a sample lands between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def mean(self) -> float:
        if not self.samples:  # a block shorter than one interval
            self._sample()
        return statistics.fmean(self.samples)

    def query_mean(self) -> float:
        """Mean loop time from the first point query to the end of the last."""
        during = self.samples[self._queries_from or 0:self._queries_to]
        return statistics.fmean(during) if during else self.mean()


def _setup_probe(args, workdir) -> tuple[float, float]:
    """Seconds of set-up and of the reference imports in one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
           args.size, workdir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw, ref = done.stdout.split()[-2:]
    return float(raw), float(ref)


def _traced(wl, ops):
    import tracing

    t0 = time.perf_counter()
    wl.run_pass(ops)
    plain_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    counts, traced_s = [], []
    with tracer:
        for _ in range(2):
            tracer.reset()
            wl.passes = 0  # same round of point queries as the plain pass, so counts can repeat
            t0 = time.perf_counter()
            wl.run_pass(ops)
            traced_s.append(time.perf_counter() - t0)
            counts.append(tracer.counts())
            if len(counts) == 1:
                metrics, table = tracer.metrics(), tracer.table()
    repeat = counts[0] == counts[1]
    ops.run("traced call counts repeat",
            lambda: (None if repeat else "call counts differ between two traced passes", None))
    overhead = traced_s[0] / plain_s - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.counts_repeat"] = (int(repeat), "bool")
    detail = {"plain_pass_s": plain_s, "traced_pass_s": traced_s, "tracing_overhead": overhead,
              "counts_repeat": repeat, "spans": table}
    return metrics, detail


def _environment() -> dict:
    import numpy

    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_rev": _git_rev(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _git_rev() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
