"""Seeded workload inputs as plain data: configs, plans, query points, anchors.

Only the standard library is used, so a fresh process can generate the
inputs before it starts timing the import of flowfam.  The same
(workload, seed, size) always gives the same inputs.

Grids are the fixed shapes the workloads are defined on, moved by a small
seeded jitter, and query points are stratified draws.  Every seed therefore
asks for about the same amount of work, while no two seeds hand the library
the same numbers.
"""

from __future__ import annotations

import random
from itertools import product

WORKLOADS = ("verify-numeric", "reconstruct-roundtrip", "query-mix")
SIZES = ("full", "tiny")

# Catalog systems with the two properties that fix the expected exit codes
# of the closed-form commands: `autonomous` fails on a non-autonomous
# family, `decompose` on a non-affine one, `mollify` on either.
CATALOG = {
    # name: (n, autonomous, affine)
    "riccati": (1, True, False),
    "zero": (1, True, True),
    "exp_scalar": (1, True, True),
    "affine_scalar": (1, True, True),
    "rotation": (2, True, True),
    "shear": (1, False, True),
}

# Right-hand sides of the two systems the numeric route runs on, as a user
# would write them in a field config.
FIELDS = {"riccati": ["x1^2"], "rotation": ["-x2", "x1"]}

# Criterion 1 keeps riccati queries clear of blow-up: (tau - sigma) * a < 0.9.
RICCATI_GUARD = 0.9

ROUNDS = 16  # distinct sets of point queries per run


def make(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs for one run of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    if size not in SIZES:
        raise ValueError(f"unknown size '{size}'")
    rng = random.Random(seed)
    tiny = size == "tiny"
    if workload == "verify-numeric":
        return _verify_numeric(rng, tiny)
    if workload == "reconstruct-roundtrip":
        return _reconstruct_roundtrip(rng, tiny)
    return _query_mix(rng, tiny)


def _jitter(rng: random.Random, values, width: float) -> list:
    return [v + rng.uniform(-width, width) for v in values]


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """One uniform draw from each of ``count`` equal slices of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(vals)
    return vals


def _query_rounds(rng: random.Random, tiny: bool, system: str, count: int, *args, **kwargs) -> list:
    """One list of ``count`` point queries per round; pass k of a run uses round k mod ROUNDS.

    A fresh round each pass means a run's latency figures, averaged over its
    passes, rest on many distinct queries rather than on a few inputs.
    """
    rounds = 2 if tiny else ROUNDS
    return [_queries(rng, system, count, *args, **kwargs) for _ in range(rounds)]


def _queries(rng: random.Random, system: str, count: int, t_lo: float, t_hi: float,
             a_box: float, max_span: float) -> list:
    """Stratified (tau, sigma, a) triples; riccati states flip sign to respect the guard.

    A query's cost follows its span tau - sigma and its first state
    component, so those two are drawn once from each cell of a grid over
    [-max_span, max_span] x [-a_box, a_box]; sigma in [t_lo, t_hi] and any
    further components are stratified alone.  Every round then holds about
    the same share of hard queries, and latency tails do not swing by seed.
    """
    n = CATALOG[system][0]
    rows = max(k for k in range(1, int(count**0.5) + 1) if count % k == 0)
    cols = count // rows
    cells = [((i + rng.random()) / rows, (j + rng.random()) / cols)
             for i in range(rows) for j in range(cols)]
    rng.shuffle(cells)
    sigmas = _strata(rng, count, t_lo, t_hi)
    rest = [_strata(rng, count, -a_box, a_box) for _ in range(n - 1)]
    out = []
    for k, ((u, v), sigma) in enumerate(zip(cells, sigmas)):
        span = max_span * (2.0 * u - 1.0)
        a = [a_box * (2.0 * v - 1.0)] + [c[k] for c in rest]
        if system == "riccati" and span * a[0] >= RICCATI_GUARD:
            a[0] = -a[0]
        out.append((sigma + span, sigma, a))
    return out


def _verify_numeric(rng: random.Random, tiny: bool) -> dict:
    # A three-time grid over [-0.2, 0.2] instead of the CLI's six-time
    # default plan: the default costs about a minute per pass, too long to
    # repeat within one timed run.  The plan keeps the default's states
    # unjittered: step counts near the origin swing with its exact value.
    times = sorted(_jitter(rng, (-0.2, 0.0, 0.2), 0.002))
    states = {
        "riccati": [[s] for s in (-1.0, -0.5, 0.0, 0.25, 0.5)],
        "rotation": [list(p) for p in product((-1.0, 0.0, 1.0), repeat=2)],
    }
    per_system = 10 if tiny else 500
    configs, runs, queries = {}, [], {}
    for name, grid in states.items():
        if tiny:
            grid = grid[::3]
        plan = {"time_grid": times, "state_grid": grid, "random_count": 1 if tiny else 2}
        field = {"n": CATALOG[name][0], "rhs": FIELDS[name]}
        configs[f"{name}-field.json"] = {"system": {"field": field}, "plan": plan}
        configs[f"{name}-closed.json"] = {"system": {"catalog": name}, "plan": plan}
        runs.append({"system": name, "seed": rng.randrange(2**32)})
        queries[name] = _query_rounds(rng, tiny, name, per_system, times[0], times[-1], 1.0,
                                      max_span=0.3)
    return {"configs": configs, "runs": runs, "queries": queries}


def _reconstruct_roundtrip(rng: random.Random, tiny: bool) -> dict:
    # Criterion 3's grid has 7 time knots over [-1.1, 1.6] and 4001 state
    # knots over [-2.4, 2.4].  This keeps its knot spacing, on which the 1e-5
    # round-trip bound depends, over half the state range, and round-trips on
    # three of its six evaluation times: the full criterion costs 10 s a pass.
    t_lo, t_hi, t_knots = (-0.3, 0.3, 2) if tiny else (-1.1, 1.6, 7)
    x_lo, x_hi, x_knots = -1.2, 1.2, 2001
    if tiny:
        eval_times, eval_states = (-0.2, 0.2), (-0.5, 0.5)
    else:
        eval_times, eval_states = (-1.0, 0.0, 1.0), (-1.0, -0.5, 0.0, 0.25, 0.5)
    dt = rng.uniform(-0.02, 0.02)
    dx = rng.uniform(-0.5, 0.5) * (x_hi - x_lo) / (x_knots - 1)
    times = [t_lo + dt + (t_hi - t_lo) * i / (t_knots - 1) for i in range(t_knots)]
    states = [x_lo + dx + (x_hi - x_lo) * i / (x_knots - 1) for i in range(x_knots)]
    return {
        "h": 1e-4,
        "dense_times": times,
        "dense_states": states,
        "eval_times": sorted(_jitter(rng, eval_times, 0.01)),
        "eval_states": sorted(_jitter(rng, eval_states, 0.005)),
        # hops of at most 0.05 from |a| <= 0.8 stay inside the tabulated box
        "queries": {"riccati": _query_rounds(rng, tiny, "riccati", 10 if tiny else 1000,
                                             times[0] + 0.05, times[-1] - 0.05, 0.8,
                                             max_span=0.05)},
    }


def _query_mix(rng: random.Random, tiny: bool) -> dict:
    names = ("riccati", "rotation") if tiny else tuple(CATALOG)
    configs, commands = {}, []
    for name in names:
        _, autonomous, affine = CATALOG[name]
        path = f"{name}.json"
        configs[path] = {"system": {"catalog": name}}
        seed = str(rng.randrange(2**32))
        eps = rng.uniform(0.2, 0.3)
        alpha = ",".join(repr(rng.uniform(-1.0, 1.0)) for _ in range(2))
        common = ["--seed", seed, "--no-timestamp"]
        commands += [
            {"command": "verify", "config": path, "args": common, "expect": 0},
            {"command": "autonomous", "config": path, "args": common,
             "expect": 0 if autonomous else 1},
            {"command": "decompose", "config": path, "args": common,
             "expect": 0 if affine else 1},
            {"command": "mollify", "config": path,
             "args": [*common, "--eps", repr(eps), f"--alpha={alpha}"],
             "expect": 0 if autonomous and affine else 1},
        ]
    per_system = 10 if tiny else 500
    queries = {
        name: _query_rounds(rng, tiny, name, per_system, -1.0, 1.5, 1.0, max_span=1.75)
        for name in ("riccati", "rotation")
    }
    # Riccati from (rho, a) blows up at rho + 1/a: forward for a > 0,
    # backward for a < 0.  (0, 0.5) is criterion 2's anchor.
    anchors = [{"system": "riccati", "rho": 0.0, "a": [0.5]}]
    for _ in range(0 if tiny else 2):
        mag = rng.uniform(0.3, 1.0)
        anchors.append({"system": "riccati", "rho": rng.uniform(-1.0, 1.0),
                        "a": [mag if rng.random() < 0.5 else -mag]})
    anchors.append({"system": "rotation", "rho": rng.uniform(-1.0, 1.0),
                    "a": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]})
    return {"configs": configs, "commands": commands, "queries": queries, "anchors": anchors}
