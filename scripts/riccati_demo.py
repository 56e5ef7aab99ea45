"""Walk through the blow-up family x' = x^2 end to end.

Evaluates the flow along both routes (closed form and integrator), locates
the escape interval through a chosen initial condition, runs the condition
suite, and reduces the family to its one-parameter group.

Usage: python3 scripts/riccati_demo.py [--a 0.5] [--rho 0.0]
"""

import argparse

from flowfam import (
    IntegratorConfig,
    check_group_law,
    default_plan,
    escape_interval,
    numeric_family,
    run_suite,
    to_group,
)
from flowfam.catalog import get


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--a", type=float, default=0.5, help="initial state")
    ap.add_argument("--rho", type=float, default=0.0, help="initial time")
    args = ap.parse_args()

    entry = get("riccati")
    closed = entry.family()
    numeric = numeric_family(entry.field(), IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12))

    print(f"flow maps from ({args.rho}, {args.a}), closed form vs integrated:")
    print(f"{'tau':>6} {'closed':>18} {'numeric':>18} {'gap':>10}")
    for tau in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
        try:
            want = closed.evaluate(tau, args.rho, (args.a,))[0]
            got = numeric.evaluate(tau, args.rho, (args.a,))[0]
        except Exception as err:
            print(f"{tau:>6} left the domain: {err}")
            continue
        print(f"{tau:>6} {want:>18.12f} {got:>18.12f} {abs(want - got):>10.2e}")

    interval = escape_interval(entry.field(), args.rho, (args.a,))
    print(
        f"\nescape interval: ({interval.lower:.6f}, {interval.upper:.6f})"
        f"  kinds ({interval.lower_kind}, {interval.upper_kind})"
    )
    if args.a > 0:
        print(f"analytic blow-up at rho + 1/a = {args.rho + 1.0 / args.a:.6f}")

    print("\ncondition suite on the closed form:")
    report = run_suite(closed, default_plan(1))
    for rep in report.conditions:
        print(
            f"  {rep.condition_name:<17} {'pass' if rep.passed else 'FAIL'}"
            f"  residual {rep.max_residual:.2e}  ({rep.samples_checked} samples)"
        )

    group = to_group(closed)
    law = check_group_law(group, default_plan(1))
    print(f"\nautonomous reduction: group-law residual {law.max_residual:.2e}")
    g = group.evaluate(0.5, 0.0, (0.5,))
    print(f"G_0.5(0.5) = {g[0]:.6f}, G_0.5 again = {group.evaluate(0.5, 0.0, g)[0]:.6f}")


if __name__ == "__main__":
    main()
