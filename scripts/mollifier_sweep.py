"""Window-averaging study on the rotation group.

For a shrinking half-width eps the averaged map H_eps approaches the
identity like 1 - sinc(eps) ~ eps^2/6, and smooth_apply keeps reproducing
the group exactly at affine members.  Also compares the quoted Simpson
error bound against the measured quadrature error, where the closed form
of the average (sinc(eps) times the identity) is available.

Usage: python3 scripts/mollifier_sweep.py [--panels 256]
"""

import argparse
import math

import numpy as np

from flowfam import mollify, smooth_apply, to_group
from flowfam.catalog import get


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--panels", type=int, default=256, help="Simpson panels (even)")
    args = ap.parse_args()

    group = to_group(get("rotation").family())
    states = (np.array([1.0, 0.0]), np.array([-0.5, 0.5]))

    print(f"{'eps':>8} {'|H - id|':>12} {'1 - sinc':>12} {'quad err':>12} "
          f"{'bound':>12} {'smooth resid':>13}")
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05, 0.025):
        m = mollify(group, eps, panels=args.panels)
        dev = float(np.max(np.abs(m.H.A - np.eye(2))))
        sinc_gap = 1.0 - math.sin(eps) / eps
        exact = (math.sin(eps) / eps) * np.eye(2)
        quad = float(np.max(np.abs(m.H.A - exact)))
        resid = 0.0
        for alpha in (-0.5, 0.0, 0.7):
            mapped = smooth_apply(group, m, alpha)
            for a in states:
                resid = max(resid, float(np.max(np.abs(mapped(a) - group.evaluate(alpha, 0.0, a)))))
        print(f"{eps:>8.3f} {dev:>12.3e} {sinc_gap:>12.3e} {quad:>12.3e} "
              f"{m.error_bound:>12.3e} {resid:>13.3e}")

    print("\n|H - id| tracks 1 - sinc(eps): averaging costs eps^2/6 in bias.")
    print("The bound only covers truncation, so once it drops under ~1e-15")
    print("rounding noise takes over as the measured error.  Smoothing")
    print("recovers the group to rounding because rotations are affine.")


if __name__ == "__main__":
    main()
