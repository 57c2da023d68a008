#!/usr/bin/env python3
"""Boundary classification and killed-diffusion checks on the canonical drifts."""

import argparse
import sys

import numpy as np
from scipy.special import erf

from levylab.feller import (
    CANONICAL_DRIFTS,
    feller_test,
    trace_decay_link,
)
from levylab.montecarlo import MCConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-paths", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    for name, mk in CANONICAL_DRIFTS.items():
        report = feller_test(mk())
        print(f"{name}: left endpoint {report.left}, right endpoint {report.right}")

    # the minimal curve is the killed Brownian motion; its t = 1 point is checked in closed form
    link = trace_decay_link(
        CANONICAL_DRIFTS["zero"](), 1.0, np.array([0.25, 0.5, 0.75, 1.0]),
        MCConfig(args.n_paths, args.seed), dt=1e-3,
    )
    target = erf(1.0 / np.sqrt(2.0))
    print(f"killed BM survival at t=1: {link.minimal[-1]:.4f} +- {link.minimal_stderr[-1]:.4f} "
          f"(closed form {target:.4f})")
    print(f"minimal vs reflecting separation: {link.max_separation:.4f} "
          f"({link.max_separation_sigmas:.0f} joint sigmas) -> witness = {link.witness}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
