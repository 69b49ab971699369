#!/usr/bin/env python3
"""Reproduce one code's threshold estimates for both circuit variants and
emit plot-ready data files.

Defaults match the repository's acceptance setup: 8 log-spaced grid
points per variant and a fixed master seed.  Writes
``{code}_{variant}.csv`` and its plot files to --out-dir.

bf: 1100 trials per point, enough for >= 1000 failures.  Expected
thresholds: simplified near 1.52e-2, perfect near 2.67e-3 (the exact
X-frame Markov chain gives 0.01519 and 0.002667; simplified beats
perfect because its cycle has fewer error sites).

surface17: 330 trials per point, >= 300 failures.  Expected thresholds:
simplified near 2.6e-4, perfect near 6.2e-5 (means over master seeds
1-30), with simplified always above perfect.  Runtime is minutes with the
frame engine; use --workers to parallelize across cores.
"""

import argparse
import os
import sys

import numpy as np

from mfqec.cli import main as mfqec_main
from mfqec.montecarlo import ENGINES

# (code, variant) -> (p grid, trials per point); the values equal the
# acceptance suite's SWEEPS, which a test checks.
SWEEPS = {
    ("bf", "simplified"): (np.geomspace(5e-3, 5e-2, 8), 1100),
    ("bf", "perfect"): (np.geomspace(1e-3, 1e-2, 8), 1100),
    ("surface17", "simplified"): (np.geomspace(1e-4, 4e-4, 8), 330),
    ("surface17", "perfect"): (np.geomspace(2e-5, 1.2e-4, 8), 330),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--code", required=True,
                    choices=sorted({code for code, _ in SWEEPS}))
    ap.add_argument("--trials", type=int,
                    help="trials per grid point (default: the code's "
                         "acceptance count)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--engine", default="frame", choices=list(ENGINES))
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    status = 0
    for (code, variant), (grid, trials) in SWEEPS.items():
        if code != args.code:
            continue
        csv_path = os.path.join(args.out_dir, f"{code}_{variant}.csv")
        if args.trials is not None:
            trials = args.trials
        run_argv = ["run", "--code", code, "--variant", variant,
                    "--trials", str(trials), "--seed", str(args.seed),
                    "--workers", str(args.workers), "--engine", args.engine,
                    "--out", csv_path]
        for p in grid:
            run_argv += ["--p", repr(float(p))]
        rc = mfqec_main(run_argv)
        status = status or rc
        mfqec_main(["plot", csv_path])
    return status


if __name__ == "__main__":
    sys.exit(main())
