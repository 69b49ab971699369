"""Regenerates perfbench/reference.json, the reference the benchmark's
output checks compare against:

* ``digests``: failure-time digests of every point the acceptance seed
  produces at the workload's own trial count (rounds 0..N-1 of the
  estimate workloads, the eight sweep points of ``bf-sweep``);
* ``pool``: mean, standard deviation and count of failure times per grid
  point, pooled over many trials, for seeds without a digest;
* ``p_th``: the threshold ``bf-sweep`` reports for the acceptance seed.

    python3 perfbench/make_reference.py

Takes about five minutes on two cores.  Rerun it only when a change to
the program alters the random stream on purpose, and say so in the
change's notes.
"""
import json
import statistics
import sys

import run
from calibrate import Clock

ESTIMATE_ROUNDS = {"s17-perfect-deep": 48, "s17-simplified-stuck": 32}
SWEEP_POOL_SEEDS = range(run.ACCEPTANCE_SEED, run.ACCEPTANCE_SEED + 10)
Z = 5.0


def pool_stats(cycles) -> dict:
    return {"n": len(cycles), "mean": statistics.fmean(cycles),
            "std": statistics.stdev(cycles)}


def main():
    sys.path.insert(0, str(run.SRC))
    from mfqec import montecarlo
    from mfqec.circuits import Variant
    from mfqec.codes import CODES

    seed = run.ACCEPTANCE_SEED
    clock = Clock()  # rounds are timed, though only their outputs are kept
    out = {"z": Z, "workloads": {}}
    for name, n_rounds in ESTIMATE_ROUNDS.items():
        runner = run.Runner(name, seed, run.WORKLOADS[name]["trials"], clock)
        digests, cycles = {}, []
        for r in range(n_rounds):
            (pt,) = runner.round(r)["points"]
            fc = pt["est"].failure_cycles
            digests[f"{seed}/{runner.trials}/{r}"] = run.failure_digest(fc)
            cycles.extend(fc)
            print(name, r, len(cycles), file=sys.stderr, flush=True)
        out["workloads"][name] = {"digests": digests, "pool": {"0": pool_stats(cycles)}}

    name = "bf-sweep"
    spec = run.WORKLOADS[name]
    runner = run.Runner(name, seed, spec["trials"], clock)
    rnd = runner.round(0)
    digests = {f"{seed}/{runner.trials}/{pt['point_index']}":
               run.failure_digest(pt["est"].failure_cycles) for pt in rnd["points"]}
    pool = {}
    for g, p in enumerate(runner.grid):
        cycles = []
        for s in SWEEP_POOL_SEEDS:
            est = montecarlo.estimate_logical_error_rate(
                CODES[spec["code"]], Variant(spec["variant"]), p, spec["trials"], s,
                point_index=g, workers=spec["workers"], engine="frame")
            cycles.extend(est.failure_cycles)
        pool[str(g)] = pool_stats(cycles)
        print(name, g, len(cycles), file=sys.stderr, flush=True)
    out["workloads"][name] = {
        "digests": digests, "pool": pool,
        "p_th": {f"{seed}/{runner.trials}": rnd["summary"]["p_th"]},
    }
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
