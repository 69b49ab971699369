"""Per-layer metrics of a fixed number of benchmark rounds.

    python3 scripts/trace_rounds.py --workload s17-perfect-deep --rounds 8

Runs rounds 0 ... N-1 of one workload of ``perfbench/run.py`` (its
``WORKLOADS``, seeds and calls) under ``perfbench/spans.Tracer`` and prints
the tracer's per-layer metrics as one JSON line.  ``perfbench/run.py
--trace 1`` repeats rounds for a fixed time, so a faster commit traces more
rounds; with the rounds fixed, the counts (``engine.run_cycle.calls``,
``errors.*.calls``, ``trial.calls``) of two commits can be compared, and
equal counts show that both make the same cycles and draws.  Rounds are not
timed against the benchmark's calibration clock, so the seconds are raw.
Both benchmark modules are imported, not changed; a ``bf-sweep`` round
writes its CSV under ``perfbench/out/`` as the benchmark does.

The line also gives the sizes of the C kernel's tables, which the kernel
and the Python loop read, of the workload circuit's frame engine:
``tables.fresh_rows``, one per single fault on the clean frame, and
``tables.orbit_entries``, the zero-event cycles on the noiseless orbits of
all of them.  They are read from ``engine.kernel_circuit()``, which fills
them whole whatever the rounds ran (0 where the kernel cannot be built).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (perfbench/run.py)
from spans import Tracer  # noqa: E402

from mfqec.circuits import Variant  # noqa: E402
from mfqec.montecarlo import circuit_for, make_engine  # noqa: E402


class _Untimed:
    """Stands in for the benchmark's calibration clock: rounds run once,
    with no calibration kernel around them."""

    def time(self, call):
        return call(), 0.0, 0.0

    def mark(self):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=run.ACCEPTANCE_SEED)
    ap.add_argument("--trials", type=int,
                    help="trials per point instead of the workload's own")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.seed < 0 or (args.trials is not None and args.trials < 1):
        ap.error("--rounds and --trials must be >= 1, --seed >= 0")
    trials = args.trials or run.WORKLOADS[args.workload]["trials"]
    runner = run.Runner(args.workload, args.seed, trials, _Untimed())
    tracer = Tracer()
    tracer.install()
    try:
        for index in range(args.rounds):
            runner.round(index)
    finally:
        tracer.uninstall()
    spec = run.WORKLOADS[args.workload]
    engine = make_engine(circuit_for(spec["code"], Variant(spec["variant"])), "frame")
    packed = engine.kernel_circuit()
    tables = {"tables.fresh_rows": sum(cyc.n_fresh for cyc in packed.cycle),
              "tables.orbit_entries": sum(cyc.n_idle for cyc in packed.cycle)}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": args.rounds, "trials_per_point": trials,
                      **tables, "metrics": tracer.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
