"""mfqec benchmark: seeded, closed-loop workloads timed end to end, with a
traced mode that splits the time by layer.

    python3 perfbench/run.py --workload s17-perfect-deep --seed 42 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the output checks, ``metrics`` maps each metric to its value and unit.
The line before it is a JSON report of the checks; a result file with the
same data plus versions and git revision goes to ``perfbench/out/``.

Workloads (``WORKLOADS`` below; the reasons are in ``perfbench/README.md``):

* ``s17-perfect-deep``, ``s17-simplified-stuck``: rounds of
  ``estimate_logical_error_rate`` with one process; round r is seeded by
  (seed, point_index=r).
* ``bf-sweep``: ``mfqec run`` (``cli.main``) on criterion 1's grid with two
  pool workers; every repetition uses the same seed, so the CSVs must match.

A run starts with an untimed warm-up call, then repeats rounds while the
next one is expected to end within ``--seconds``.  Every timed unit (a
round, a set-up probe; in an untraced sweep, each point) is bracketed by
the calibration kernel of ``calibrate.py`` and reported in scaled seconds,
which remove the shared host's changes of speed.  Every end-to-end rate pools all rounds of the
run, and ``wall_s`` is their mean time: the rounds of an estimate workload
differ in work, so the mean has the smaller seed-to-seed spread.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# The acceptance seed: criterion 1's p_th window is defined for it alone.
ACCEPTANCE_SEED = 42

WORKLOADS = {
    "s17-perfect-deep": dict(
        kind="estimate", code="surface17", variant="perfect",
        grid=[4.2e-5], trials=20),
    "s17-simplified-stuck": dict(
        kind="estimate", code="surface17", variant="simplified",
        grid=[1.3e-4], trials=60),
    "bf-sweep": dict(
        kind="sweep", code="bf", variant="simplified",
        grid=[float(p) for p in np.geomspace(5e-3, 5e-2, 8)], trials=1100, workers=2,
        window=(0.015, 0.025)),
}

END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.run_cycle.calls": "count",
    "engine.run_cycle.self_s": "s",
    "engine.run_cycle.us_per_call": "us",
    "engine.noisy_cycles": "count",
    "engine.zero_event_cycles": "count",
    "engine.zero_event_share": "ratio",
    "engine.distinct_key_share": "ratio",
    "engine.events_applied": "count",
    "errors.clean_run.calls": "count",
    "errors.clean_run.self_s": "s",
    "errors.count_given_any.calls": "count",
    "errors.count_given_any.self_s": "s",
    "errors.draw_paulis.calls": "count",
    "errors.draw_paulis.self_s": "s",
    "trial.calls": "count",
    "trial.self_s": "s",
    "trial.seed.self_s": "s",
    "trial.ms_p50": "ms",
    "trial.ms_p90": "ms",
    "trial.ms_max": "ms",
    "trial.engine_cycle_share": "ratio",
    "pool.pools_started": "count",
    "pool.speedup": "ratio",
    "pool.efficiency": "ratio",
    "estimate.bootstrap.self_s": "s",
    "threshold.sweep_point.calls": "count",
    "threshold.sweep_point.total_s": "s",
    "threshold.crossing.self_s": "s",
    "cli.self_s": "s",
    "circuits.build_s": "s",
    "engine.compile_s": "s",
    "trace.overhead_share": "ratio",
    "error_share": "ratio",
    "censored_share": "ratio",
}

SETUP_RUNS = 5
# Warm-up calls use this point index, which no timed round reaches.
WARMUP_POINT = 1_000_000
WARMUP_TRIALS = {"estimate": 4, "sweep": 40}
MAX_CYCLES = 10_000_000  # the package default, used by every workload

# Runs in a fresh interpreter: import, circuit build and engine compile.
SETUP_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mfqec.cli
from mfqec.circuits import Variant, build_circuit
from mfqec.montecarlo import make_engine
t1 = time.perf_counter()
circuit = build_circuit(sys.argv[2], Variant(sys.argv[3]))
t2 = time.perf_counter()
make_engine(circuit, "frame")
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "compile_s": t3 - t2,
                  "setup_s": t3 - t0, "file": mfqec.__file__}))
"""


def measure_setup(spec, clock: Clock) -> list:
    """One untimed warm-up, then SETUP_RUNS timed fresh interpreters; each
    probe's set-up time is also given scaled by the calibration around it."""
    runs = []
    for i in range(SETUP_RUNS + 1):
        proc, wall, scaled = clock.time(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), spec["code"], spec["variant"]],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True))
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["scaled_setup_s"] = probe["setup_s"] * scaled / wall
        if not Path(probe["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup probe imported mfqec from {probe['file']}")
        if i:
            runs.append(probe)
    return runs


def failure_digest(failure_cycles) -> str:
    return hashlib.sha256(
        json.dumps([int(c) for c in failure_cycles]).encode()).hexdigest()[:16]


class Checks:
    """Output checks; each counts towards ``attempted`` and, failing,
    towards ``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def reference_interval(pool: dict, n: int, z: float):
    """p_log interval the mean of n failure times falls in with a
    correct program: the reference pool's mean +- z standard errors of
    the difference between an n-sample mean and the pool's mean."""
    half = z * pool["std"] * math.sqrt(1.0 / n + 1.0 / pool["n"])
    lo_mean = pool["mean"] - half
    return 1.0 / (pool["mean"] + half), (1.0 / lo_mean if lo_mean > 0 else math.inf)


class Runner:
    """Runs one workload's rounds and keeps each point estimate they
    produce (``estimate_logical_error_rate`` is wrapped to record them)."""

    def __init__(self, name: str, seed: int, trials: int, clock: Clock):
        from mfqec import montecarlo
        from spans import Patches

        self.name = name
        self.clock = clock
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.trials = trials
        self.grid = self.spec["grid"]
        self.captured = []
        # Untraced sweeps take a calibration sample after every point, so
        # that a sweep's time is scaled in segments of about a second.
        self.mark_points = False
        est = montecarlo.estimate_logical_error_rate
        sig = inspect.signature(est)

        @functools.wraps(est)
        def capture(*args, **kwargs):
            result = est(*args, **kwargs)
            if self.mark_points:
                self.clock.mark()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.captured.append(dict(
                p=a["p"], point_index=a["point_index"], seed=a["master_seed"],
                est=result))
            return result

        Patches().replace(est, capture)

    def warmup(self):
        """An untimed small call through the same path as a round: fills the
        package's caches and lets lazy set-up finish before timing."""
        trials = WARMUP_TRIALS[self.spec["kind"]]
        if self.spec["kind"] == "estimate":
            self._estimate_call(WARMUP_POINT, trials)
        else:
            self._sweep_call(WARMUP_POINT, self.spec["workers"], trials)

    def round(self, index: int, workers=None) -> dict:
        self.captured = []
        if self.spec["kind"] == "estimate":
            call = functools.partial(self._estimate_call, index, self.trials)
        else:
            call = functools.partial(self._sweep_call, index,
                                     workers or self.spec["workers"], self.trials)
        out, wall, scaled = self.clock.time(call)
        out.update(wall=wall, scaled=scaled)
        out["points"] = self.captured
        for pt in out["points"]:
            pt["g"] = self.grid.index(pt["p"])
        return out

    def _estimate_call(self, index: int, trials: int) -> dict:
        from mfqec import montecarlo
        from mfqec.circuits import Variant
        from mfqec.codes import CODES

        spec = self.spec
        montecarlo.estimate_logical_error_rate(
            CODES[spec["code"]], Variant(spec["variant"]), spec["grid"][0],
            trials, self.seed, point_index=index, workers=1, engine="frame")
        return {}

    def _sweep_call(self, index: int, workers: int, trials: int) -> dict:
        from mfqec import cli

        spec = self.spec
        OUT.mkdir(exist_ok=True)
        csv_path = OUT / f"{self.name}-seed{self.seed}-round{index}-w{workers}.csv"
        csv_path.unlink(missing_ok=True)
        argv = ["run", "--code", spec["code"], "--variant", spec["variant"],
                "--trials", str(trials), "--seed", str(self.seed),
                "--workers", str(workers), "--engine", "frame", "--out", str(csv_path)]
        for p in self.grid:
            argv += ["--p", repr(p)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        lines = stdout.getvalue().strip().splitlines()
        return {
            "workers": workers, "rc": rc,
            "summary": json.loads(lines[-1]) if lines else {},
            "csv": csv_path.read_text(encoding="utf-8") if csv_path.exists() else "",
            "stderr_tail": stderr.getvalue()[-2000:],
        }

    def timed_rounds(self, budget: float) -> list:
        """Rounds 0, 1, ... while the next is expected to end within
        ``budget`` seconds, calibration included; at least one."""
        rounds = []
        start = perf_counter()
        while True:
            rounds.append(self.round(len(rounds)))
            elapsed = perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > budget:
                return rounds


class Verifier:
    """Checks a workload's outputs against the program's contract and the
    recorded reference (``perfbench/reference.json``)."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.checks = Checks()
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.z = ref["z"]
        self.ref = ref["workloads"][runner.name]
        self.stream_matches = []

    def point(self, pt: dict, tag: str):
        c, r = self.checks, self.runner
        est = pt["est"]
        fc = est.failure_cycles
        tag = f"{tag} point {pt['point_index']} (p={pt['p']:g})"
        c.check(est.n_trials == r.trials
                and est.n_failures + est.n_censored == est.n_trials
                and len(fc) == est.n_failures,
                f"{tag}: trial counts {est.n_trials}/{est.n_failures}/{est.n_censored}")
        c.check(all(1 <= x <= MAX_CYCLES for x in fc)
                and est.ci_low <= est.p_log <= est.ci_high,
                f"{tag}: p_log {est.p_log} outside its CI or cycles out of range")
        key = f"{pt['seed']}/{r.trials}/{pt['point_index']}"
        ref_digest = self.ref["digests"].get(key)
        match = None if ref_digest is None else failure_digest(fc) == ref_digest
        pt["rng_stream_match"] = match
        self.stream_matches.append(match)
        lo, hi = reference_interval(self.ref["pool"][str(pt["g"])], len(fc), self.z)
        c.check(match or lo <= est.p_log <= hi,
                f"{tag}: p_log {est.p_log:.4g} outside reference interval "
                f"[{lo:.4g}, {hi:.4g}] (digest match: {match})")

    def pooled(self, rounds: list):
        """All rounds' failure times at each grid point against the
        reference pool: a tighter test than any single point."""
        by_g = {}
        for rnd in rounds:
            for pt in rnd["points"]:
                by_g.setdefault(pt["g"], []).extend(pt["est"].failure_cycles)
        for g, fc in sorted(by_g.items()):
            lo, hi = reference_interval(self.ref["pool"][str(g)], len(fc), self.z)
            p_log = len(fc) / sum(fc)
            self.checks.check(lo <= p_log <= hi,
                              f"pooled p_log {p_log:.4g} at grid point {g} outside "
                              f"reference interval [{lo:.4g}, {hi:.4g}]")

    def sweep(self, rnd: dict, tag: str):
        from mfqec.cli import CSV_HEADER

        c, r = self.checks, self.runner
        lo, hi = r.spec["window"]
        c.check(rnd["rc"] == 0, f"{tag}: exit status {rnd['rc']}: {rnd['stderr_tail']}")
        rows = [line.split(",") for line in rnd["csv"].splitlines()]
        c.check(bool(rows) and rows[0] == CSV_HEADER, f"{tag}: CSV header {rows[:1]}")
        c.check(len(rows) == len(r.grid) + 2 and len(rnd["points"]) == len(r.grid),
                f"{tag}: {len(rows)} CSV lines for {len(r.grid)} grid points")
        for row, pt in zip(rows[1:], rnd["points"]):
            c.check(float(row[6]) == pt["est"].mean_cycles,
                    f"{tag}: CSV mean_cycles {row[6]} != {pt['est'].mean_cycles}")
        p_th = rnd["summary"].get("p_th")
        ci = rnd["summary"].get("ci", [math.nan, math.nan])
        rnd["p_th_in_window"] = p_th is not None and lo <= p_th <= hi
        # The run's own bootstrap CI gives the standard error of p_th; the
        # pooled reference threshold has a tenth of its variance.
        sigma = (ci[1] - ci[0]) / (2 * 1.96) * math.sqrt(1.1)
        ref_pth = self.pooled_threshold()
        c.check(p_th is not None and abs(p_th - ref_pth) <= self.z * sigma,
                f"{tag}: p_th {p_th} (CI {ci}) inconsistent with the reference "
                f"threshold {ref_pth:.5g}")
        if r.seed == ACCEPTANCE_SEED and r.trials == r.spec["trials"]:
            # Criterion 1's window holds for the acceptance seed; other seeds
            # land below it about one time in four (see README.md).
            c.check(rnd["p_th_in_window"], f"{tag}: p_th {p_th} outside [{lo}, {hi}]")
            recorded = self.ref["p_th"].get(f"{r.seed}/{r.trials}")
            if recorded is not None and all(pt["rng_stream_match"] for pt in rnd["points"]):
                c.check(p_th == recorded, f"{tag}: p_th {p_th} != recorded {recorded}")

    def pooled_threshold(self) -> float:
        """Identity crossing of the reference pool's p_log curve."""
        from mfqec.threshold import SweepPoint, find_threshold_crossing

        points = []
        for g, p in enumerate(self.runner.grid):
            pool = self.ref["pool"][str(g)]
            rate = 1.0 / pool["mean"]
            points.append(SweepPoint(p=p, p_log=rate, ci_low=rate, ci_high=rate,
                                     n_trials=pool["n"], n_censored=0,
                                     n_failures=pool["n"], mean_cycles=pool["mean"]))
        return find_threshold_crossing(points).p_th

    def same_outputs(self, a: dict, b: dict, what: str):
        fa = [pt["est"].failure_cycles for pt in a["points"]]
        fb = [pt["est"].failure_cycles for pt in b["points"]]
        self.checks.check(fa == fb, f"{what}: failure_cycles differ")
        if "csv" in a:
            self.checks.check(a["csv"] == b["csv"], f"{what}: CSV files differ")

    def rounds(self, rounds: list, tag: str):
        for i, rnd in enumerate(rounds):
            for pt in rnd["points"]:
                self.point(pt, f"{tag} round {i}")
            if "csv" in rnd:
                self.sweep(rnd, f"{tag} round {i}")


def round_totals(rounds: list) -> dict:
    trials = cycles = censored = 0
    for rnd in rounds:
        for pt in rnd["points"]:
            est = pt["est"]
            trials += est.n_trials
            censored += est.n_censored
            cycles += sum(est.failure_cycles) + est.n_censored * MAX_CYCLES
    return dict(trials=trials, cycles=cycles, censored=censored, rounds=len(rounds),
                wall=sum(r["wall"] for r in rounds),
                scaled=sum(r["scaled"] for r in rounds))


def run_untraced(runner: Runner, verifier: Verifier, seconds: float, setup: list):
    runner.mark_points = runner.spec["kind"] == "sweep"
    rounds = runner.timed_rounds(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verifier.rounds(rounds, "untraced")
    if runner.spec["kind"] == "estimate":
        verifier.pooled(rounds)
    else:
        for rnd in rounds[1:]:
            verifier.same_outputs(rounds[0], rnd, "repeated sweep")
    tot = round_totals(rounds)
    metrics = {
        "wall_s": tot["scaled"] / tot["rounds"],
        "trials_per_s": tot["trials"] / tot["scaled"],
        "cycles_per_s": tot["cycles"] / tot["scaled"],
        "setup_s": statistics.median(s["scaled_setup_s"] for s in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, rounds, tot, None


def run_traced(runner: Runner, verifier: Verifier, seconds: float, setup: list):
    from spans import Tracer

    spec = runner.spec
    if spec["kind"] == "estimate":
        base = runner.timed_rounds(0.4 * seconds)
    else:
        base = [runner.round(0)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.round(i) for i in range(len(base))]
    finally:
        tracer.uninstall()
    for a, b in zip(base, traced):
        verifier.same_outputs(a, b, "traced vs untraced")
    rounds = base + traced
    speedup = 1.0  # one process is its own single-process baseline
    workers = 1
    if spec["kind"] == "sweep":
        serial = runner.round(len(rounds), workers=1)
        verifier.same_outputs(base[0], serial, "workers=1 vs workers=2")
        rounds.append(serial)
        speedup = serial["scaled"] / base[0]["scaled"]
        workers = base[0]["workers"]
    else:
        verifier.pooled(base)
    verifier.rounds(rounds, "traced-run")
    tot = round_totals(base)
    metrics = tracer.metrics()
    metrics.update({
        "pool.speedup": speedup,
        "pool.efficiency": speedup / workers,
        "circuits.build_s": statistics.median(s["build_s"] for s in setup),
        "engine.compile_s": statistics.median(s["compile_s"] for s in setup),
        "trace.overhead_share": sum(r["scaled"] for r in traced) / tot["scaled"] - 1.0,
    })
    return metrics, rounds, tot, tracer


def environment(seed: int) -> dict:
    import mfqec

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mfqec": mfqec.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "argv": sys.argv,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED,
                    help="master seed of every trial (default: the acceptance seed)")
    ap.add_argument("--seconds", type=float, default=36.0, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int,
                    help="trials per point instead of the workload's own (for tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.trials is not None and args.trials < 1):
        ap.error("--seed must be >= 0 and --trials >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfqec" / "__init__.py").is_file():
        print(f"run.py: no mfqec source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    trials = args.trials or spec["trials"]
    # Calibrate on as many CPUs as the workload keeps busy.
    with Clock(spec.get("workers", 1)) as clock:
        setup = measure_setup(spec, clock)

        sys.path.insert(0, str(SRC))
        import mfqec

        if not Path(mfqec.__file__).resolve().is_relative_to(SRC):
            print(f"run.py: mfqec imported from {mfqec.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(args.workload, args.seed, trials, clock)
        verifier = Verifier(runner)
        runner.warmup()
        run = run_traced if args.trace else run_untraced
        metrics, rounds, tot, tracer = run(runner, verifier, args.seconds, setup)

    checks = verifier.checks
    error_share = len(checks.failures) / checks.attempted
    metrics["error_share"] = error_share
    metrics["censored_share"] = tot["censored"] / tot["trials"]
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    known = [m for m in verifier.stream_matches if m is not None]
    report = {
        "workload": args.workload, "trace": args.trace, "trials_per_point": trials,
        "rounds": [r["wall"] for r in rounds],
        "rounds_scaled": [r["scaled"] for r in rounds], "totals": tot,
        "calibration_s": clock.samples,
        "error_share": error_share, "censored_share": metrics["censored_share"],
        "rng_stream_match": (all(known) if known else None),
        "p_th": [r["summary"].get("p_th") for r in rounds if "summary" in r],
        "p_th_in_window": [r["p_th_in_window"] for r in rounds if "p_th_in_window" in r],
        "check_failures": checks.failures,
        "setup_s": [s["setup_s"] for s in setup],
        "setup_scaled_s": [s["scaled_setup_s"] for s in setup],
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": environment(args.seed), "report": report, "result": result,
              "setup": setup,
              "points": [{"round": i, "point_index": pt["point_index"], "p": pt["p"],
                          "p_log": pt["est"].p_log, "n_censored": pt["est"].n_censored,
                          "failure_digest": failure_digest(pt["est"].failure_cycles),
                          "rng_stream_match": pt["rng_stream_match"]}
                         for i, r in enumerate(rounds) for pt in r["points"]]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(
            json.dumps(tracer.span_records()), encoding="utf-8")
    report["result_file"] = str(stem.with_suffix(".json").relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
