"""Before/after benchmark pairs of this checkout against a base revision.

    python3 scripts/bench_pair.py --base HEAD~1 --label 6 --pairs 10

Exports the committed tree of ``--base`` into a temporary directory and
copies this checkout's ``perfbench/`` over its copy, so that both sides are
timed by the same benchmark code; ``perfbench/run.py`` imports the package
from the ``src/`` beside it, so each side runs its own program.  Each pair
runs every workload once per side, alternating which side goes first, at
the pair's seed.  The ``--seed`` values are used in turn, each for two
consecutive pairs, one with each side first, so that no seed is tied to
one order.  The change side is this
checkout as it stands, uncommitted edits included (``change.dirty``).
Before and after every run, a digest of the side's ``src/`` is taken
(``src_digest``) and kept with the run; the record's ``src_changed`` is
true, and a warning goes to stderr, when a side's runs did not all see one
``src/``, so that a record cannot hide an edit made while it ran.

Writes ``BENCH_<label>.json``: per workload and side, the median and
quartiles of the benchmark's end-to-end metrics (``BENCHMARK.json``,
scaled as ``run.py`` reports them), the pairs each side won per metric,
and every run's ``correct`` and ``rng_stream_match``; also the seeds, both
git revisions and the CPU count.  Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_base(rev: str, into: Path) -> None:
    """REV's committed tree in ``into``, with this checkout's perfbench/."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def src_digest(root: Path) -> str:
    """sha256 of every file under ``root``/src, its path and bytes, in path
    order; ``__pycache__`` (the built kernel and bytecode) is left out."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float, trials) -> dict:
    """One untraced benchmark run from ``root``: its result and stream match."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if trials is not None:
        argv += ["--trials", str(trials)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pair: {' '.join(argv[1:])} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    return {"correct": result["correct"],
            "rng_stream_match": json.loads(report_line)["report"]["rng_stream_match"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list, metrics: list) -> dict:
    """Per side: quartiles of each metric, pairs won, and run checks."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        other = {r["pair"]: r for r in runs if r["side"] != side}
        entry = {"correct": [r["correct"] for r in mine],
                 "rng_stream_match": [r["rng_stream_match"] for r in mine]}
        for m in metrics:
            name = m["name"]
            q1, median, q3 = np.percentile([r["metrics"][name] for r in mine], [25, 50, 75])
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (r["metrics"][name] - other[r["pair"]]["metrics"][name]) > 0
                       for r in mine)
            entry[name] = {"median": median, "q1": q1, "q3": q3, "wins": wins}
        out[side] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, action="append",
                    help="seed of two pairs, used in turn (repeatable; default: 42)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time of each run")
    ap.add_argument("--trials", type=int, help="trials per point, passed to run.py")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    seeds = args.seed or [42]
    if args.pairs < 1 or args.seconds <= 0 or min(seeds) < 0:
        ap.error("--pairs and --seconds must be positive, --seed >= 0")
    workloads = args.workload or names

    record = {
        "label": args.label,
        "base": {"ref": args.base, "rev": _git("rev-parse", "--verify",
                                               f"{args.base}^{{commit}}")},
        "change": {"rev": _git("rev-parse", "HEAD"),
                   "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pairs": args.pairs, "seeds": seeds, "seconds": args.seconds,
        "trials": args.trials,
        "workloads": {},
    }
    digests = {side: set() for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        roots = {"base": Path(tmp), "change": ROOT}
        export_base(record["base"]["rev"], roots["base"])
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                seed = seeds[pair // 2 % len(seeds)]
                for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                    before = src_digest(roots[side])
                    run = run_once(roots[side], workload, seed, args.seconds, args.trials)
                    run["src"] = [before, src_digest(roots[side])]
                    digests[side].update(run["src"])
                    runs.append({"pair": pair, "side": side, "order": order,
                                 "seed": seed, **run})
                    print(f"{workload} pair {pair} {side}: correct={run['correct']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                          file=sys.stderr, flush=True)
            record["workloads"][workload] = {
                **summarize(runs, spec["end_to_end"]), "runs": runs}
    for side in SIDES:
        record[side]["src_digests"] = sorted(digests[side])
    record["src_changed"] = any(len(d) > 1 for d in digests.values())
    if record["src_changed"]:
        print("bench_pair: src/ changed during the runs; see each run's src digests",
              file=sys.stderr)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
