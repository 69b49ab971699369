"""Tests of the command-line scripts under ``scripts/``."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np

import test_acceptance
from mfqec.cli import CSV_HEADER

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_thresholds_uses_acceptance_sweeps_and_writes_csvs(tmp_path, capsys):
    script = _load("run_thresholds")
    assert script.SWEEPS.keys() == test_acceptance.SWEEPS.keys()
    for key, (grid, trials) in test_acceptance.SWEEPS.items():
        assert np.array_equal(script.SWEEPS[key][0], grid)
        assert script.SWEEPS[key][1] == trials

    script.main(["--code", "bf", "--trials", "20", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    for variant in ("simplified", "perfect"):
        with open(tmp_path / f"bf_{variant}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        points = [r for r in rows[1:] if r[3]]  # the summary row has no trials
        assert len(points) == 8
        assert all(r[:2] == ["bf", variant] and r[3] == "20" for r in points)


def test_trace_rounds_counts_repeat():
    """Two traced runs of the same fixed rounds make the same calls.  Each
    runs in its own interpreter: the benchmark's wrappers stay installed
    for the life of the process."""
    argv = [sys.executable, os.path.join(SCRIPTS, "trace_rounds.py"),
            "--workload", "s17-simplified-stuck", "--rounds", "2", "--trials", "2"]
    counts = []
    for _ in range(2):
        out = subprocess.run(argv, capture_output=True, text=True, check=True,
                             timeout=300).stdout
        line = json.loads(out.strip().splitlines()[-1])
        assert line["rounds"] == 2 and line["trials_per_point"] == 2
        assert 0 < line["memo.fault_entries"] <= line["memo.fault_slots"]
        assert line["memo.orbit_entries"] > 0
        counts.append({k: v for k, v in line["metrics"].items() if k.endswith(".calls")}
                      | {k: v for k, v in line.items() if k.startswith("memo.")})
    assert counts[0] == counts[1]
    assert counts[0]["trial.calls"] == 4
    assert counts[0]["errors.clean_run.calls"] > 0
    assert counts[0]["engine.run_cycle.calls"] > 0


def test_audit_single_faults_counts(capsys):
    """Every single fault of every circuit: injections, logical flips and
    faults still not clean after 10 cycles, on one frame engine per
    circuit."""
    assert _load("audit_single_faults").main([]) == 0
    counts = [
        re.match(r"(\S+): (\d+) injections, (\d+) logical flips, (\d+) never clean",
                 line).groups()
        for line in capsys.readouterr().out.splitlines()
    ]
    assert counts == [
        ("bf-perfect", "1402", "0", "0"),
        ("bf-simplified", "598", "0", "16"),
        ("surface17-perfect", "8570", "0", "0"),
        ("surface17-simplified", "3562", "0", "96"),
    ]


def test_bench_pair_writes_the_pair_record(tmp_path):
    """Two short pairs of one workload against HEAD: the record names both
    revisions, its seeds and CPU count, and per side the quartiles and wins
    of every end-to-end metric and each run's checks.  The pairs share the
    first seed and alternate which side runs first."""
    argv = [sys.executable, os.path.join(SCRIPTS, "bench_pair.py"), "--base", "HEAD",
            "--label", "t", "--workload", "s17-simplified-stuck", "--pairs", "2",
            "--seed", "42", "--seed", "7", "--trials", "2", "--seconds", "0.5",
            "--out-dir", str(tmp_path)]
    subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert record["base"]["rev"] == record["change"]["rev"] == head
    assert record["seeds"] == [42, 7] and record["pairs"] == 2 and record["cpu_count"] >= 1
    assert list(record["workloads"]) == ["s17-simplified-stuck"]
    workload = record["workloads"]["s17-simplified-stuck"]
    metrics = ["wall_s", "trials_per_s", "cycles_per_s", "setup_s", "peak_rss_mb"]
    for side in ("base", "change"):
        entry = workload[side]
        assert entry["correct"] == [True, True]
        # the reference digests are recorded at the workload's own trial count
        assert all(m in (True, None) for m in entry["rng_stream_match"])
        for m in metrics:
            assert entry[m]["q1"] <= entry[m]["median"] <= entry[m]["q3"]
    for m in metrics:
        assert workload["base"][m]["wins"] + workload["change"][m]["wins"] <= 2
    runs = workload["runs"]
    assert [(r["pair"], r["side"], r["order"], r["seed"]) for r in runs] == [
        (0, "base", 0, 42), (0, "change", 1, 42), (1, "change", 0, 42), (1, "base", 1, 42)]
    assert all(set(r["metrics"]) == set(metrics) for r in runs)
