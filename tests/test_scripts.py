"""Tests of the command-line scripts under ``scripts/``."""

import csv
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import test_acceptance
from kernelhooks import kernel_or_none
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
    for the life of the process.  The kernel's tables hold every single
    fault and every orbit cycle of the circuit, however few the rounds
    met."""
    argv = [sys.executable, os.path.join(SCRIPTS, "trace_rounds.py"),
            "--workload", "s17-simplified-stuck", "--rounds", "2", "--trials", "2"]
    counts = []
    for _ in range(2):
        out = subprocess.run(argv, capture_output=True, text=True, check=True,
                             timeout=300).stdout
        line = json.loads(out.strip().splitlines()[-1])
        assert line["rounds"] == 2 and line["trials_per_point"] == 2
        if kernel_or_none() is not None:
            assert line["tables.fresh_rows"] == 3562
            assert line["tables.orbit_entries"] == 3230
        counts.append({k: v for k, v in line["metrics"].items() if k.endswith(".calls")}
                      | {k: v for k, v in line.items() if k.startswith("tables.")})
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


def _git_copy_of_the_tree(into):
    """This source tree committed as the one commit of a new git repository
    at ``into``, so that scripts that read git history run the same in a
    checkout and in an exported tree with no ``.git``."""
    shutil.copytree(os.path.join(SCRIPTS, os.pardir), into, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "out"))
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.invalid",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, cwd=into, check=True, capture_output=True)


def test_kernel_ab_times_head_against_itself(tmp_path):
    """Two rounds of HEAD's kernel against the same source: equal outputs,
    and per workload and per resample shape a ratio of times with its
    quartiles."""
    if kernel_or_none() is None:
        pytest.skip("no C compiler on PATH")
    repo = tmp_path / "repo"
    _git_copy_of_the_tree(repo)
    argv = [sys.executable, str(repo / "scripts" / "kernel_ab.py"), "--base", "HEAD",
            "--rounds", "2"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True,
                         timeout=600).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["rounds"] == 2 and report["base"] == "HEAD"
    assert list(report["workloads"]) == ["s17-perfect-deep", "s17-simplified-stuck",
                                         "bf-sweep"]
    assert list(report["resamples"]) == ["1x1100", "8x1100"]
    for entry in [*report["workloads"].values(), *report["resamples"].values()]:
        assert 0 < entry["ratio_q1"] <= entry["ratio_median"] <= entry["ratio_q3"]
        assert entry["base_ms_median"] > 0 and entry["change_ms_median"] > 0


def test_kernel_ab_compares_the_shared_definitions():
    """A kernel whose rate_t, mfqec_resample_sums or mfqec_fill_tables
    parameters differ, even by a name, is refused; comments and spacing are
    not a difference."""
    script = _load("kernel_ab")
    source = open(os.path.join(SCRIPTS, os.pardir, "src", "mfqec", "_kernel.c")).read()
    defs = script.shared_definitions(source)
    assert all(defs.values()) and set(defs) == {"cycle_t", "circuit_t", "rate_t",
                                                "mfqec_skip_block", "mfqec_resample_sums",
                                                "mfqec_fill_tables"}
    respaced = source.replace("double log_clean;", "double  log_clean; /* x */")
    assert script.shared_definitions(respaced) == defs
    renamed = script.shared_definitions(source.replace("log_clean;", "log_dirty;"))
    assert [k for k in defs if renamed[k] != defs[k]] == ["rate_t"]
    renamed = script.shared_definitions(source.replace("int64_t n_resamples, int64_t *out",
                                                       "int64_t n_draws, int64_t *out"))
    assert [k for k in defs if renamed[k] != defs[k]] == ["mfqec_resample_sums"]
    renamed = script.shared_definitions(source.replace("circuit_t *c, grow_idle_fn grow",
                                                       "circuit_t *c, grow_idle_fn more"))
    assert [k for k in defs if renamed[k] != defs[k]] == ["mfqec_fill_tables"]


def test_bench_pair_writes_the_pair_record(tmp_path):
    """Two short pairs of one workload against HEAD: the record names both
    revisions, its seeds and CPU count, and per side the quartiles and wins
    of every end-to-end metric and each run's checks.  The pairs share the
    first seed and alternate which side runs first."""
    repo = tmp_path / "repo"
    _git_copy_of_the_tree(repo)
    argv = [sys.executable, str(repo / "scripts" / "bench_pair.py"), "--base", "HEAD",
            "--label", "t", "--workload", "s17-simplified-stuck", "--pairs", "2",
            "--seed", "42", "--seed", "7", "--trials", "2", "--seconds", "0.5",
            "--out-dir", str(tmp_path)]
    subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
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


@pytest.mark.parametrize("edit", [False, True], ids=["unchanged", "edited"])
def test_bench_pair_flags_src_edited_while_it_runs(edit, tmp_path, monkeypatch, capsys):
    """Each run keeps the digests of its side's src/ from before and after
    it.  A file of src/ edited during the first change-side run shows as a
    change of digest within that run and across the side's runs, and
    flags the record; unedited, both sides see one and the same src/."""
    repo = tmp_path / "repo"
    _git_copy_of_the_tree(repo)
    script = _load("bench_pair")
    monkeypatch.setattr(script, "ROOT", repo)
    metrics = ["wall_s", "trials_per_s", "cycles_per_s", "setup_s", "peak_rss_mb"]
    seen = []

    def fake_run_once(root, workload, seed, seconds, trials):
        seen.append(root)
        if edit and root == repo and seen.count(repo) == 1:
            with open(repo / "src" / "mfqec" / "__init__.py", "a") as fh:
                fh.write("# edited\n")
        return {"correct": True, "rng_stream_match": None,
                "metrics": dict.fromkeys(metrics, 1.0)}

    monkeypatch.setattr(script, "run_once", fake_run_once)
    assert script.main(["--base", "HEAD", "--label", "t", "--workload", "bf-sweep",
                        "--pairs", "2", "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = record["workloads"]["bf-sweep"]["runs"]
    assert [r["side"] for r in runs] == ["base", "change", "change", "base"]
    base, change = record["base"]["src_digests"], record["change"]["src_digests"]
    assert len(base) == 1 and all(r["src"] == base * 2 for r in runs if r["side"] == "base")
    assert record["src_changed"] is edit
    warned = "src/ changed during the runs" in capsys.readouterr().err
    assert warned is edit
    if edit:
        assert len(change) == 2 and runs[1]["src"] == [base[0], runs[2]["src"][0]]
        assert runs[2]["src"][0] == runs[2]["src"][1] != base[0]
    else:
        assert change == base and all(r["src"] == base * 2 for r in runs)
