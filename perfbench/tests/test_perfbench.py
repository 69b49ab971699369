"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests

Each workload runs untraced and traced; the metric names and units must
be those of BENCHMARK.json, every output check must pass, and the traced
run must reproduce the untraced run's failure times point for point.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_TRIALS = {"s17-perfect-deep": 4, "s17-simplified-stuck": 8, "bf-sweep": 60}
SEED = 7

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import calibrate  # noqa: E402
import run  # noqa: E402


def bench(workload, trace, *, trials=None, cwd=ROOT, seed=SEED):
    args = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    if trials is not None:
        args += ["--trials", str(trials)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def outputs():
    """(report, result) for every workload and trace mode, run once."""
    out = {}
    for workload, trials in TINY_TRIALS.items():
        for trace in (0, 1):
            proc = bench(workload, trace, trials=trials)
            assert proc.returncode == 0, proc.stderr[-3000:]
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_TRIALS))
def test_metrics_and_checks(outputs, workload, trace):
    report, result = outputs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["check_failures"]
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
        # a timing difference, so noise can make it negative at tiny sizes
        if name != "trace.overhead_share":
            assert metric["value"] >= 0, name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY_TRIALS))
def test_traced_run_reproduces_failure_cycles(outputs, workload):
    digests = {}
    for trace in (0, 1):
        report, _ = outputs[workload, trace]
        record = json.loads((ROOT / report["result_file"]).read_text(encoding="utf-8"))
        for pt in record["points"]:
            digests.setdefault(pt["point_index"], set()).add(pt["failure_digest"])
    assert digests and all(len(d) == 1 for d in digests.values()), digests


def test_traced_layers_are_populated(outputs):
    m = {k: v["value"] for k, v in outputs["s17-simplified-stuck", 1][1]["metrics"].items()}
    assert m["engine.run_cycle.calls"] == m["engine.noisy_cycles"] + m["engine.zero_event_cycles"]
    assert m["trial.calls"] > 0
    assert 0 < m["engine.distinct_key_share"] <= 1
    assert m["pool.pools_started"] == 0
    b = {k: v["value"] for k, v in outputs["bf-sweep", 1][1]["metrics"].items()}
    assert b["pool.pools_started"] == 8  # one pool per grid point
    assert b["threshold.sweep_point.calls"] == 8
    assert b["trial.calls"] == 8 * TINY_TRIALS["bf-sweep"]
    assert b["errors.clean_run.calls"] > 0 and b["cli.self_s"] > 0


def test_reference_digest_matches_at_acceptance_seed():
    proc = bench("s17-simplified-stuck", 0, seed=run.ACCEPTANCE_SEED)
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    assert report["rng_stream_match"] is True
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def _point(p_log, failure_cycles):
    est = SimpleNamespace(p_log=p_log, ci_low=p_log * 0.9, ci_high=p_log * 1.1,
                          n_trials=len(failure_cycles), n_failures=len(failure_cycles),
                          n_censored=0, failure_cycles=tuple(failure_cycles))
    return dict(p=4.2e-5, g=0, point_index=99, seed=SEED, est=est)


def _verifier(trials):
    fake = SimpleNamespace(name="s17-perfect-deep", trials=trials, seed=SEED,
                           spec=run.WORKLOADS["s17-perfect-deep"], grid=[4.2e-5])
    return run.Verifier(fake)


def test_point_check_rejects_a_biased_rate():
    v = _verifier(60)
    mean = v.ref["pool"]["0"]["mean"]
    v.point(_point(1 / mean, [int(mean)] * 60), "consistent")
    assert not v.checks.failures
    v.point(_point(4 / mean, [int(mean / 4)] * 60), "biased")
    assert len(v.checks.failures) == 1 and "reference interval" in v.checks.failures[0]


def test_point_check_rejects_wrong_counts():
    v = _verifier(61)
    mean = v.ref["pool"]["0"]["mean"]
    v.point(_point(1 / mean, [int(mean)] * 60), "short")
    assert any("trial counts" in f for f in v.checks.failures)


def test_clock_scales_by_the_kernel_around_the_unit():
    clock = calibrate.Clock()
    before = clock.samples[-1]
    out, wall, scaled = clock.time(lambda: sum(range(100_000)))
    after = clock.samples[-1]
    assert out == sum(range(100_000)) and wall > 0
    assert scaled == pytest.approx(wall * calibrate.REFERENCE_S / ((before + after) / 2))


def test_clock_scales_each_marked_segment_by_its_own_kernel_samples():
    clock = calibrate.Clock()
    n = len(clock.samples)

    def unit():
        sum(range(100_000))
        clock.mark()
        return sum(range(100_000))

    _, wall, scaled = clock.time(unit)
    kernels = [(a + b) / 2 for a, b in zip(clock.samples[n - 1:], clock.samples[n:])]
    assert len(kernels) == 2
    ref = calibrate.REFERENCE_S
    assert wall * ref / max(kernels) <= scaled * (1 + 1e-12)
    assert scaled <= wall * ref / min(kernels) * (1 + 1e-12)
    clock.mark()  # outside ``time``: no sample
    assert len(clock.samples) == n + 2


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("bf-sweep", 0, cwd=tmp_path, trials=5)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
