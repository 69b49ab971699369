"""Command-line interface tests: configuration merging and validation,
CSV schema and round-trip precision, exit statuses, worker determinism,
plot-data export, and circuit listings.

All invocations go through ``main(argv)`` in-process.
"""

import argparse
import concurrent.futures
import csv
import json
import math
import os
import threading
from dataclasses import fields

import pytest

import mfqec.cli as cli
import mfqec.montecarlo as montecarlo
import mfqec.threshold as threshold
from mfqec.cli import (
    CSV_HEADER,
    ConfigError,
    ExitStatus,
    RunConfig,
    _fmt,
    _read_results_csv,
    emit_plot_data,
    load_run_config,
    main,
)
from mfqec.codes import BIT_FLIP_CODE, UNENCODED
from kernelhooks import kernel_or_none


def _cfg(**overrides):
    base = dict(
        code="bf",
        variant="simplified",
        p_grid=(0.01, 0.02),
        trials=10,
        master_seed=1,
    )
    base.update(overrides)
    return RunConfig(**base)


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _run(tmp_path, *extra, grid=("0.005", "0.05"), trials="60", name="results.csv"):
    out = tmp_path / name
    argv = ["run", "--code", "bf", "--variant", "simplified", "--trials", trials,
            "--seed", "9", "--max-cycles", "100000", "--out", str(out)]
    for p in grid:
        argv += ["--p", p]
    argv += list(extra)
    rc = main(argv)
    return rc, out


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(code="steane"), "code"),
        (dict(variant="noisy"), "variant"),
        (dict(code="unencoded", variant="perfect"), "variant"),
        (dict(p_grid=()), "p_grid"),
        (dict(p_grid=(0.0, 0.1)), "p_grid"),
        (dict(p_grid=(0.1, 1.5)), "p_grid"),
        (dict(p_grid=(0.2, 0.1)), "p_grid"),
        (dict(p_grid=(0.1, 0.1)), "p_grid"),
        (dict(trials=0), "trials"),
        (dict(trials=2.5), "trials"),
        (dict(max_cycles=0), "max_cycles"),
        (dict(workers=-1), "workers"),
        (dict(master_seed=-1), "master_seed"),
        (dict(master_seed="42"), "master_seed"),
        (dict(engine="statevector"), "engine"),
        (dict(output_path=""), "output_path"),
        (dict(trials=True), "trials"),
        (dict(master_seed=False), "master_seed"),
        (dict(code="bf", variant="none"), "variant"),
        (dict(code="surface17", variant="none"), "variant"),
        (dict(code=["bf"]), "code"),
        (dict(engine=["frame"]), "engine"),
        (dict(output_path=["x.csv"]), "output_path"),
        (dict(output_path=True), "output_path"),  # open() reads 1 as stdout's fd
        (dict(output_path=5), "output_path"),
    ],
)
def test_run_config_names_offending_field(overrides, field):
    with pytest.raises(ConfigError, match=f"^{field}:"):
        _cfg(**overrides)


def test_run_config_of_the_wrong_type_exits_before_any_trial(tmp_path, capsys,
                                                          monkeypatch):
    out = tmp_path / "results.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "code": ["bf"], "variant": "simplified", "p_grid": [0.01, 0.02],
        "trials": 5, "master_seed": 1, "output_path": str(out),
    }))
    monkeypatch.setattr(threshold, "sweep_point", None)  # a trial would raise
    rc = main(["run", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    assert "config error: code:" in captured.err
    assert not out.exists()


def test_run_config_defaults_and_specs():
    cfg = _cfg()
    assert cfg.max_cycles == 10_000_000
    assert cfg.workers == 1
    assert cfg.output_path == "results.csv"
    assert cfg.engine == "frame"
    assert cfg.code_spec is BIT_FLIP_CODE
    assert cfg.variant_enum.value == "simplified"
    baseline = _cfg(code="unencoded", variant="none")
    assert baseline.code_spec is UNENCODED


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_fmt_round_trip_precision():
    assert _fmt(None) == ""
    assert _fmt(float("nan")) == ""
    assert _fmt(0.1) == "0.1"
    third = 1.0 / 3.0
    assert float(_fmt(third)) == third  # full round trip
    assert len(_fmt(third).replace("0.", "")) >= 12  # >= 12 sig digits
    assert _fmt(42) == "42"
    assert _fmt("bf") == "bf"


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_config_merges_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "code": "bf", "variant": "simplified",
        "p_grid": [0.01, 0.02], "trials": 10, "master_seed": 1,
    }))
    cfg = load_run_config(str(path), {"trials": 99, "engine": None})
    assert cfg.trials == 99        # override wins
    assert cfg.master_seed == 1    # file value survives
    assert cfg.p_grid == (0.01, 0.02)
    assert all(isinstance(p, float) for p in cfg.p_grid)


def _run_parser():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]


def test_every_run_config_field_is_a_run_flag_dest():
    dests = {action.dest for action in _run_parser()._actions}
    assert {f.name for f in fields(RunConfig)} <= dests


@pytest.mark.parametrize("p_flag,seed_flag,out_flag", [
    ("--p", "--seed", "--out"),
    ("--p-grid", "--master-seed", "--output-path"),
], ids=["short", "long"])
def test_run_flags_spell_their_run_config(p_flag, seed_flag, out_flag, tmp_path,
                                          monkeypatch):
    """An argv that gives every ``run`` flag loads the ``RunConfig`` it
    spells, field for field, under either spelling of a flag."""
    expected = RunConfig(code="surface17", variant="perfect", p_grid=(0.001, 0.002),
                         trials=7, master_seed=13, max_cycles=500, workers=2,
                         output_path=str(tmp_path / "s17.csv"), engine="tableau")
    assert all(getattr(expected, f.name) != f.default for f in fields(RunConfig))
    loaded = []

    def load_and_stop(config_path, overrides):
        loaded.append(load_run_config(config_path, overrides))
        raise ConfigError("stop before the sweep")

    monkeypatch.setattr(cli, "load_run_config", load_and_stop)
    main(["run", "--code", "surface17", "--variant", "perfect",
          p_flag, "0.001", p_flag, "0.002", "--trials", "7", seed_flag, "13",
          "--max-cycles", "500", "--workers", "2", out_flag, expected.output_path,
          "--engine", "tableau"])
    assert loaded == [expected]


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"code": "bf", "colour": "blue"}))
    with pytest.raises(ConfigError, match="colour: unknown configuration field"):
        load_run_config(str(path), {})


def test_load_config_missing_field():
    with pytest.raises(ConfigError, match="p_grid: required field missing"):
        load_run_config(None, {"code": "bf", "variant": "simplified",
                               "trials": 5, "master_seed": 0})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(str(path), {})
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError, match="top level"):
        load_run_config(str(path), {})
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(str(tmp_path / "absent.json"), {})


def test_load_config_bad_grid_type():
    with pytest.raises(ConfigError, match="p_grid: must be a list of numbers"):
        load_run_config(None, {"code": "bf", "variant": "simplified",
                               "p_grid": ["a"], "trials": 5, "master_seed": 0})


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def test_run_with_crossing(tmp_path, capsys, monkeypatch):
    points = []
    real = cli.iter_sweep
    monkeypatch.setattr(cli, "iter_sweep", lambda *args, **kwargs: (
        points.append(pt) or pt for pt in real(*args, **kwargs)))
    rc, out = _run(tmp_path)
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.OK)

    summary = json.loads(captured.out.strip())  # stdout is one JSON line
    assert summary["csv"] == str(out)
    assert summary["points"] == 2
    assert summary["partial"] is False
    assert summary["bracket"][0] <= summary["p_th"] <= summary["bracket"][1]
    assert "point 1/2" in captured.err  # progress stays on stderr

    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 3  # two grid points + threshold summary
    assert [pt.p for pt in points] == [0.005, 0.05]
    for row, p, pt in zip(rows, (0.005, 0.05), points):
        assert row["code"] == "bf" and row["variant"] == "simplified"
        assert float(row["p"]) == p
        assert row["mean_cycles"] == repr(float(pt.mean_cycles))
        assert row["trials"] == "60"
        assert int(row["failures"]) + int(row["censored"]) == 60
        assert float(row["ci_low"]) <= float(row["p_log"]) <= float(row["ci_high"])
        assert row["seed"] == "9"
    summary_row = rows[2]
    assert summary_row["trials"] == ""  # marks the summary row
    assert summary_row["failures"] == summary_row["censored"] == ""
    assert summary_row["mean_cycles"] == ""
    assert float(summary_row["p"]) == summary["p_th"]
    assert float(summary_row["p_log"]) == summary["p_th"]
    assert [float(summary_row["ci_low"]), float(summary_row["ci_high"])] == summary["ci"]


def test_run_reruns_are_byte_identical(tmp_path, capsys):
    _, first = _run(tmp_path, name="a.csv")
    _, second = _run(tmp_path, name="b.csv")
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_run_worker_count_is_invisible_in_output(tmp_path, capsys, monkeypatch):
    _, serial = _run(tmp_path, "--workers", "1", name="w1.csv")
    _, parallel = _run(tmp_path, "--workers", "2", name="w2.csv")
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "2")
    _, via_env = _run(tmp_path, name="env.csv")
    # a flag beats a (here unusable) environment value
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "lots")
    _, flag_wins = _run(tmp_path, "--workers", "1", name="flag.csv")
    capsys.readouterr()
    blob = serial.read_bytes()
    assert parallel.read_bytes() == blob
    assert via_env.read_bytes() == blob
    assert flag_wins.read_bytes() == blob


def test_run_config_file_workers_beat_the_environment(tmp_path, capsys, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workers": 1}))
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "lots")
    rc, _ = _run(tmp_path, "--config", str(config))
    capsys.readouterr()
    assert rc == int(ExitStatus.OK)
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "2")
    flags = dict(code="bf", variant="simplified", p_grid=[0.01], trials=5,
                 master_seed=1)
    assert load_run_config(str(config), flags).workers == 1
    assert load_run_config(None, flags).workers == 2


def test_run_bad_workers_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "lots")
    rc, _ = _run(tmp_path)
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    assert cli.WORKERS_ENV_VAR in captured.err


def test_run_no_crossing_still_writes_data(tmp_path, capsys):
    # both grid points sit above threshold, so p_log > p everywhere
    rc, out = _run(tmp_path, grid=("0.02", "0.05"), trials="25")
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.NO_CROSSING)
    summary = json.loads(captured.out.strip())
    assert summary["error"].startswith("no crossing")
    assert "p_th" not in summary
    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 2  # no summary row
    assert all(row["trials"] == "25" for row in rows)


def test_run_config_error_exit(tmp_path, capsys):
    rc = main(["run", "--code", "bf", "--variant", "simplified",
               "--trials", "5", "--seed", "1",
               "--out", str(tmp_path / "x.csv")])  # no p grid
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    assert "config error" in captured.err
    assert "p_grid" in captured.err


def test_usage_errors_exit_with_config_status(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--code", "bogus"])
    assert excinfo.value.code == int(ExitStatus.CONFIG_ERROR)
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == int(ExitStatus.CONFIG_ERROR)
    capsys.readouterr()


def test_interrupt_writes_partial_csv(tmp_path, capsys, monkeypatch):
    real = threshold.sweep_point
    calls = []

    def interrupt_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(threshold, "sweep_point", interrupt_second)
    rc, out = _run(tmp_path)
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    summary = json.loads(captured.out.strip())
    assert summary["partial"] is True
    assert summary["points"] == 1
    assert summary["error"] == "interrupted"
    first_line = out.read_text().splitlines()[0]
    assert first_line == "# partial=true"
    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 1
    # the partial file still round-trips through the plot exporter
    written = emit_plot_data(str(out), str(tmp_path))
    assert len(written) == 2


_TRIAL_BLOCK = montecarlo._run_trial_block


def _crash_on_second_point(args):
    """Pool entry point that kills its worker process on grid point 1."""
    if args[6] == 1:  # point_index
        os._exit(1)
    return _TRIAL_BLOCK(args)


def test_worker_crash_writes_partial_csv(tmp_path, capsys, monkeypatch):
    """A pool worker that dies mid-sweep ends the run with exit status 1,
    the finished points in a partial CSV and the reason in the summary,
    not with a traceback.  Kernel trials run on threads, so the trials are
    sent to the Python loop, which runs in worker processes.  Workers are
    forked, so they see the patches."""
    monkeypatch.setattr(montecarlo, "_kernel_trials", lambda *a: None)
    monkeypatch.setattr(montecarlo, "_run_trial_block", _crash_on_second_point)
    rc, out = _run(tmp_path, "--workers", "2")
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    summary = json.loads(captured.out.strip())
    assert summary["partial"] is True
    assert summary["points"] == 1
    assert summary["error"].startswith("a worker process crashed")
    assert "Traceback" not in captured.err
    assert out.read_text().splitlines()[0] == "# partial=true"
    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert [float(row["p"]) for row in rows] == [0.005]


def test_interrupt_on_worker_threads_writes_partial_csv(tmp_path, capsys, monkeypatch):
    """Ctrl-C while a kernel estimate's worker threads run (raised in the
    calling thread, by the progress callback of grid point 1) ends the run
    with exit status 1 and the finished point in a partial CSV, and leaves
    no worker thread behind."""
    if kernel_or_none() is None:
        pytest.skip("no C compiler on PATH")
    real = threshold.estimate_logical_error_rate

    def interrupt_point_1(*args, point_index=0, progress=None, **kwargs):
        def report(done, total):
            if point_index == 1:
                raise KeyboardInterrupt
            progress(done, total)
        return real(*args, point_index=point_index, progress=report, **kwargs)

    def no_processes(*args, **kwargs):
        raise AssertionError("kernel trials started a process pool")

    monkeypatch.setattr(threshold, "estimate_logical_error_rate", interrupt_point_1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_processes)
    baseline = threading.active_count()
    rc, out = _run(tmp_path, "--workers", "2")
    captured = capsys.readouterr()
    assert threading.active_count() == baseline
    assert rc == int(ExitStatus.CONFIG_ERROR)
    summary = json.loads(captured.out.strip())
    assert summary["partial"] is True
    assert summary["points"] == 1
    assert summary["error"] == "interrupted"
    assert out.read_text().splitlines()[0] == "# partial=true"
    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert [float(row["p"]) for row in rows] == [0.005]


def _fail_on_point_2(args):
    """Pool entry point that raises in its worker process on grid point 2."""
    if args[6] == 2:  # point_index
        raise RuntimeError("trials failed on point 2")
    return _TRIAL_BLOCK(args)


@pytest.mark.parametrize("where", ["threads", "processes"])
def test_trial_exception_writes_partial_csv(where, tmp_path, capsys, monkeypatch):
    """An exception raised by the trials of grid point 2, in a kernel slice
    on a worker thread or in a Python-loop slice in a worker process, ends
    the run as a crashed worker does: exit status 1, the two finished
    points in a partial CSV, the exception named in the summary (its
    traceback goes to stderr), and no worker thread left behind."""
    if where == "threads":
        if kernel_or_none() is None:
            pytest.skip("no C compiler on PATH")
        real = montecarlo._kernel_trials

        def failing_kernel_trials(eng, p, max_cycles):
            block = real(eng, p, max_cycles)

            def failing(master_seed, point_index, indices):
                if point_index == 2:
                    raise RuntimeError("trials failed on point 2")
                return block(master_seed, point_index, indices)

            return failing

        monkeypatch.setattr(montecarlo, "_kernel_trials", failing_kernel_trials)
    else:
        monkeypatch.setattr(montecarlo, "_kernel_trials", lambda *a: None)
        monkeypatch.setattr(montecarlo, "_run_trial_block", _fail_on_point_2)
    baseline = threading.active_count()
    rc, out = _run(tmp_path, "--workers", "2", grid=("0.005", "0.01", "0.05"))
    captured = capsys.readouterr()
    assert threading.active_count() == baseline
    assert rc == int(ExitStatus.CONFIG_ERROR)
    summary = json.loads(captured.out.strip())
    assert summary["partial"] is True
    assert summary["points"] == 2
    assert summary["error"] == "RuntimeError: trials failed on point 2"
    assert captured.err.rstrip().endswith("mfqec run: RuntimeError: trials failed on point 2")
    assert "Traceback" in captured.err
    assert out.read_text().splitlines()[0] == "# partial=true"
    header, rows = _read_rows(out)
    assert header == CSV_HEADER
    assert [float(row["p"]) for row in rows] == [0.005, 0.01]


# ---------------------------------------------------------------------------
# plot subcommand
# ---------------------------------------------------------------------------


def test_plot_round_trip(tmp_path, capsys):
    rc, out = _run(tmp_path)
    capsys.readouterr()
    rc = main(["plot", str(out), "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.OK)
    paths = captured.out.strip().splitlines()
    assert [p.split("/")[-1] for p in paths] == [
        "results_bf_simplified.dat",
        "results_identity.dat",
    ]

    _, rows = _read_rows(out)
    curve = (tmp_path / "results_bf_simplified.dat").read_text().splitlines()
    assert curve[0] == "# p p_log"
    assert len(curve) == 3
    for line, row in zip(curve[1:], rows[:2]):
        p, p_log = map(float, line.split())
        assert p == pytest.approx(float(row["p"]), rel=1e-12)
        assert p_log == pytest.approx(float(row["p_log"]), rel=1e-12)

    identity = (tmp_path / "results_identity.dat").read_text().splitlines()
    assert identity[1].split() == identity[1].split()[:1] * 2  # y == x
    lo = list(map(float, identity[1].split()))
    hi = list(map(float, identity[2].split()))
    assert lo == [0.005, 0.005]
    assert hi == [0.05, 0.05]


def test_plot_skips_summary_and_censored_rows(tmp_path):
    path = tmp_path / "mixed.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerow(["bf", "simplified", "0.001", "5", "0", "5",
                         "", "", "", "", "1"])  # all censored
        writer.writerow(["bf", "simplified", "0.01", "5", "5", "0",
                         "100.0", "0.01", "0.009", "0.011", "1"])
        writer.writerow(["bf", "simplified", "0.012", "", "", "",
                         "", "0.012", "0.011", "0.013", "1"])  # summary
    written = emit_plot_data(str(path), str(tmp_path))
    curve = (tmp_path / "mixed_bf_simplified.dat").read_text().splitlines()
    assert curve[1:] == ["0.01 0.01"]
    identity = (tmp_path / "mixed_identity.dat").read_text().splitlines()
    # identity spans all sweep points, censored ones included
    assert identity[1].split()[0] == "0.001"
    assert identity[2].split()[0] == "0.01"
    assert len(written) == 2


def test_plot_schema_mismatch_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    header = [c for c in CSV_HEADER if c != "seed"] + ["extra"]
    path.write_text(",".join(header) + "\n")
    with pytest.raises(ConfigError) as excinfo:
        _read_results_csv(str(path))
    assert "missing columns: seed" in str(excinfo.value)
    assert "unexpected columns: extra" in str(excinfo.value)

    path.write_text(",".join(reversed(CSV_HEADER)) + "\n")
    with pytest.raises(ConfigError, match="columns out of order"):
        _read_results_csv(str(path))

    rc = main(["plot", str(path)])
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    assert "config error" in captured.err


def test_plot_missing_file(tmp_path, capsys):
    rc = main(["plot", str(tmp_path / "absent.csv")])
    captured = capsys.readouterr()
    assert rc == int(ExitStatus.CONFIG_ERROR)
    assert "absent.csv" in captured.err


def test_plot_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert emit_plot_data(str(path), str(tmp_path)) == []


# ---------------------------------------------------------------------------
# list-circuits subcommand
# ---------------------------------------------------------------------------


def test_list_circuits_single(capsys):
    rc = main(["list-circuits", "--code", "bf", "--variant", "simplified"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == "# bf-simplified cycle a"
    assert lines[1] == "step 1: IDLE q0"
    assert "# bf-simplified cycle b" in lines
    # every non-header, non-blank line is a listing line
    assert all(
        line.startswith(("step ", "#")) or line == ""
        for line in lines
    )


def test_list_circuits_default_covers_everything(capsys):
    rc = main(["list-circuits"])
    captured = capsys.readouterr()
    assert rc == 0
    headers = [l for l in captured.out.splitlines() if l.startswith("#")]
    assert headers == [
        "# bf-perfect cycle a",
        "# bf-perfect cycle b",
        "# bf-simplified cycle a",
        "# bf-simplified cycle b",
        "# surface17-perfect cycle a",
        "# surface17-perfect cycle b",
        "# surface17-simplified cycle a",
        "# surface17-simplified cycle b",
        "# unencoded-none cycle a",
        "# unencoded-none cycle b",
    ]


def test_list_circuits_unencoded(capsys):
    rc = main(["list-circuits", "--code", "unencoded"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "# unencoded-none cycle a"
    assert len([l for l in captured.out.splitlines() if l.startswith("#")]) == 2

    # the code/variant rule of `run` holds here too
    rc = main(["list-circuits", "--code", "unencoded", "--variant", "perfect"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "variant: code 'unencoded' takes only 'none'" in captured.err

    # 'none' is the unencoded qubit's variant only
    rc = main(["list-circuits", "--code", "bf", "--variant", "none"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "variant: code 'bf' takes only 'perfect' or 'simplified'" in captured.err
