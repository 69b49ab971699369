"""Command-line front door: configured sweeps to CSV, plot-data export,
and circuit listings.

Subcommands
-----------
``run``
    Execute a threshold sweep described by a JSON config file and/or
    command-line flags (flags override the file, field by field).  Writes
    one CSV row per grid point plus, when the curve crosses the identity
    line, a final summary row carrying the threshold estimate.  Exit
    status: 0 on success, 1 on configuration errors, 2 when the sweep
    completed but the curve never crossed the identity line (the point
    data is still written).  A run that is interrupted, or whose pool
    worker crashes, writes the points finished so far, flagged with a
    ``# partial=true`` header comment, and exits 1.

``plot``
    Convert a results CSV into per-curve two-column data files (p,
    p_log) plus an identity-line reference file spanning the input p
    range — everything needed to redraw the log-log rate plot.

``list-circuits``
    Print the step-by-step instruction listing of the built correction
    circuits for audit.

Progress goes to stderr; stdout carries only machine-readable output
(a one-line JSON summary for ``run``, file contents/paths otherwise).
"""

from __future__ import annotations

import argparse
import csv
import enum
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .circuits import Variant, build_circuit, circuit_listing
from .codes import CODES, UNENCODED
from .threshold import (
    NoCrossing,
    SweepPoint,
    find_threshold_crossing,
    iter_sweep,
)

CSV_HEADER = [
    "code",
    "variant",
    "p",
    "trials",
    "failures",
    "censored",
    "mean_cycles",
    "p_log",
    "ci_low",
    "ci_high",
    "seed",
]

WORKERS_ENV_VAR = "MFQEC_WORKERS"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class ExitStatus(enum.IntEnum):
    OK = 0
    CONFIG_ERROR = 1
    NO_CROSSING = 2


@dataclass(frozen=True)
class RunConfig:
    code: str
    variant: str
    p_grid: tuple
    trials: int
    master_seed: int
    max_cycles: int = 10_000_000
    workers: int = 1
    output_path: str = "results.csv"
    engine: str = "frame"

    def __post_init__(self):
        if self.code not in CODES and self.code != "unencoded":
            raise ConfigError(
                f"code: must be one of {sorted(CODES)}, got {self.code!r}"
            )
        if self.variant not in ("perfect", "simplified", "none"):
            raise ConfigError(
                "variant: must be 'perfect', 'simplified' or 'none', "
                f"got {self.variant!r}"
            )
        if self.code == "unencoded" and self.variant != "none":
            raise ConfigError(
                "variant: the unencoded baseline only supports 'none', "
                f"got {self.variant!r}"
            )
        if not self.p_grid:
            raise ConfigError("p_grid: at least one physical error rate required")
        for p in self.p_grid:
            if not isinstance(p, (int, float)) or not (0.0 < p < 1.0):
                raise ConfigError(f"p_grid: values must be in (0, 1), got {p!r}")
        if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
            raise ConfigError(
                f"p_grid: must be strictly increasing, got {list(self.p_grid)}"
            )
        for name in ("trials", "max_cycles", "workers"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ConfigError(f"{name}: must be a positive integer, got {v!r}")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError(
                f"master_seed: must be a non-negative integer, got "
                f"{self.master_seed!r}"
            )
        if self.engine not in ("tableau", "frame"):
            raise ConfigError(
                f"engine: must be 'tableau' or 'frame', got {self.engine!r}"
            )
        if not self.output_path:
            raise ConfigError("output_path: must be a non-empty path")

    @property
    def code_spec(self):
        if self.variant == "none":
            return UNENCODED  # the idle baseline ignores the code field
        return CODES[self.code]

    @property
    def variant_enum(self) -> Variant:
        return Variant(self.variant)


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` loads as ``True``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fmt(value) -> str:
    """Serialize a number at full round-trip precision (>= 12 significant
    digits); NaN and None become empty fields."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def load_run_config(config_path, overrides: dict) -> RunConfig:
    """Merge a JSON config file (optional) with flag overrides; overrides
    win field by field.  Unknown file keys are configuration errors."""
    merged: dict = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {config_path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {config_path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown configuration field")
        merged.update(raw)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if "p_grid" in merged:
        try:
            merged["p_grid"] = tuple(float(p) for p in merged["p_grid"])
        except (TypeError, ValueError):
            raise ConfigError(
                f"p_grid: must be a list of numbers, got {merged['p_grid']!r}"
            )
    missing = [k for k in ("code", "variant", "p_grid", "trials", "master_seed")
               if k not in merged]
    if missing:
        raise ConfigError(f"{missing[0]}: required field missing")
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"config: {exc}")


def _point_row(cfg: RunConfig, pt: SweepPoint) -> list:
    return [
        cfg.code,
        cfg.variant,
        _fmt(pt.p),
        _fmt(pt.n_trials),
        _fmt(pt.n_failures),
        _fmt(pt.n_censored),
        _fmt(pt.mean_cycles),
        _fmt(pt.p_log),
        _fmt(pt.ci_low),
        _fmt(pt.ci_high),
        _fmt(cfg.master_seed),
    ]


def _summary_row(cfg: RunConfig, est) -> list:
    return [
        cfg.code,
        cfg.variant,
        _fmt(est.p_th),
        "",
        "",
        "",
        "",
        _fmt(est.p_th),
        _fmt(est.ci[0]),
        _fmt(est.ci[1]),
        _fmt(cfg.master_seed),
    ]


def _write_csv(path, rows, partial: bool):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if partial:
            fh.write("# partial=true\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def run_command(args) -> int:
    # imported here, not at the top: it loads multiprocessing, which a
    # process that never runs a sweep should not pay for
    from concurrent.futures.process import BrokenProcessPool

    overrides = {
        "code": args.code,
        "variant": args.variant,
        "p_grid": args.p,
        "trials": args.trials,
        "master_seed": args.seed,
        "max_cycles": args.max_cycles,
        "workers": args.workers,
        "output_path": args.out,
        "engine": args.engine,
    }
    if overrides["workers"] is None and os.environ.get(WORKERS_ENV_VAR):
        try:
            overrides["workers"] = int(os.environ[WORKERS_ENV_VAR])
        except ValueError:
            raise ConfigError(
                f"workers: environment variable {WORKERS_ENV_VAR} must be "
                f"an integer, got {os.environ[WORKERS_ENV_VAR]!r}"
            )
    cfg = load_run_config(args.config, overrides)

    progress = (lambda msg: print(msg, file=sys.stderr, flush=True))
    points, rows = [], []
    stopped = None  # why the sweep ended before its last point
    try:
        for pt in iter_sweep(
            cfg.code_spec,
            cfg.variant_enum,
            cfg.p_grid,
            cfg.trials,
            cfg.master_seed,
            max_cycles=cfg.max_cycles,
            workers=cfg.workers,
            engine=cfg.engine,
            progress=progress,
        ):
            points.append(pt)
            rows.append(_point_row(cfg, pt))
    except KeyboardInterrupt:
        stopped = "interrupted"
    except BrokenProcessPool as exc:
        stopped = f"a worker process crashed: {exc}"
        progress(f"mfqec run: {stopped}")

    summary: dict = {
        "csv": cfg.output_path,
        "points": len(points),
        "partial": stopped is not None,
    }
    status = ExitStatus.OK
    if stopped is not None:
        _write_csv(cfg.output_path, rows, partial=True)
        status = ExitStatus.CONFIG_ERROR
        summary["error"] = stopped
    else:
        try:
            est = find_threshold_crossing(points)
            rows.append(_summary_row(cfg, est))
            summary["p_th"] = est.p_th
            summary["bracket"] = list(est.bracket)
            summary["ci"] = list(est.ci)
        except NoCrossing as exc:
            status = ExitStatus.NO_CROSSING
            summary["error"] = f"no crossing: {exc}"
        _write_csv(cfg.output_path, rows, partial=False)
    print(json.dumps(summary), flush=True)
    return int(status)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def _read_results_csv(path):
    """Rows of a results CSV as dicts, with schema validation.  The header
    must match CSV_HEADER exactly; a mismatch names the columns involved."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if not lines or not lines[0].strip():
        return []
    reader = csv.reader(lines)
    header = next(reader)
    if header != CSV_HEADER:
        missing = sorted(set(CSV_HEADER) - set(header))
        unexpected = sorted(set(header) - set(CSV_HEADER))
        parts = []
        if missing:
            parts.append(f"missing columns: {', '.join(missing)}")
        if unexpected:
            parts.append(f"unexpected columns: {', '.join(unexpected)}")
        if not parts:
            parts.append("columns out of order")
        raise ConfigError(f"csv schema mismatch in {path}: {'; '.join(parts)}")
    return [dict(zip(CSV_HEADER, row)) for row in reader if row]


def emit_plot_data(csv_path, out_dir=None) -> list:
    """Write per-(code, variant) curve files and an identity-line file.

    Each curve file holds two columns (p, p_log) at 15 significant
    digits, one line per sweep point; summary rows (empty ``trials``)
    and censored-only points (empty ``p_log``) are skipped.  The
    identity file spans exactly the input p range.  Returns the written
    paths; rewriting is idempotent.
    """
    rows = _read_results_csv(csv_path)
    out_dir = out_dir or (os.path.dirname(os.path.abspath(csv_path)))
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    curves: dict = {}
    all_p = []
    for row in rows:
        if not row["trials"]:
            continue  # threshold summary row, not a sweep point
        p = float(row["p"])
        all_p.append(p)
        if not row["p_log"]:
            continue  # censored-only point: no rate estimate
        curves.setdefault((row["code"], row["variant"]), []).append(
            (p, float(row["p_log"]))
        )
    written = []
    for (code, variant), pairs in sorted(curves.items()):
        path = os.path.join(out_dir, f"{stem}_{code}_{variant}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# p p_log\n")
            for p, p_log in sorted(pairs):
                fh.write("%.15g %.15g\n" % (p, p_log))
        written.append(path)
    if all_p:
        path = os.path.join(out_dir, f"{stem}_identity.dat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# p p_log (identity reference)\n")
            for p in (min(all_p), max(all_p)):
                fh.write("%.15g %.15g\n" % (p, p))
        written.append(path)
    return written


def plot_command(args) -> int:
    written = emit_plot_data(args.csv, args.out_dir)
    for path in written:
        print(path)
    return int(ExitStatus.OK)


# ---------------------------------------------------------------------------
# circuit listings
# ---------------------------------------------------------------------------

def list_circuits_command(args) -> int:
    if args.code == "unencoded" or args.variant == "none":
        selection = [("unencoded", Variant.NONE)]
    elif args.code and args.variant:
        selection = [(args.code, Variant(args.variant))]
    else:
        codes = [args.code] if args.code else sorted(CODES)
        variants = (
            [Variant(args.variant)]
            if args.variant
            else [Variant.PERFECT, Variant.SIMPLIFIED]
        )
        selection = [(c, v) for c in codes for v in variants]
        if not args.code and not args.variant:
            selection.append(("unencoded", Variant.NONE))
    first = True
    for code_name, variant in selection:
        circ = build_circuit(code_name, variant)
        for which in ("a", "b"):
            if not first:
                print()
            first = False
            print(f"# {circ.name} cycle {which}")
            print(circuit_listing(circ, which))
    return int(ExitStatus.OK)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # NoCrossing here, so remap usage errors to the config-error status.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(int(ExitStatus.CONFIG_ERROR))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mfqec",
        description=(
            "Measurement-free quantum error correction: time-to-failure "
            "Monte Carlo sweeps, threshold estimation, and circuit audit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a sweep and write CSV results",
        description=(
            "Run a logical-error-rate sweep.  Every configuration field "
            "can come from --config JSON and/or be overridden by the "
            "same-named flag."
        ),
    )
    run.add_argument("--config", help="JSON configuration file")
    run.add_argument("--code", choices=sorted(CODES) + ["unencoded"])
    run.add_argument("--variant", choices=["perfect", "simplified", "none"])
    run.add_argument(
        "--p", "--p-grid", dest="p", type=float, action="append",
        help="physical error rate grid point (repeatable, increasing)",
    )
    run.add_argument("--trials", type=int, help="trials per grid point")
    run.add_argument(
        "--seed", "--master-seed", dest="seed", type=int,
        help="master seed; all trial seeds derive from it",
    )
    run.add_argument("--max-cycles", type=int, help="censoring horizon per trial")
    run.add_argument(
        "--workers", type=int,
        help=f"parallel trial executors (default: ${WORKERS_ENV_VAR} or 1)",
    )
    run.add_argument(
        "--out", "--output-path", dest="out", help="output CSV path"
    )
    run.add_argument(
        "--engine", choices=["tableau", "frame"],
        help="simulation engine (identical results; frame is faster)",
    )
    run.set_defaults(func=run_command)

    plot = sub.add_parser(
        "plot", help="emit plot-ready .dat files from a results CSV"
    )
    plot.add_argument("csv", help="results CSV produced by `run`")
    plot.add_argument("--out-dir", help="directory for .dat files "
                                        "(default: beside the CSV)")
    plot.set_defaults(func=plot_command)

    lst = sub.add_parser(
        "list-circuits", help="print circuit instruction listings"
    )
    lst.add_argument("--code", choices=sorted(CODES) + ["unencoded"])
    lst.add_argument("--variant", choices=["perfect", "simplified", "none"])
    lst.set_defaults(func=list_circuits_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"mfqec: config error: {exc}", file=sys.stderr)
        return int(ExitStatus.CONFIG_ERROR)
    except OSError as exc:
        print(f"mfqec: {exc}", file=sys.stderr)
        return int(ExitStatus.CONFIG_ERROR)


if __name__ == "__main__":
    sys.exit(main())
