"""A/B timing of the C kernel alone: REV's ``_kernel.c`` against this
checkout's, in one process.

    python3 scripts/kernel_ab.py --base HEAD~1 --rounds 160

Compiles ``REV:src/mfqec/_kernel.c`` and this checkout's ``_kernel.c``
(uncommitted edits included) with ``kernel.CFLAGS`` into a temporary
directory and loads both libraries.  Each library runs on its own packed
circuit, whose tables its own ``mfqec_fill_tables`` fills, so the two may
differ in what a table row holds; both read one rate and are called with
one argument list, so the script refuses to run (exit 2) when the two
sources define ``cycle_t``, ``circuit_t``, ``rate_t`` or the parameters of
``mfqec_skip_block``, ``mfqec_resample_sums`` or ``mfqec_fill_tables``
differently, comments and spacing aside.

Round r calls each library's ``mfqec_skip_block`` once on one point of each
benchmark workload (``POINTS``), its trials seeded by (``SEED``, r) as
``estimate_logical_error_rate`` seeds point r, and its
``mfqec_resample_sums`` once on each of bf-sweep's bootstrap shapes
(``RESAMPLES``: one point's 1,100 failure times, as a point's CI draws
them, and eight such sets, as the threshold's bootstrap draws them, each
1,000 times) from the generator a point's bootstrap starts from,
``default_rng(SeedSequence([SEED, r]))``, alternating by round which library
goes first.  Any output that differs between the two, a resample's final
generator state included, ends the run (exit 1).  Prints one JSON line:
per workload (``workloads``) and per resample shape (``resamples``), the
median and quartiles of the per-round time ratio change / base and each
side's median milliseconds.  Times are raw ``perf_counter`` seconds; the
ratio of two calls made back to back is what stays comparable on a shared
host.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mfqec import kernel  # noqa: E402
from mfqec.circuits import Variant  # noqa: E402
from mfqec.montecarlo import (  # noqa: E402
    _site_count,
    circuit_for,
    kernel_rate,
    make_engine,
)

# workload: (code, variant, p, trials) of one point.  bf-sweep's grid is
# represented by a point near criterion 1's threshold.
POINTS = {
    "s17-perfect-deep": ("surface17", "perfect", 4.2e-5, 20),
    "s17-simplified-stuck": ("surface17", "simplified", 1.3e-4, 60),
    "bf-sweep": ("bf", "simplified", 0.0139, 1100),
}
# shape: (sets, values per set, resamples) of one mfqec_resample_sums call
RESAMPLES = {"1x1100": (1, 1100, 1000), "8x1100": (8, 1100, 1000)}
MAX_CYCLES = 10_000_000  # estimate_logical_error_rate's default
SEED = 42  # perfbench's seed
SHARED = {name: r"typedef\s+struct\s*\{([^}]*)\}\s*" + name + r"\s*;"
          for name in ("cycle_t", "circuit_t", "rate_t")}
SHARED.update({name: r"\b(?:void|int64_t)\s+" + name + r"\s*\(([^)]*)\)"
               for name in ("mfqec_skip_block", "mfqec_resample_sums", "mfqec_fill_tables")})


def shared_definitions(source: str) -> dict:
    """For each name of SHARED, the body of its struct or the parameter
    list of its function in C ``source``, comments dropped and spacing
    collapsed; None where it is missing."""
    text = re.sub(r"/\*.*?\*/", " ", source, flags=re.S)
    found = {}
    for name, pattern in SHARED.items():
        match = re.search(pattern, text)
        found[name] = " ".join(match.group(1).split()) if match else None
    return found


def _trials(lib, r, circuits, rate, indices):
    """``mfqec_skip_block``'s flip cycles for point r's trials ``indices``,
    on the circuit ``circuits[lib]`` that ``lib`` filled."""
    return kernel.skip_block(lib, circuits[lib], rate, MAX_CYCLES,
                             kernel.seed_prefix(SEED, r), indices)


def _resample(lib, r, values, sizes, n_resamples):
    """``mfqec_resample_sums``'s sums and the final generator state, from
    the generator point r's bootstrap starts from."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, r]))
    sums = np.empty((n_resamples, len(sizes)), dtype=np.int64)
    end = kernel.resample_sums(lib, kernel.generator_words(rng.bit_generator), values,
                               sizes, sums)
    return sums.tobytes(), end.tobytes()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--rounds", type=int, default=160)
    args = ap.parse_args(argv)

    base_source = subprocess.run(
        ["git", "show", f"{args.base}:src/mfqec/_kernel.c"], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout
    base_defs = shared_definitions(base_source)
    change_defs = shared_definitions(kernel.SOURCE.read_text())
    differ = [name for name in SHARED if base_defs[name] != change_defs[name]]
    if differ:
        print(f"kernel_ab: {args.base} and this checkout define {', '.join(differ)} "
              "differently; one set of arguments cannot serve both", file=sys.stderr)
        return 2

    n_values = max(n_sets * size for n_sets, size, _ in RESAMPLES.values())
    cycles = np.random.default_rng(SEED).geometric(0.02, size=n_values).astype(np.int64)

    with tempfile.TemporaryDirectory() as tmp:
        base_path = Path(tmp) / "base" / "_kernel.c"
        base_path.parent.mkdir()
        base_path.write_text(base_source)
        change = kernel.load(Path(tmp) / "change")
        # REV may lack this checkout's test hooks, which load() declares
        base = ctypes.CDLL(str(kernel.build(base_path.parent, base_path)))
        for func in ("mfqec_skip_block", "mfqec_resample_sums", "mfqec_fill_tables"):
            getattr(base, func).argtypes = getattr(change, func).argtypes
            getattr(base, func).restype = getattr(change, func).restype
        libs = {"base": base, "change": change}
        points = {}
        for name, (code, variant, p, trials) in POINTS.items():
            eng = make_engine(circuit_for(code, Variant(variant)), "frame")
            points[name] = ({lib: eng.pack(lib) for lib in libs.values()},
                            kernel_rate(p, _site_count(eng.circuit)), list(range(trials)))
        calls = {"workloads": {name: partial(_trials, circuits=circuits, rate=rate,
                                             indices=indices)
                               for name, (circuits, rate, indices) in points.items()},
                 "resamples": {name: partial(_resample, values=cycles[:n_sets * size],
                                             sizes=np.full(n_sets, size, dtype=np.int64),
                                             n_resamples=n_resamples)
                               for name, (n_sets, size, n_resamples) in RESAMPLES.items()}}
        times = {group: {name: {side: [] for side in libs} for name in funcs}
                 for group, funcs in calls.items()}
        for r in range(args.rounds):
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            for group, funcs in calls.items():
                for name, call in funcs.items():
                    outs = {}
                    for side in order:
                        start = perf_counter()
                        outs[side] = call(libs[side], r)
                        times[group][name][side].append(perf_counter() - start)
                    if outs["base"] != outs["change"]:
                        print(f"kernel_ab: {name} round {r}: the outputs differ",
                              file=sys.stderr)
                        return 1

    report = {"base": args.base, "rounds": args.rounds, "seed": SEED}
    for group, entries in times.items():
        report[group] = {}
        for name, sides in entries.items():
            ratio = np.array(sides["change"]) / np.array(sides["base"])
            q1, median, q3 = np.percentile(ratio, [25, 50, 75])
            report[group][name] = {
                "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
                **{f"{side}_ms_median": 1e3 * float(np.median(t))
                   for side, t in sides.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
