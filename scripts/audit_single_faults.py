#!/usr/bin/env python3
"""Exhaustively inject every single fault (every error site of both
cycles, every allowed Pauli) into every circuit variant and report the
outcome classes.

A circuit is fault-tolerant to single faults when no injection produces
a logical flip.  Perfect variants additionally return every fault to
the clean encoded state; simplified variants leave a small set of
correction-gate faults oscillating forever (the price of dropping the
syndrome-erasure hardware), which is expected and printed here.
"""

import argparse
import sys
import time

from mfqec.circuits import Variant
from mfqec.errors import ErrorChannel
from mfqec.montecarlo import ENGINES, circuit_for, run_single_fault

LETTERS = ("I", "X", "Y", "Z")


def all_event_paulis(site):
    if site.channel is ErrorChannel.INIT:
        return [("X",)]
    k = len(site.qubits)
    return [
        tuple(LETTERS[(idx >> (2 * (k - 1 - j))) & 3] for j in range(k))
        for idx in range(1, 4 ** k)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--engine", default="frame", choices=list(ENGINES))
    ap.add_argument("--follow-cycles", type=int, default=10)
    args = ap.parse_args(argv)

    any_flips = False
    for code_name in ("bf", "surface17"):
        for variant in (Variant.PERFECT, Variant.SIMPLIFIED):
            circ = circuit_for(code_name, variant)
            flips = stuck = total = 0
            t0 = time.time()
            for selector in ("a", "b"):
                for site in circ.error_sites(selector):
                    for paulis in all_event_paulis(site):
                        out = run_single_fault(
                            circ, site, paulis, selector=selector,
                            follow_cycles=args.follow_cycles, engine=args.engine)
                        total += 1
                        flips += out.flipped
                        stuck += (not out.flipped) and not out.clean_after
            any_flips = any_flips or flips
            print(f"{circ.name}: {total} injections, {flips} logical flips, "
                  f"{stuck} never clean within {args.follow_cycles} cycles "
                  f"({time.time() - t0:.1f}s)")
    return 1 if any_flips else 0


if __name__ == "__main__":
    sys.exit(main())
