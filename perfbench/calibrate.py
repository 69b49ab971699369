"""Host-speed calibration for the benchmark's end-to-end times.

The benchmark runs on a few cores of a shared host whose speed changes
under it: a fixed piece of interpreted work can take 1.5x longer for tens
of seconds at a time, so raw wall times of identical work spread too far
to show a 25% regression.  Each timed unit of work is therefore bracketed
by a fixed calibration kernel, and its wall time is scaled by how fast the
host ran the kernel around it:

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

A scaled time is the time the unit would have taken on a host that runs
the kernel in ``REFERENCE_S`` seconds.  The kernel does the kind of work
the simulator does (Python integer bit operations over tuples, sorting
with a key, numpy scalar draws, small object creation) and imports
nothing from ``mfqec``, so a change to the program cannot change it.
"""
from __future__ import annotations

import concurrent.futures
import statistics
from time import perf_counter

import numpy as np

# About the median kernel time on the host the benchmark was defined on, a
# shared 2-vCPU virtual machine; any constant would do, since it only
# fixes the unit.
REFERENCE_S = 0.02
REPEATS = 3

_OPS = tuple((k % 3, 1 << (k % 17), 1 << ((5 * k + 3) % 17)) for k in range(48))
_KEYS = tuple((k * 7919) % 97 for k in range(24))


def _kernel() -> int:
    rng = np.random.default_rng(12345)
    acc = 0
    for rep in range(1500):
        fx, fz = rep & 0x1FFFF, (rep * 31) & 0x1FFFF
        for op in _OPS:
            if op[0] == 0:
                if fx & op[1]:
                    fx ^= op[2]
                if fz & op[2]:
                    fz ^= op[1]
            elif op[0] == 1:
                if (fx & op[1]) and (fx & op[2]):
                    fz ^= op[1]
            else:
                m = op[1]
                if bool(fx & m) != bool(fz & m):
                    fx ^= m
                    fz ^= m
        order = sorted(range(len(_KEYS)), key=lambda i: _KEYS[i] ^ rep)
        pair = (int(rng.integers(1, 16)), float(rng.random()))
        acc += (fx ^ fz).bit_count() + order[0] + pair[0]
    return acc


def sample() -> float:
    """Median wall time of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times units of work and scales each by the kernel's speed measured
    just before and just after it.

    A unit that keeps ``processes`` CPUs busy is calibrated on as many: the
    kernel runs at once in this process and in ``processes - 1`` helper
    processes, and the mean of their times is the sample.  The host's CPUs
    are not equally fast at a given moment, and a single process would
    measure whichever one it happens to run on.  Use as a context manager,
    which stops the helpers.
    """

    def __init__(self, processes: int = 1):
        self._helpers = None
        self.processes = processes
        if processes > 1:
            self._helpers = concurrent.futures.ProcessPoolExecutor(processes - 1)
        self._sample()  # warm the kernel's code paths, start the helpers
        self._last = self._sample()
        self.samples = [self._last]
        self._segments = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._helpers is not None:
            self._helpers.shutdown(wait=True)

    def _sample(self) -> float:
        others = [self._helpers.submit(sample) for _ in range(self.processes - 1)]
        own = sample()
        return statistics.fmean([own] + [f.result() for f in others])

    def time(self, fn):
        """Runs ``fn()``; returns (its result, wall seconds, scaled seconds).
        ``fn`` may call ``mark`` to split itself into segments."""
        self._segments = []
        self._start = perf_counter()
        out = fn()
        self.mark()
        segments, self._segments = self._segments, None
        return (out, sum(wall for wall, _ in segments),
                sum(wall * REFERENCE_S / kernel for wall, kernel in segments))

    def mark(self):
        """Ends the current segment of the unit being timed: takes a sample,
        which is not counted in the unit's time, and scales the segment by
        it and the one before.  Outside ``time`` it does nothing."""
        if self._segments is None:
            return
        wall = perf_counter() - self._start
        after = self._sample()
        self._segments.append((wall, (self._last + after) / 2))
        self._last = after
        self.samples.append(after)
        self._start = perf_counter()
