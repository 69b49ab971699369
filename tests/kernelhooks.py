"""Test access to the C trial kernel: the library, and its draw and seeding
hooks."""
from __future__ import annotations

import ctypes
import shutil

import numpy as np
import pytest

from mfqec import kernel, montecarlo


def kernel_or_none():
    """This process's kernel library, or None where there is no C compiler
    to build it with; a failed build with a compiler fails the test."""
    lib = kernel.library()
    if lib is None and shutil.which("gcc") is not None:
        raise AssertionError("the C kernel failed to build or load")
    return lib


def kernel_library():
    """This process's kernel library; skips the test only where there is no
    C compiler to build it with."""
    lib = kernel_or_none()
    if lib is None:
        pytest.skip("no C compiler on PATH")
    return lib


def kernel_draws(lib, state, program, n=1, p=0.5) -> list:
    """The draws of ``program`` (``mfqec_draws``: -2 random(), -1
    binomial(n, p), v >= 1 integers(v)) made by the kernel from the PCG64
    ``state`` dict, which must have no buffered half-word."""
    assert not state["has_uint32"]
    bin_p = min(p, 1.0 - p)
    rate = kernel.pack_rate(0.0, [1.0], bin_p,
                            *montecarlo._inversion_constants(n, bin_p), p > 0.5)
    codes = (ctypes.c_int64 * len(program))(*program)
    out = (ctypes.c_double * len(program))()
    lib.mfqec_draws(*kernel.state_words(state), ctypes.byref(rate), n, codes,
                    len(program), out)
    return [v if code == -2 else int(v) for code, v in zip(program, out)]


def seed_state(lib, entropy, n_words) -> list:
    """``SeedSequence(entropy).generate_state(n_words, uint32)`` by the
    kernel's hash (``mfqec_seed_state``), for a list of uint32 words."""
    out = (ctypes.c_uint32 * n_words)()
    lib.mfqec_seed_state((ctypes.c_uint32 * len(entropy))(*entropy), len(entropy),
                         n_words, out)
    return out[:]


def pcg64_state(lib, seed) -> list:
    """``kernel.state_words(PCG64(seed).state)`` by the kernel's seeding
    (``mfqec_pcg64_state``), for an integer seed below 2**64."""
    out = (ctypes.c_uint64 * 4)()
    lib.mfqec_pcg64_state(seed, out)
    return out[:]


def trial_states(lib, master_seed, point_index, indices) -> list:
    """The four state words of each generator ``mfqec_skip_block`` starts
    the trials ``indices`` of (master_seed, point_index) from
    (``mfqec_trial_states``)."""
    n = len(indices)
    out = (ctypes.c_uint64 * (4 * n))()
    lib.mfqec_trial_states(*kernel.seed_prefix(master_seed, point_index),
                           (ctypes.c_uint64 * n)(*indices), n, out)
    return [out[4 * i:4 * i + 4] for i in range(n)]


def clean_draws(lib, rate, us):
    """``(runs, counts, fallbacks)`` of ``mfqec_clean_draws``: for each draw
    u of the list ``us``, the clean run length the kernel takes from it (a
    float, as the kernel floors it) and the error count, at the constants
    of the ``kernel.Rate`` ``rate``, and how many run lengths took the
    fallback past the certified window."""
    n = len(rate._keep)
    us = np.asarray(us, dtype=np.float64)
    runs = np.empty(len(us), dtype=np.float64)
    counts = np.empty(len(us), dtype=np.int64)
    f64p, i64p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
    fallbacks = lib.mfqec_clean_draws(ctypes.byref(rate), n, us.ctypes.data_as(f64p),
                                      len(us), runs.ctypes.data_as(f64p),
                                      counts.ctypes.data_as(i64p))
    return runs.tolist(), counts.tolist(), fallbacks
