"""The C trial kernel against the Python trial loop, and its build.

``run_trial`` is the oracle: a kernel trial must end on the cycle the
Python loop ends on, on the frame engine and on the tableau, because both
consume one PCG64 stream draw for draw.  numpy is the oracle of the
kernel's seeding: a trial's generator must be
``PCG64(trial_seed(master, point, trial))`` word for word.  The numpy loop
``sets[j][rng.integers(0, n, size=n)].mean()`` is the oracle of the
kernel's bootstrap resampling: the same means, bit for bit, and the
generator left in the same state.  ``_FrameEngine._transition``, which
runs a cycle's ops, is the oracle of the kernel's tables, row for row.
"""
import concurrent.futures
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from bisect import bisect_right
from itertools import product

import numpy as np
import pytest

from mfqec import kernel, montecarlo
from mfqec.circuits import Variant
from mfqec.codes import BIT_FLIP_CODE
from mfqec.errors import (
    ErrorChannel,
    ErrorEvent,
    clean_cycle_log_probability,
    error_count_cdf,
)
from mfqec.montecarlo import (
    Classification,
    TrialConfig,
    TrialResult,
    _FrameEngine,
    _kernel_trials,
    circuit_for,
    estimate_logical_error_rate,
    make_engine,
    resample_means,
    run_trial,
    trial_seed,
)
from mfqec.threshold import SweepPoint, find_threshold_crossing, iter_sweep
from kernelhooks import (
    clean_draws,
    kernel_library,
    pcg64_state,
    seed_state,
    trial_states,
)
from test_montecarlo import PCG64_MULTIPLIER, _pcg64_state_emitting

SRC = os.path.dirname(os.path.dirname(montecarlo.__file__))


def _kernel_results(block, master_seed, point_index, indices, max_cycles) -> list:
    """The ``TrialResult`` of each trial ``block`` runs."""
    return [TrialResult(cycles or max_cycles, not cycles)
            for cycles in block(master_seed, point_index, indices)]


# (code, variant, p): the TRIAL_BUDGETS of test_montecarlo, the unencoded
# qubit, residual-heavy rates (many residual cycles, so many binomial draws
# by inversion) and p > 0.5, where the residual count is reflected.
KERNEL_CASES = [
    ("bf", Variant.SIMPLIFIED, 0.05),
    ("bf", Variant.PERFECT, 0.02),
    ("surface17", Variant.SIMPLIFIED, 0.003),
    ("surface17", Variant.PERFECT, 0.002),
    ("unencoded", Variant.NONE, 0.01),
    ("bf", Variant.SIMPLIFIED, 0.3),
    ("bf", Variant.PERFECT, 0.15),
    ("surface17", Variant.SIMPLIFIED, 0.03),
    ("bf", Variant.SIMPLIFIED, 0.6),
    ("unencoded", Variant.NONE, 0.9),
]


@pytest.mark.parametrize("name,variant,p", KERNEL_CASES)
def test_kernel_matches_run_trial_on_both_engines(name, variant, p):
    kernel_library()
    circ = circuit_for(name, variant)
    frame, tableau = make_engine(circ, "frame"), make_engine(circ, "tableau")
    block = _kernel_trials(frame, p, 20_000)
    assert block is not None
    got = _kernel_results(block, 7, 0, range(60), 20_000)
    for i in range(60):
        seed = trial_seed(7, 0, i)
        cfg = TrialConfig(p, seed, 20_000)
        expected = run_trial(cfg, frame)
        assert got[i] == expected, seed
        if i < 8:
            assert run_trial(cfg, tableau) == expected, seed


@pytest.mark.parametrize("p", [0.04, 0.05])
def test_kernel_on_both_sides_of_the_btpe_boundary(p):
    """surface17-perfect has 675 sites: at p = 0.04 (p·N = 27) the kernel
    runs the trials; at p = 0.05 (p·N = 33.75) numpy's binomial runs BTPE,
    and the trials fall back to ``run_trial``.  An estimate's trials are
    ``run_trial``'s either way."""
    kernel_library()
    circ = circuit_for("surface17", Variant.PERFECT)
    frame, tableau = make_engine(circ, "frame"), make_engine(circ, "tableau")
    block = _kernel_trials(frame, p, 120)
    assert (block is not None) == (p * len(circ.error_sites("a")) <= 30)
    cfgs = [TrialConfig(p, trial_seed(3, 0, i), 120) for i in range(12)]
    expected = [run_trial(cfg, frame) for cfg in cfgs]
    assert not all(res.censored for res in expected)
    if block is not None:
        assert _kernel_results(block, 3, 0, range(12), 120) == expected
        assert [run_trial(cfg, tableau) for cfg in cfgs[:2]] == expected[:2]
    estimated = montecarlo._python_trials("surface17", Variant.PERFECT.value, p, 120,
                                          "frame", 3, 0, range(4))
    assert estimated == [0 if res.censored else res.cycles_to_failure
                         for res in expected[:4]]


def test_python_slice_equals_the_kernel_block():
    """A slice of Python-loop trials returns what the kernel block returns
    for it, each trial's flip cycle and 0 for a censored one, so an
    estimate joins either kind of slice the same way."""
    kernel_library()
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    block = _kernel_trials(make_engine(circ, "frame"), 0.08, 4)
    indices = range(5, 45)
    got = montecarlo._python_trials("bf", Variant.SIMPLIFIED.value, 0.08, 4, "frame",
                                    11, 2, indices)
    assert got == block(11, 2, indices)
    assert 0 in got and any(got)


class _Recorder:
    """An engine proxy that logs each cycle, while ``sample_clean_run_length``
    logs each clean run: together they say where a censored trial stopped."""

    def __init__(self, inner, log):
        self.circuit = inner.circuit
        self.new_run = inner.new_run
        self._inner = inner
        self._log = log

    def run_cycle(self, *args):
        self._log.append("cycle")
        return self._inner.run_cycle(*args)


@pytest.mark.parametrize("name,variant,p", [("bf", Variant.SIMPLIFIED, 0.08),
                                             ("unencoded", Variant.NONE, 0.3)])
def test_kernel_matches_run_trial_at_a_small_cycle_cap(name, variant, p, monkeypatch):
    """A cap of a few cycles censors trials both inside a clean run (the
    run's end reaches the cap) and at a cycle (the cap is reached by the
    cycle just run); the kernel agrees with the Python loop on every trial.
    On the unencoded qubit one error can flip the state, so a clean run
    that ends exactly at the cap must censor rather than run one more
    cycle."""
    kernel_library()
    circ = circuit_for(name, variant)
    frame = make_engine(circ, "frame")
    log = []
    draw = montecarlo.sample_clean_run_length

    def logged(*args):
        log.append("run")
        return draw(*args)

    monkeypatch.setattr(montecarlo, "sample_clean_run_length", logged)
    recorder = _Recorder(frame, log)
    stops = {"run": 0, "cycle": 0}
    for max_cycles in (1, 2, 3, 5):
        block = _kernel_trials(frame, p, max_cycles)
        got = _kernel_results(block, 11, max_cycles, range(40), max_cycles)
        for i in range(40):
            seed = trial_seed(11, max_cycles, i)
            log.clear()
            expected = run_trial(TrialConfig(p, seed, max_cycles), recorder)
            assert got[i] == expected, (max_cycles, seed)
            if expected.censored:
                stops[log[-1]] += 1
    assert stops["run"] and stops["cycle"], stops


def test_estimate_in_the_kernel_matches_the_python_loop(monkeypatch):
    """An estimate gives the same ``SweepPoint`` and the same progress
    calls with the kernel, on one or two workers, as with every trial run
    by ``run_trial``: the kernel runs its blocks in slices of the progress
    tick.  45 trials do not split evenly into ticks or pool chunks."""
    kernel_library()
    kwargs = dict(point_index=2, max_cycles=100_000, engine="frame")

    def run(n_trials, workers):
        calls = []
        est = estimate_logical_error_rate(BIT_FLIP_CODE, Variant.PERFECT, 0.03, n_trials,
                                          42, workers=workers,
                                          progress=lambda *c: calls.append(c), **kwargs)
        return est, calls

    cases = [(n, w) for n in (20, 45, 80) for w in (1, 2)]
    in_kernel = [run(*case) for case in cases]
    monkeypatch.setattr(montecarlo, "_kernel_trials", lambda *a: None)
    in_python = [run(*case) for case in cases]
    assert in_kernel == in_python
    assert all(in_kernel[i] == in_kernel[i + 1] for i in range(0, len(cases), 2))
    assert [calls[-1] for _, calls in in_kernel] == [(n, n) for n, _ in cases]


def _numpy_resample_means(rng, sets, n_resamples):
    """The oracle: each set's bootstrap mean, drawn resample by resample
    and set by set as numpy draws it."""
    arrays = [np.asarray(s) for s in sets]
    return np.array([[a[rng.integers(0, a.size, size=a.size)].mean() for a in arrays]
                     for _ in range(n_resamples)]).reshape(n_resamples, len(arrays))


def _resample_both_ways(make_rng, sets, n_resamples, monkeypatch):
    """(means, final state) of ``resample_means`` and of the oracle, each
    on a fresh ``make_rng()``, and how many kernel calls were made."""
    calls = []
    real = kernel.resample_sums
    monkeypatch.setattr(kernel, "resample_sums", lambda *a: calls.append(1) or real(*a))
    rng, oracle_rng = make_rng(), make_rng()
    got = resample_means(rng, sets, n_resamples)
    expected = _numpy_resample_means(oracle_rng, sets, n_resamples)
    return ((got.tobytes(), _state(rng)), (expected.tobytes(), _state(oracle_rng)),
            len(calls))


def _state(rng) -> str:
    """A generator's whole state, arrays included, as comparable text."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _rng_with_buffered_half():
    rng = np.random.default_rng(5)
    rng.integers(0, 10)  # spends the low half of a word, buffers the high half
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


_ODD_SETS = [np.arange(1, 8), [3], np.array([1.0, 9.0, 2.0, 2.0, 40.0]),
             list(range(100, 113))]


@pytest.mark.parametrize("make_rng", [
    lambda: np.random.default_rng(3),
    _rng_with_buffered_half,
    lambda: np.random.default_rng(np.random.SeedSequence([2**33 + 5, 2])),
    lambda: np.random.default_rng(2**64 + 1),
], ids=["fresh", "buffered-half", "master-seed-2**33+5", "seed-2**64+1"])
def test_kernel_resamples_match_numpy(make_rng, monkeypatch):
    """Odd set sizes carry the buffered half-word across sets and
    resamples, a size-1 set draws nothing, and a generator may come with a
    half-word buffered: the kernel's means and final state are numpy's."""
    kernel_library()
    got, expected, calls = _resample_both_ways(make_rng, _ODD_SETS, 37, monkeypatch)
    assert calls == 1
    assert got == expected
    rng = make_rng()
    before = rng.bit_generator.state
    assert np.array_equal(resample_means(rng, [[4], [7]], 5), [[4.0, 7.0]] * 5)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("make_rng,sets", [
    (lambda: np.random.default_rng(1), [[1, 2, 3], [2**52, 1]]),
    (lambda: np.random.default_rng(1), [[1.5, 2.0, 3.0]]),
    (lambda: np.random.default_rng(1), [[1, 2, 3], []]),
    (lambda: np.random.Generator(np.random.MT19937(1)), [[1, 2, 3], [4, 5]]),
    (lambda: np.random.Generator(np.random.Philox(1)), [[1, 2, 3], [4, 5]]),
], ids=["sum-past-2**53", "non-integer", "empty", "mt19937", "philox"])
def test_resamples_outside_the_kernel_run_numpys_loop(make_rng, sets, monkeypatch):
    """A sum that a double may round, a non-integer or empty set, or a
    generator other than PCG64 leaves every draw of the call to numpy."""
    kernel_library()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of an empty set
        got, expected, calls = _resample_both_ways(make_rng, sets, 9, monkeypatch)
    assert calls == 0
    assert got == expected


def _stepped_back(state, words):
    """The PCG64 state dict ``words`` outputs before ``state``."""
    inc, s = state["state"]["inc"], state["state"]["state"]
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(words):
        s = (s - inc) * inverse % (1 << 128)
    return dict(state, state={"state": s, "inc": inc})


def _half_with_low_product(n, low):
    """A uint32 whose Lemire product with n has ``low`` as its low word;
    ``low`` must be a multiple of gcd(n, 2**32)."""
    g = math.gcd(n, 1 << 32)
    return low // g * pow(n // g, -1, (1 << 32) // g) % ((1 << 32) // g)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 1100])
def test_resample_blocks_match_numpy_on_edge_words(n, monkeypatch):
    """The kernel takes 8 draws of a set from 4 words computed at once, and
    keeps them only when no draw's low product is below n.  A word whose
    low product is just below, on or just above n's rejection threshold,
    or n less the step the products move by, or n, is put at each of the 8
    draws of the first block, with and without a half-word buffered before
    it: the means and the final generator state are numpy's."""
    kernel_library()
    calls = []
    real = kernel.resample_sums
    monkeypatch.setattr(kernel, "resample_sums", lambda *a: calls.append(1) or real(*a))
    step = math.gcd(n, 1 << 32)
    threshold = (1 << 32) % n
    lows = {low for low in (threshold - step, threshold, threshold + step, n - step, n)
            if low >= 0}
    values = np.arange(n, dtype=np.int64) * 7 + 1
    cases = 0
    for position, low, buffered in product(range(8), sorted(lows), (False, True)):
        half = _half_with_low_product(n, low)
        other = 0x9E3779B9
        word = half | other << 32 if position % 2 == 0 else other | half << 32
        state = _stepped_back(_pcg64_state_emitting(word), position // 2)
        if buffered:
            state = dict(state, has_uint32=1, uinteger=0x2545F491)
        rngs = []
        for _ in range(2):
            rngs.append(np.random.default_rng())
            rngs[-1].bit_generator.state = state
        raw = np.random.PCG64()
        raw.state = state
        assert raw.random_raw(position // 2 + 1)[-1] == word
        got = resample_means(rngs[0], [values], 3)
        expected = _numpy_resample_means(rngs[1], [values], 3)
        assert got.tobytes() == expected.tobytes(), (position, low, buffered)
        assert _state(rngs[0]) == _state(rngs[1]), (position, low, buffered)
        cases += 1
    assert len(calls) == cases


def _rejecting_state(n, position, buffered):
    """A PCG64 state dict whose draw ``position`` (0 is the first, a
    buffered half included) is an ``integers(n)`` draw that Lemire rejects:
    its half has low product 0 with n, below 2**32 % n when n is not a
    power of 2."""
    half = _half_with_low_product(n, 0)
    at = position - buffered  # the draw's place among whole words' halves
    other = 0x9E3779B9
    word = half | other << 32 if at % 2 == 0 else other | half << 32
    state = _stepped_back(_pcg64_state_emitting(word), at // 2)
    if buffered:
        state = dict(state, has_uint32=1, uinteger=0x2545F491)
    return state


def _counted_resample_sums(monkeypatch) -> list:
    """A list that gets one entry per ``kernel.resample_sums`` call, from
    any thread."""
    calls = []
    real = kernel.resample_sums
    monkeypatch.setattr(kernel, "resample_sums", lambda *a: calls.append(1) or real(*a))
    return calls


def _sets(*sizes):
    return [np.arange(n, dtype=np.int64) * (3 + j) + j for j, n in enumerate(sizes)]


# (workers, sets, resamples, buffered half, rejected draw): each split into
# `workers` chunks, whose first holds a rejected draw of the first set.  The chunk bounds of
# "odd-words" (15 draws per resample) fall at odd draws, 75 for 2 workers
# and 45 for 3, so that the state a chunk starts from has a half buffered.
SPLIT_CASES = {
    "2-chunks": (2, _sets(20), 10, False, 0),
    "3-chunks": (3, _sets(20), 10, False, 3),
    "4-chunks": (4, _sets(20), 10, False, 5),
    "multi-set": (3, _sets(9, 4, 1, 13), 11, False, 2),
    "buffered-half": (2, _sets(11), 8, True, 0),
    "odd-words": (2, _sets(7, 5, 3), 9, False, 1),
    "odd-words-buffered": (3, _sets(7, 5, 3), 9, True, 4),
}


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_split_resamples_match_numpy_and_the_single_call(case, monkeypatch):
    """A bootstrap split over workers gives the numpy loop's means and
    final state, and the single kernel call's, when its first chunk holds a
    rejection: the other chunks' speculated starts are a draw short, and
    the resamples after the first chunk are split again from its end."""
    kernel_library()
    workers, sets, n_resamples, buffered, position = SPLIT_CASES[case]
    monkeypatch.setattr(montecarlo, "_MIN_SPLIT_DRAWS", 0)
    calls = _counted_resample_sums(monkeypatch)
    state = _rejecting_state(sets[0].size, position, buffered)
    rngs = [np.random.default_rng() for _ in range(3)]
    for rng in rngs:
        rng.bit_generator.state = state
    split = resample_means(rngs[0], sets, n_resamples, workers)
    assert len(calls) > workers  # the first split missed and split again
    single = resample_means(rngs[1], sets, n_resamples)
    expected = _numpy_resample_means(rngs[2], sets, n_resamples)
    assert split.tobytes() == single.tobytes() == expected.tobytes()
    assert _state(rngs[0]) == _state(rngs[1]) == _state(rngs[2])


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_split_resamples_keep_every_chunk_without_a_rejection(case, monkeypatch):
    """With no rejection in the stream, every chunk's speculated start is
    the previous chunk's end, buffered half included, so the split makes
    one kernel call per chunk; the means and the final state are numpy's."""
    kernel_library()
    workers, sets, n_resamples, buffered, _ = SPLIT_CASES[case]
    monkeypatch.setattr(montecarlo, "_MIN_SPLIT_DRAWS", 0)
    calls = _counted_resample_sums(monkeypatch)
    rngs = [_rng_with_buffered_half() if buffered else np.random.default_rng(3)
            for _ in range(2)]
    split = resample_means(rngs[0], sets, n_resamples, workers)
    assert len(calls) == workers
    expected = _numpy_resample_means(rngs[1], sets, n_resamples)
    assert split.tobytes() == expected.tobytes()
    assert _state(rngs[0]) == _state(rngs[1])


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_split_resamples_match_numpy_on_a_rejecting_stream(workers, monkeypatch):
    """``SeedSequence([1, 5])`` rejects a draw of range 1,100 within its
    first 1,000 resamples, so a split of them re-splits; the means and the
    final state are numpy's and the single call's."""
    kernel_library()
    values = np.random.default_rng(0).geometric(0.02, size=1100)
    calls = _counted_resample_sums(monkeypatch)
    rngs = [np.random.default_rng(np.random.SeedSequence([1, 5])) for _ in range(3)]
    split = resample_means(rngs[0], [values], 1000, workers)
    assert len(calls) > workers
    single = resample_means(rngs[1], [values], 1000)
    expected = _numpy_resample_means(rngs[2], [values], 1000)
    assert split.tobytes() == single.tobytes() == expected.tobytes()
    assert _state(rngs[0]) == _state(rngs[1]) == _state(rngs[2])


def test_split_waits_for_its_chunks_when_the_callers_chunk_raises(monkeypatch):
    """When the chunk run in the calling thread raises (here a
    ``KeyboardInterrupt``), ``resample_means`` raises it only once every
    chunk it submitted to the pool has returned, so no kernel call still
    writes an array the caller has let go."""
    kernel_library()
    monkeypatch.setattr(montecarlo, "_MIN_SPLIT_DRAWS", 0)
    real = kernel.resample_sums
    lock = threading.Lock()
    running, finished = [0], [0]
    started = threading.Event()

    def resample_sums(*args):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(timeout=10)
            raise KeyboardInterrupt
        with lock:
            running[0] += 1
        started.set()
        try:
            threading.Event().wait(0.2)
            return real(*args)
        finally:
            with lock:
                running[0] -= 1
                finished[0] += 1

    monkeypatch.setattr(kernel, "resample_sums", resample_sums)
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=3)
    try:
        with pytest.raises(KeyboardInterrupt):
            resample_means(np.random.default_rng(4), _sets(30), 12, 3, pool)
        assert (running[0], finished[0]) == (0, 2)
    finally:
        pool.shutdown(wait=True)


def test_threshold_bootstrap_holds_points_without_failure_times(monkeypatch):
    """Points with no failure times are held at their p_log, and the
    kernel resamples the others in one call, as the numpy loop does."""
    kernel_library()
    rng = np.random.default_rng(12)
    points = []
    for i, p in enumerate(np.geomspace(0.005, 0.04, 6)):
        cycles = rng.geometric(p * p / 0.015, size=31 + 2 * i)
        if i in (1, 4):
            cycles = cycles[:0]
        p_log = float(p * p / 0.015) if i in (1, 4) else 1.0 / cycles.mean()
        points.append(SweepPoint(p=float(p), p_log=p_log, ci_low=p_log, ci_high=p_log,
                                 n_trials=60, n_censored=0, n_failures=60,
                                 mean_cycles=1.0 / p_log, failure_cycles=tuple(cycles)))
    sizes = []
    real = kernel.resample_sums
    monkeypatch.setattr(kernel, "resample_sums",
                        lambda *a: sizes.append(list(a[3])) or real(*a))
    in_kernel = find_threshold_crossing(points, n_bootstrap=300, seed=2**32 + 9)
    assert sizes == [[31, 35, 37, 41]]
    monkeypatch.setattr(kernel, "library", lambda: None)
    assert find_threshold_crossing(points, n_bootstrap=300, seed=2**32 + 9) == in_kernel
    assert in_kernel.ci[0] < in_kernel.p_th < in_kernel.ci[1]

def test_negative_master_seed_raises_trial_seeds_error(monkeypatch):
    """A negative master seed raises ``trial_seed``'s ``ValueError`` in the
    kernel as in the Python loop."""
    kernel_library()
    args = (BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 10, -1)
    errors = []
    for kernel_trials in (_kernel_trials, lambda *a: None):
        monkeypatch.setattr(montecarlo, "_kernel_trials", kernel_trials)
        with pytest.raises(ValueError) as caught:
            estimate_logical_error_rate(*args, engine="frame")
        errors.append(str(caught.value))
    with pytest.raises(ValueError) as caught:
        trial_seed(-1, 0, 0)
    assert errors == [str(caught.value)] * 2


@pytest.mark.parametrize("n_words", range(1, 10))
def test_seed_sequence_hash_matches_numpy(n_words):
    """The kernel's ``SeedSequence`` gives numpy's ``generate_state`` for
    entropy of 1 to 9 words, past the pool of 4 too, on the words 0 and
    2**32-1 and on random words."""
    lib = kernel_library()
    rng = np.random.default_rng(n_words)
    entropies = [[0] * n_words, [2**32 - 1] * n_words,
                 *(rng.integers(0, 2**32, n_words, dtype=np.uint64).tolist()
                   for _ in range(20))]
    for entropy in entropies:
        expected = np.random.SeedSequence(np.array(entropy, np.uint32)).generate_state(
            11, np.uint32).tolist()
        assert seed_state(lib, entropy, 11) == expected, entropy


def test_pcg64_seeding_matches_numpy():
    """``PCG64(seed)`` seeded in C from integers that hash one word (0, 1,
    2**32-1: a random trial seed is one of those with probability 2**-32)
    or two."""
    lib = kernel_library()
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15):
        assert pcg64_state(lib, seed) == list(kernel.state_words(
            np.random.PCG64(seed).state)), seed


def test_block_seeding_matches_trial_seed():
    """Each trial of a block starts from ``PCG64(trial_seed(master, point,
    trial))``: master seeds of 1 to 4 words, points of 1 and 2, and trial
    indices of 1 and 2 words."""
    lib = kernel_library()
    indices = [0, 1, 2, 1099, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]
    for master in (0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 7):
        for point in (0, 7, 2**32 - 1, 2**32 + 3):
            expected = [list(kernel.state_words(np.random.PCG64(
                trial_seed(master, point, t)).state)) for t in indices]
            assert trial_states(lib, master, point, indices) == expected, (master, point)


# (code, variant, p) of the benchmark's workloads; bf-sweep's grid is
# represented by a point near criterion 1's threshold
WORKLOAD_RATES = [("surface17", Variant.PERFECT, 4.2e-5),
                  ("surface17", Variant.SIMPLIFIED, 1.3e-4),
                  ("bf", Variant.SIMPLIFIED, 0.0139)]


def _boundary_draws(log_clean, cdf) -> list:
    """Draws u = k·2**-53 at the edges of the kernel's shortcuts: 64 steps
    of the grid on either side of each u whose clean run is exactly m
    cycles, -expm1(m·log_clean) for m = 1 ... 2000 (clamped to the grid),
    the grid's ends, and count_cdf[0] and the draw just below it."""
    edges = [round(-math.expm1(m * log_clean) * 2**53) for m in range(1, 2001)]
    ks = {min(max(k + d, 0), 2**53 - 1) for k in edges for d in range(-64, 65)}
    us = {k * 2**-53 for k in ks} | {0.0, 1.0 - 2**-53, cdf[0], math.nextafter(cdf[0], 0.0)}
    return sorted(us)


@pytest.mark.parametrize("name,variant,p", WORKLOAD_RATES)
def test_clean_draws_match_the_python_samplers(name, variant, p):
    """The kernel's clean run length and error count of a draw u equal
    ``sample_clean_run_length``'s ``floor(log1p(-u) / log_clean)`` and
    ``sample_error_count_given_any``'s ``bisect_right(cdf, u) + 1`` at the
    edges of its shortcuts, the certified ``log`` window and the one-compare
    count.  Draws near an integer run length take the fallback."""
    lib = kernel_library()
    n_sites = montecarlo._site_count(circuit_for(name, variant))
    log_clean = clean_cycle_log_probability(p, n_sites)
    cdf = error_count_cdf(p, n_sites)
    us = _boundary_draws(log_clean, cdf)
    assert all(u * 2**53 == int(u * 2**53) for u in us)  # the draws' grid
    runs, counts, fallbacks = clean_draws(lib, montecarlo.kernel_rate(p, n_sites), us)
    assert runs == [math.floor(math.log1p(-u) / log_clean) for u in us]
    assert counts == [bisect_right(cdf, u) + 1 for u in us]
    assert 1 <= fallbacks < len(us) // 2, (fallbacks, len(us))


@pytest.mark.parametrize("log_clean", [0.0, -0.0, -5e-324, -1e-310])
def test_clean_draws_of_a_degenerate_rate_take_the_fallback(log_clean):
    """A zero or subnormal log_clean, whose inverse overflows, makes the
    window's product NaN or infinite: every run length is the fallback's
    quotient, in IEEE arithmetic."""
    lib = kernel_library()
    cdf = error_count_cdf(4.2e-5, 675)
    us = [0.0, 2**-53, 0.5, 1.0 - 2**-53]
    rate = kernel.pack_rate(log_clean, cdf, 0.5, 0.5, 0.5**675, 1, False)
    runs, _, fallbacks = clean_draws(lib, rate, us)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expected = [float(np.floor(np.float64(math.log1p(-u)) / np.float64(log_clean)))
                    for u in us]
    assert np.array_equal(runs, expected, equal_nan=True), (runs, expected)
    assert fallbacks == len(us)


def test_kernel_source_compiles_without_warnings(tmp_path):
    """``_kernel.c`` builds with the production flags plus ``-Wall -Wextra
    -Werror``: no implicit conversion or sign comparison slips into the
    unsigned seeding arithmetic."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path / "kernel.so"
    proc = subprocess.run(["gcc", *kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(out), str(kernel.SOURCE), "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_kernel_runs_only_plain_frame_trials():
    """The tableau, a proxy around the frame engine, p = 0 and min(p, 1-p)·N
    over 30 keep the Python loop; a config ``TrialConfig`` rejects raises
    its error."""
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    frame = make_engine(circ, "frame")
    with pytest.raises(ValueError, match="p must be"):
        _kernel_trials(frame, 1.0, 100)
    with pytest.raises(ValueError, match="max_cycles"):
        _kernel_trials(frame, 0.05, 0)
    assert _kernel_trials(make_engine(circ, "tableau"), 0.05, 100) is None
    assert _kernel_trials(_Recorder(frame, []), 0.05, 100) is None
    assert _kernel_trials(frame, 0.0, 100) is None
    big = circuit_for("surface17", Variant.PERFECT)
    assert _kernel_trials(make_engine(big, "frame"), 0.95, 100) is None


def _packed_digest(packed) -> str:
    """sha256 of a ``kernel.Circuit``'s rows and masks: each cycle's op rows
    and site rows, the generators, the site count and both masks."""
    words = []
    for cyc in packed.cycle:
        words.append(cyc.ops[:4 * cyc.n_ops])
        words.append(cyc.sites[:5 * packed.n_sites])
    words.append(packed.gens[:2 * packed.n_gens])
    words.append([packed.n_sites, packed.zl_mask, packed.nondata_mask])
    return hashlib.sha256(json.dumps(words).encode()).hexdigest()


KERNEL_CIRCUIT_DIGESTS = {
    ("bf", Variant.SIMPLIFIED):
        "3b8e157d01cf970812d1b363b3ec7b3310f7569d4e87272494b73848d797622b",
    ("bf", Variant.PERFECT):
        "eb43d298023b3a6de858a763dd8f39fbb545aa55ace4e5666edd3de4b495b24e",
    ("surface17", Variant.SIMPLIFIED):
        "7f475b4dc76e658659ed130c2d52ce4d52a0fed8d923590593e4918bd1d8072b",
    ("surface17", Variant.PERFECT):
        "23e75c796d4a051bf77eda1095d9132d17705c6d5b2a3cc959ee7744bf67670a",
    ("unencoded", Variant.NONE):
        "9f699cebcea2802b670b5431929cf8f14ba75cddac37897628d39c22d9d7f8f0",
}


@pytest.mark.parametrize("name,variant", list(KERNEL_CIRCUIT_DIGESTS))
def test_kernel_circuit_digests(name, variant):
    """The compiled cycles the kernel runs, pinned for every circuit: a
    change to how the frame engine compiles a cycle must leave its rows
    as they are."""
    packed = make_engine(circuit_for(name, variant), "frame").kernel_circuit()
    assert _packed_digest(packed) == KERNEL_CIRCUIT_DIGESTS[name, variant]


# Table rows of every circuit, both cycles together: one fresh row per
# single fault on the clean frame, and one idle row per zero-event cycle on
# the noiseless orbits of all of them.
FRESH_ROWS = {
    ("bf", Variant.SIMPLIFIED): 598,
    ("bf", Variant.PERFECT): 1402,
    ("surface17", Variant.SIMPLIFIED): 3562,
    ("surface17", Variant.PERFECT): 8570,
    ("unencoded", Variant.NONE): 6,
}
ORBIT_ENTRIES = {
    ("bf", Variant.SIMPLIFIED): 494,
    ("bf", Variant.PERFECT): 548,
    ("surface17", Variant.SIMPLIFIED): 3230,
    ("surface17", Variant.PERFECT): 2376,
    ("unencoded", Variant.NONE): 0,
}

# The kernel's class codes, in the order of its enum.
CLASS_CODES = {Classification.CLEAN_ZERO: 0, Classification.LOGICAL_FLIP: 1,
               Classification.RESIDUAL: 2}


def _single_faults(site):
    """Every non-identity Pauli of ``site`` as letters, by ascending base-4
    index (first qubit most significant), the order of the kernel's fresh
    rows; an init site has X alone."""
    if site.channel is ErrorChannel.INIT:
        return [("X",)]
    k = len(site.qubits)
    return [tuple("IXYZ"[index >> 2 * (k - 1 - j) & 3] for j in range(k))
            for index in range(1, 4 ** k)]


def test_kernel_tables_equal_the_transitions():
    """Every row of the tables the kernel packs is what ``_transition``
    computes from the ops.  Each single fault on the clean frame has its
    fresh row, in site order from each site's ``fresh_base`` and in Pauli
    index order; the idle rows are exactly the zero-event cycles on those
    faults' noiseless orbits, walked here, alternating the cycles, up to
    clean, a logical flip or a (cycle, frame) pair already walked."""
    kernel_library()
    for (name, variant), orbit_entries in ORBIT_ENTRIES.items():
        circ = circuit_for(name, variant)
        engine = _FrameEngine(circ)

        def transition(selector, fx, fz, events):
            fx, fz, cls = engine._transition(selector, fx, fz, events)
            return fx, fz, CLASS_CODES[cls]

        packed = engine.kernel_circuit()
        tables = kernel.read_tables(packed)
        closure = {"a": {}, "b": {}}
        for cyc, selector, (faults, _) in zip(packed.cycle, "ab", tables):
            sites = circ.error_sites(selector)
            expected = [[transition(selector, 0, 0, [ErrorEvent(site, letters)])
                         for letters in _single_faults(site)] for site in sites]
            assert faults == expected, name
            bases = np.cumsum([0] + [site.n_paulis for site in sites])
            assert cyc.fresh_base[:len(sites)] == bases[:-1].tolist()
            assert cyc.n_fresh == bases[-1]
            for fx, fz, cls in (row for rows in faults for row in rows):
                at = selector
                while cls == CLASS_CODES[Classification.RESIDUAL]:
                    at = "b" if at == "a" else "a"
                    if (fx, fz) in closure[at]:
                        break
                    out = closure[at][fx, fz] = transition(at, fx, fz, ())
                    fx, fz, cls = out
        for cyc, selector, (_, idle) in zip(packed.cycle, "ab", tables):
            assert idle == closure[selector], name
            assert cyc.n_idle == len(idle) <= (cyc.idle_mask + 1) // 2
        assert sum(cyc.n_fresh for cyc in packed.cycle) == FRESH_ROWS[name, variant]
        assert sum(cyc.n_idle for cyc in packed.cycle) == orbit_entries


def _idle_slots(cyc) -> list:
    """Every idle slot of the packed cycle ``cyc``, ``kernel.IDLE_ROW``
    words each, empty ones included."""
    slots = cyc.idle[:kernel.IDLE_ROW * (cyc.idle_mask + 1)]
    return [slots[r:r + kernel.IDLE_ROW] for r in range(0, len(slots), kernel.IDLE_ROW)]


def test_residual_rows_link_to_the_other_cycles_idle_row_of_their_result():
    """On every circuit, each RESIDUAL fresh and idle row's class word holds
    slot + 1 of the other cycle's idle row keyed by the row's result frame,
    a row of the final, grown table; no CLEAN or FLIP row has a link, and
    an empty idle slot stays all zero."""
    kernel_library()
    residual = CLASS_CODES[Classification.RESIDUAL]
    class_mask = (1 << kernel.LINK_SHIFT) - 1
    for name, variant in ORBIT_ENTRIES:
        packed = _FrameEngine(circuit_for(name, variant)).kernel_circuit()
        links = 0
        for s, cyc in enumerate(packed.cycle):
            other = _idle_slots(packed.cycle[1 - s])
            fresh = cyc.fresh[:kernel.FRESH_ROW * cyc.n_fresh]
            idle = _idle_slots(cyc)
            results = [fresh[r:r + kernel.FRESH_ROW]
                       for r in range(0, len(fresh), kernel.FRESH_ROW)]
            results += [row[2:] for row in idle if row[0] | row[1]]
            for fx, fz, word in results:
                slot = word >> kernel.LINK_SHIFT
                if word & class_mask != residual:
                    assert slot == 0, name
                    continue
                assert 1 <= slot <= len(other), name
                assert other[slot - 1][:2] == [fx, fz], name
                links += 1
            assert all(not any(row) for row in idle if not row[0] | row[1]), name
        assert (links > 0) == (name != "unencoded"), name


def test_idle_tables_grow_within_one_fill(monkeypatch):
    """An idle table about to pass half full moves to one of twice its
    slots and the fill goes on, so one ``mfqec_fill_tables`` call fills
    the tables whatever size they start from: from 2 slots they are the
    tables filled from the default start, of the same final size."""
    lib = kernel_library()
    calls = []
    real = lib.mfqec_fill_tables
    monkeypatch.setattr(lib, "mfqec_fill_tables", lambda *a: calls.append(1) or real(*a))
    start = kernel._IDLE_SLOTS
    for name, variant in [("surface17", Variant.PERFECT), ("bf", Variant.SIMPLIFIED)]:
        circ = circuit_for(name, variant)
        packed = []
        for slots in (start, 2):
            monkeypatch.setattr(kernel, "_IDLE_SLOTS", slots)
            packed.append(_FrameEngine(circ).kernel_circuit())
        default, small = packed
        assert kernel.read_tables(small) == kernel.read_tables(default)
        for a, b in zip(small.cycle, default.cycle):
            assert (a.idle_mask, a.n_idle) == (b.idle_mask, b.n_idle)
            assert 2 * a.n_idle <= a.idle_mask + 1 <= 4 * (a.n_idle + 1)
    assert len(calls) == 4


def test_an_idle_table_that_cannot_grow_raises_memory_error(monkeypatch):
    """An allocation that fails while the fill runs, past the first
    doubling, ends the fill: ``fill_tables`` raises ``MemoryError``, and the
    engine keeps no circuit."""
    kernel_library()
    real = kernel._idle_table

    def small_only(slots):
        if slots > 2 * kernel._IDLE_SLOTS:
            raise MemoryError
        return real(slots)

    monkeypatch.setattr(kernel, "_idle_table", small_only)
    engine = _FrameEngine(circuit_for("surface17", Variant.PERFECT))
    with pytest.raises(MemoryError, match="larger idle table"):
        engine.kernel_circuit()
    assert engine._packed is None


def test_estimates_share_one_circuit_filled_once(monkeypatch):
    """Two estimates on one engine run on the one circuit it packs, whose
    tables are filled once, in the calling thread; a fill that fails
    raises before any thread pool starts, and fresh-row counts that do not
    match the sites' Paulis make the fill fail."""
    kernel_library()
    circ = circuit_for("bf", Variant.PERFECT)
    monkeypatch.delitem(circ.engines, "frame", raising=False)
    fills, circuits = [], []
    real_fill, real_block = kernel.fill_tables, kernel.skip_block

    def fill(*args):
        fills.append(threading.current_thread())
        real_fill(*args)

    def block(lib, circuit, *args):
        circuits.append(circuit)
        return real_block(lib, circuit, *args)

    monkeypatch.setattr(kernel, "fill_tables", fill)
    monkeypatch.setattr(kernel, "skip_block", block)
    for seed in (1, 2):
        estimate_logical_error_rate(BIT_FLIP_CODE, Variant.PERFECT, 0.02, 40, seed,
                                    workers=2)
    packed = make_engine(circ, "frame").kernel_circuit()
    assert fills == [threading.current_thread()]
    assert circuits and all(c is packed for c in circuits)

    monkeypatch.delitem(circ.engines, "frame")
    pools = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda *a, **k: pools.append(1))

    def failing_fill(lib, packed, fresh_rows):
        real_fill(lib, packed, [rows + 1 for rows in fresh_rows])

    monkeypatch.setattr(kernel, "fill_tables", failing_fill)
    with pytest.raises(ValueError, match="fresh rows"):
        estimate_logical_error_rate(BIT_FLIP_CODE, Variant.PERFECT, 0.02, 40, 1,
                                    workers=2)
    assert not pools and make_engine(circ, "frame")._packed is None


_BUILD = """
import sys
from mfqec import kernel
print(kernel.load(sys.argv[1])._name)
"""


def test_two_processes_build_into_one_directory_at_once(tmp_path):
    """Two processes that find no library build it at the same time: both
    load the one file, and no temporary file is left behind."""
    kernel_library()
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [subprocess.Popen([sys.executable, "-c", _BUILD, str(tmp_path)], env=env,
                              stdout=subprocess.PIPE, text=True) for _ in range(2)]
    names = [proc.communicate(timeout=300)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    path = kernel.library_path(tmp_path)
    assert names == [str(path)] * 2
    assert os.listdir(tmp_path) == [path.name]


_NO_COMPILER = """
import json, sys, warnings
from mfqec import kernel
from mfqec.circuits import Variant
from mfqec.codes import BIT_FLIP_CODE
from mfqec.montecarlo import estimate_logical_error_rate
from mfqec.threshold import find_threshold_crossing, iter_sweep
kernel.BUILD_DIR = kernel.Path(sys.argv[1])
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    est = estimate_logical_error_rate(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 50, 9,
                                      engine="frame")
    points = list(iter_sweep(BIT_FLIP_CODE, Variant.SIMPLIFIED, THRESHOLD_GRID, 60, 9,
                             engine="frame"))
    threshold = find_threshold_crossing(points, n_bootstrap=200, seed=3)
print(json.dumps({"estimate": repr(est), "points": repr(points),
                  "threshold": repr(threshold), "kernel": kernel.library() is not None,
                  "warnings": [w.category.__name__ for w in caught]}))
"""
THRESHOLD_GRID = [0.008, 0.016, 0.032]


def test_estimate_without_a_compiler_runs_in_python(tmp_path):
    """With no ``gcc`` on PATH and no library built, an estimate warns once,
    runs its trials and both bootstraps in Python, and gives the very
    estimate, sweep points and ``ThresholdEstimate`` the kernel
    gives."""
    kernel_library()
    env = dict(os.environ, PYTHONPATH=SRC, PATH=str(tmp_path))
    script = _NO_COMPILER.replace("THRESHOLD_GRID", repr(THRESHOLD_GRID))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "build")],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    got = json.loads(out.stdout)
    expected = estimate_logical_error_rate(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 50, 9,
                                           engine="frame")
    points = list(iter_sweep(BIT_FLIP_CODE, Variant.SIMPLIFIED, THRESHOLD_GRID, 60, 9,
                             engine="frame"))
    threshold = find_threshold_crossing(points, n_bootstrap=200, seed=3)
    assert got == {"estimate": repr(expected), "points": repr(points),
                   "threshold": repr(threshold), "kernel": False,
                   "warnings": ["RuntimeWarning"]}
    assert not (tmp_path / "build").exists() or not os.listdir(tmp_path / "build")


_SETUP = """
import sys
import mfqec.cli
from mfqec.circuits import Variant, build_circuit
from mfqec.montecarlo import make_engine
make_engine(build_circuit("surface17", Variant.PERFECT), "frame")
print(sorted(m for m in sys.modules if m.startswith("mfqec")))
"""


def test_setup_does_not_load_the_kernel():
    """Import, ``build_circuit`` and ``make_engine`` neither build nor load
    the kernel: its module is imported on the first kernel trial."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _SETUP], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert "mfqec.kernel" not in out and "mfqec.montecarlo" in out
