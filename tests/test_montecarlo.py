"""Monte Carlo machinery tests.

Classification is checked against hand-prepared tableau states, single
faults against hand-derived recovery timelines, the fast Pauli-frame
engine against the reference tableau engine trial-for-trial, and the
skip-ahead sampler against full per-cycle simulation distributionally.
"""

import concurrent.futures
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats

from mfqec import kernel, montecarlo
from mfqec.circuits import Variant, build_circuit, enumerate_error_sites
from mfqec.codes import BIT_FLIP_CODE, SURFACE17_CODE, UNENCODED
from mfqec.errors import ErrorChannel, ErrorEvent, draw_event_paulis
from mfqec.montecarlo import (
    AllCensored,
    Classification,
    FaultOutcome,
    TrialConfig,
    TrialResult,
    _FrameEngine,
    aggregate_rate_estimate,
    circuit_for,
    classify_state,
    estimate_logical_error_rate,
    make_engine,
    percentile_ci,
    prepare_logical_zero,
    run_single_fault,
    run_trial,
    trial_seed,
)
from mfqec.pauli import PauliOperator
from mfqec.tableau import Sign
from kernelhooks import kernel_draws, kernel_library


def _pauli(n, xs=(), zs=()):
    x = np.zeros(n, np.uint8)
    z = np.zeros(n, np.uint8)
    x[list(xs)] = 1
    z[list(zs)] = 1
    return PauliOperator(x, z)


LETTERS = ("I", "X", "Y", "Z")


def _all_paulis(site):
    if site.channel is ErrorChannel.INIT:
        return [("X",)]
    combos = []
    for combo in product(LETTERS, repeat=len(site.qubits)):
        if set(combo) != {"I"}:
            combos.append(combo)
    return combos


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_trial_config_validation():
    ok = TrialConfig(0.1, seed=1)
    assert ok.max_cycles == 10_000_000
    with pytest.raises(ValueError, match="p must be"):
        TrialConfig(-0.1, seed=1)
    with pytest.raises(ValueError, match="p must be"):
        TrialConfig(1.0, seed=1)
    with pytest.raises(ValueError, match="max_cycles"):
        TrialConfig(0.1, seed=1, max_cycles=0)


def test_noiseless_trial_is_censored():
    cfg = TrialConfig(0.0, seed=7, max_cycles=50)
    engine = make_engine(circuit_for("bf", Variant.SIMPLIFIED), "tableau")
    assert run_trial(cfg, engine) == TrialResult(50, True)


def test_run_trial_rejects_unknown_method():
    cfg = TrialConfig(0.1, seed=1)
    engine = make_engine(circuit_for("bf", Variant.SIMPLIFIED), "tableau")
    with pytest.raises(ValueError, match="skip.*full"):
        run_trial(cfg, engine, method="bogus")


def test_make_engine():
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    tab = make_engine(circ, "tableau")
    frame = make_engine(circ, "frame")
    assert tab.name == "tableau"
    assert frame.name == "frame"
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine(circ, frame)  # engines are named, not passed through
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine(circ, "statevector")


# ---------------------------------------------------------------------------
# state classification
# ---------------------------------------------------------------------------


def test_classify_fresh_state_is_clean():
    for name, variant in [
        ("bf", Variant.SIMPLIFIED),
        ("bf", Variant.PERFECT),
        ("surface17", Variant.SIMPLIFIED),
        ("surface17", Variant.PERFECT),
        ("unencoded", Variant.NONE),
    ]:
        circ = circuit_for(name, variant)
        tab = prepare_logical_zero(circ)
        assert classify_state(tab, circ.code) is Classification.CLEAN_ZERO


def test_classify_bf_cases():
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    n = circ.n_qubits

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=(0, 1, 2)))  # logical X
    assert classify_state(tab, circ.code) is Classification.LOGICAL_FLIP

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=(0,)))  # one data flip
    assert classify_state(tab, circ.code) is Classification.RESIDUAL

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=(1,), zs=(1,)))  # Y on data
    assert classify_state(tab, circ.code) is Classification.RESIDUAL

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=(3,)))  # flipped ancilla
    assert classify_state(tab, circ.code) is Classification.RESIDUAL

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, zs=(0, 1)))  # a Z-stabilizer: invisible
    assert classify_state(tab, circ.code) is Classification.CLEAN_ZERO


def test_classify_surface17_cases():
    circ = circuit_for("surface17", Variant.SIMPLIFIED)
    n = circ.n_qubits
    code = circ.code

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=code.logical_x))
    assert classify_state(tab, code) is Classification.LOGICAL_FLIP

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=(0,)))
    assert classify_state(tab, code) is Classification.RESIDUAL

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, zs=(0,)))  # lone phase flip
    assert classify_state(tab, code) is Classification.RESIDUAL

    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(n, xs=code.x_stabilizers[1]))  # a stabilizer
    assert classify_state(tab, code) is Classification.CLEAN_ZERO


def test_classify_unencoded_cases():
    circ = circuit_for("unencoded", Variant.NONE)
    tab = prepare_logical_zero(circ)
    tab.apply_pauli(_pauli(1, zs=(0,)))  # Z|0> = |0>
    assert classify_state(tab, UNENCODED) is Classification.CLEAN_ZERO
    tab.apply_pauli(_pauli(1, xs=(0,)))
    assert classify_state(tab, UNENCODED) is Classification.LOGICAL_FLIP


# ---------------------------------------------------------------------------
# single-fault behavior
# ---------------------------------------------------------------------------


def test_single_data_flip_recovery_timelines():
    """An X on data qubit 0 during step 1 needs two consecutive firings of
    the same stabilizer, so it is fixed in cycle 2; the ancilla banks then
    take until cycle 4 to drain in the simplified variant but only until
    cycle 3 with erasure, whose removal reset lands in cycle 3."""
    R, C = Classification.RESIDUAL, Classification.CLEAN_ZERO
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    site = enumerate_error_sites(circ, "a")[0]
    assert site.qubits == (0,) and site.step == 1
    out = run_single_fault(circ, site, ("X",))
    assert out == FaultOutcome(False, 4, (R, R, R, C))

    circ = circuit_for("bf", Variant.PERFECT)
    site = enumerate_error_sites(circ, "a")[0]
    out = run_single_fault(circ, site, ("X",))
    assert out == FaultOutcome(False, 3, (R, R, C))


@pytest.mark.parametrize(
    "variant,expected_stuck",
    [(Variant.PERFECT, 0), (Variant.SIMPLIFIED, 16)],
)
def test_bf_exhaustive_single_faults(variant, expected_stuck):
    """No single fault may cause a logical flip.  Faults on the correction
    gates themselves can leave a self-sustaining syndrome/error cycle when
    syndromes are not erased; with erasure every fault drains."""
    circ = circuit_for("bf", variant)
    total = flips = 0
    stuck = []
    for which in ("a", "b"):
        for site in enumerate_error_sites(circ, which):
            for paulis in _all_paulis(site):
                out = run_single_fault(circ, site, paulis, selector=which)
                total += 1
                flips += out.flipped
                if not out.flipped and out.clean_after == 0:
                    stuck.append(site)
    assert flips == 0
    assert len(stuck) == expected_stuck
    assert total == (1402 if variant is Variant.PERFECT else 598)
    # every stuck fault sits on a correction gate
    assert all(s.channel is ErrorChannel.THREE_QUBIT for s in stuck)


def test_surface17_data_memory_faults_never_flip():
    for variant in (Variant.PERFECT, Variant.SIMPLIFIED):
        circ = circuit_for("surface17", variant)
        data_sites = [
            s
            for s in enumerate_error_sites(circ, "a")
            if s.step == 1 and s.qubits[0] < 9
        ]
        assert len(data_sites) == 9
        for site in data_sites:
            for paulis in (("X",), ("Y",), ("Z",)):
                out = run_single_fault(circ, site, paulis)
                assert not out.flipped
                assert out.clean_after > 0


def test_single_fault_stops_early_and_reports_trace():
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    site = enumerate_error_sites(circ, "a")[0]
    out = run_single_fault(circ, site, ("Z",))  # Z on data is invisible
    assert out == FaultOutcome(False, 1, (Classification.CLEAN_ZERO,))

    # a stuck fault runs the full follow window: flipping both controls
    # and the target of the same-cycle correction re-arms the syndrome
    # pattern that fires it, cycle after cycle
    stuck_site = next(
        s
        for s in enumerate_error_sites(circ, "a")
        if s.channel is ErrorChannel.THREE_QUBIT and s.step == 4
    )
    out = run_single_fault(circ, stuck_site, ("X", "X", "X"), follow_cycles=6)
    assert out.clean_after == 0 and not out.flipped
    assert len(out.classifications) == 7
    assert all(c is Classification.RESIDUAL for c in out.classifications)


def test_single_fault_engines_agree():
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    for which in ("a", "b"):
        for site in enumerate_error_sites(circ, which):
            for paulis in _all_paulis(site):
                ref = run_single_fault(circ, site, paulis, selector=which)
                fast = run_single_fault(
                    circ, site, paulis, selector=which, engine="frame"
                )
                assert ref == fast, (which, site, paulis)


# ---------------------------------------------------------------------------
# engine equivalence and sampling method equivalence
# ---------------------------------------------------------------------------

TRIAL_BUDGETS = [
    ("bf", Variant.SIMPLIFIED, 0.05),
    ("bf", Variant.PERFECT, 0.02),
    ("surface17", Variant.SIMPLIFIED, 0.003),
    ("surface17", Variant.PERFECT, 0.002),
]


@pytest.mark.parametrize("name,variant,p", TRIAL_BUDGETS)
def test_frame_engine_matches_tableau_per_trial(name, variant, p):
    """Both engines consume the same error stream, so every seeded trial
    must give the identical cycles-to-failure."""
    circ = circuit_for(name, variant)
    tab = make_engine(circ, "tableau")
    frame = make_engine(circ, "frame")
    for seed in range(10):
        cfg = TrialConfig(p, seed=seed, max_cycles=20_000)
        assert run_trial(cfg, engine=tab) == run_trial(cfg, engine=frame)


def _random_events(circ, selector, k, rng, pool=None):
    sites = circ.error_sites(selector)
    chosen = rng.choice(len(sites) if pool is None else pool, size=k, replace=False)
    return [ErrorEvent(sites[i], draw_event_paulis(sites[i].channel, rng))
            for i in chosen]


@pytest.mark.parametrize("name,variant", [b[:2] for b in TRIAL_BUDGETS])
def test_frame_cycle_matches_tableau_from_any_frame(name, variant):
    """From any Pauli frame P on the clean state, one frame-engine cycle
    leaves the state the tableau reaches from P|clean>: every stabilizer of
    the clean state (generators, logical Z, ancilla Z's) carries the sign
    the resulting frame implies."""
    circ = circuit_for(name, variant)
    n = circ.n_qubits
    clean_stabilizers = (list(circ.code.generators(n)) + [circ.code.logical_z_pauli(n)]
                         + [_pauli(n, zs=(q,)) for q in range(circ.code.n_data, n)])
    tableau = make_engine(circ, "tableau")
    frame = make_engine(circ, "frame")
    rng = np.random.default_rng(11)
    for _ in range(40):
        selector = "ab"[int(rng.integers(2))]
        fx, fz = ((int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                  if rng.random() < 0.7 else (0, 0))
        events = _random_events(circ, selector, int(rng.integers(4)), rng)
        tab = prepare_logical_zero(circ)
        tab.apply_pauli(_pauli(n, xs=[q for q in range(n) if fx >> q & 1],
                               zs=[q for q in range(n) if fz >> q & 1]))
        expected = tableau.run_cycle(tab, selector, events)
        state = [fx, fz]
        assert frame.run_cycle(state, selector, events) is expected
        after = _pauli(n, xs=[q for q in range(n) if state[0] >> q & 1],
                       zs=[q for q in range(n) if state[1] >> q & 1])
        for s in clean_stabilizers:
            anticommutes = int(s.x @ after.z + s.z @ after.x) & 1
            assert tab.deterministic_sign(s) is (Sign.MINUS if anticommutes
                                                 else Sign.PLUS)


@pytest.mark.parametrize("name,variant,p", TRIAL_BUDGETS)
def test_warm_frame_engine_matches_fresh_engines(name, variant, p):
    """A frame engine that ran trials, and so reads the kernel's tables,
    gives, call for call, the classification and frame that a fresh
    engine's ``_transition`` computes from the ops: on table hits of both
    kinds, on multi-event cycles and on events on a residual frame."""
    kernel_library()
    circ = circuit_for(name, variant)
    n = circ.n_qubits
    warm = _FrameEngine(circ)
    for seed in range(20):
        run_trial(TrialConfig(p, seed=seed, max_cycles=20_000), engine=warm)
    fresh = _FrameEngine(circ)

    rng = np.random.default_rng(2024)
    # a few sites per cycle, so that single faults on the clean frame repeat
    pool = rng.choice(len(circ.error_sites("a")), size=6, replace=False)
    state = warm.new_run()
    seen = {"idle hit": 0, "fresh hit": 0, "multi-event": 0, "residual noisy": 0}
    for _ in range(300):
        selector = "ab"[int(rng.integers(2))]
        k = int(rng.choice([0, 0, 0, 1, 1, 2, 3]))
        events = _random_events(circ, selector, k, rng, pool)
        before = list(state)
        fx, fz, expected = fresh._transition(selector, *before, events)
        assert warm.run_cycle(state, selector, events) is expected
        assert state == [fx, fz]
        faults, idle = warm._tables[selector]
        if len(events) >= 2 or (events and any(before)):
            seen["multi-event" if len(events) >= 2 else "residual noisy"] += 1
        elif events:
            ev = events[0]
            key = warm._compiled[selector][2][ev.site] << 6 | montecarlo._PAULI_INDEX[ev.paulis]
            seen["fresh hit"] += key in faults
        else:
            seen["idle hit"] += (before[0] << n | before[1]) in idle
        if expected is Classification.LOGICAL_FLIP or rng.random() < 0.1:
            state[:] = warm.new_run()
    assert all(seen.values()), seen


@pytest.mark.parametrize("name,variant,p", [TRIAL_BUDGETS[0], TRIAL_BUDGETS[2]])
def test_frame_engine_without_the_kernel_runs_the_same_trials(monkeypatch, name,
                                                              variant, p):
    """Where the kernel does not load, a fresh frame engine reads no tables
    and runs every cycle's ops; its trials end where those of an engine
    that read the tables end."""
    kernel_library()
    circ = circuit_for(name, variant)
    cfgs = [TrialConfig(p, seed=seed, max_cycles=20_000) for seed in range(12)]
    with_tables = _FrameEngine(circ)
    expected = [run_trial(cfg, engine=with_tables) for cfg in cfgs]
    assert all(faults and idle for faults, idle in with_tables._tables.values())
    monkeypatch.setattr(kernel, "library", lambda: None)
    without = _FrameEngine(circ)
    assert [run_trial(cfg, engine=without) for cfg in cfgs] == expected
    assert not any(faults or idle for faults, idle in without._tables.values())


def test_run_trial_takes_the_circuit_from_an_engine(monkeypatch):
    cfg = TrialConfig(0.05, seed=3)
    engine = make_engine(circuit_for("bf", Variant.SIMPLIFIED), "frame")
    expected = run_trial(cfg, engine=engine)

    def no_lookup(*args):
        raise AssertionError("circuit_for called with an engine in hand")

    monkeypatch.setattr(montecarlo, "circuit_for", no_lookup)
    assert run_trial(cfg, engine=engine) == expected


def test_estimate_rejects_a_code_under_variant_none():
    with pytest.raises(ValueError):
        estimate_logical_error_rate(BIT_FLIP_CODE, Variant.NONE, 0.05, 4, 0,
                                    engine="frame")


def test_make_engine_keeps_one_engine_per_circuit():
    """``make_engine`` hands every caller the one engine of a circuit
    object."""
    circ = circuit_for("bf", Variant.PERFECT)
    for name in ("frame", "tableau"):
        engine = make_engine(circ, name)
        assert make_engine(circ, name) is engine and engine.circuit is circ
    other = build_circuit("bf", Variant.PERFECT)
    assert make_engine(other, "frame") is not make_engine(circ, "frame")
    assert make_engine(other, "frame").circuit is other


_FRESH_ESTIMATE = """
import sys
from mfqec.circuits import Variant
from mfqec.codes import CODES
from mfqec.montecarlo import estimate_logical_error_rate
code, variant, p, trials = sys.argv[1], Variant(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
print(repr(estimate_logical_error_rate(CODES[code], variant, p, trials, 9,
                                       point_index=3, engine="frame")))
"""


@pytest.mark.parametrize("name,variant,p,trials", [
    ("bf", Variant.SIMPLIFIED, 0.03, 200),
    ("surface17", Variant.SIMPLIFIED, 0.003, 20),
])
def test_estimate_after_other_estimates_matches_a_fresh_process(name, variant, p, trials):
    """Engine reuse cannot change results: an estimate run after estimates
    at other p on the same circuit, serially and with pool workers, equals
    as a whole the same estimate in a fresh interpreter."""
    code = circuit_for(name, variant).code
    for i, other in enumerate((p / 2, p * 2)):
        estimate_logical_error_rate(code, variant, other, trials, 9, point_index=i,
                                    engine="frame")
    warm = [estimate_logical_error_rate(code, variant, p, trials, 9, point_index=3,
                                        engine="frame", workers=workers)
            for workers in (1, 2)]
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_ESTIMATE, name, variant.value, repr(p), str(trials)],
        capture_output=True, text=True, check=True, timeout=300, env=env).stdout
    assert [repr(est) for est in warm] == [out.strip()] * 2


# error sites per cycle of every circuit: unencoded, bf simplified and
# perfect, surface17 simplified and perfect
SITE_COUNTS = (1, 25, 77, 223, 675)


def test_site_counts_cover_every_circuit():
    counts = {
        len(circuit_for(name, variant).error_sites(which))
        for name, variant in [("unencoded", Variant.NONE)] + [b[:2] for b in TRIAL_BUDGETS]
        for which in "ab"
    }
    assert counts == set(SITE_COUNTS)


def test_choose_sites_matches_generator_choice_draw_for_draw():
    """``_choose_sites(n, k, rng)`` returns ``sorted(rng.choice(n, k,
    replace=False))`` and leaves the generator in the state choice leaves
    it in: the next ``random()`` and ``integers(1 << 30)`` agree.  The
    ``integers(1 << 30)`` draws spend one 32-bit half of a PCG64 output and
    buffer the other, so picks start both with and without a buffered
    half-word."""
    for n in SITE_COUNTS:
        ks = list(range(1, min(n, 8) + 1))
        if n <= 25:
            ks.append(n)
        for seed in range(200):
            ref = np.random.default_rng(seed)
            new = np.random.default_rng(seed)
            if seed % 2:
                assert ref.integers(1 << 30) == new.integers(1 << 30)
            for k in ks:
                expected = sorted(ref.choice(n, size=k, replace=False))
                assert montecarlo._choose_sites(n, k, new) == expected, (n, k, seed)
                assert ref.integers(1 << 30) == new.integers(1 << 30)
                assert ref.random() == new.random()
                if k % 2:
                    assert ref.integers(1 << 30) == new.integers(1 << 30)


def test_choose_sites_is_uniform_without_replacement():
    """Checked by counting, not against numpy: all 10 two-subsets of 5
    sites are equally likely, and each of 25 sites is in a 3-subset with
    probability 3/25."""
    rng = np.random.default_rng(2024)
    subsets = {}
    for _ in range(20_000):
        pick = tuple(montecarlo._choose_sites(5, 2, rng))
        assert pick[0] < pick[1]
        subsets[pick] = subsets.get(pick, 0) + 1
    assert len(subsets) == 10
    assert stats.chisquare(list(subsets.values())).pvalue > 1e-3

    hits = np.zeros(25, int)
    for _ in range(20_000):
        pick = montecarlo._choose_sites(25, 3, rng)
        assert len(set(pick)) == 3 and pick == sorted(pick)
        hits[pick] += 1
    assert stats.chisquare(hits).pvalue > 1e-3


# (n, p) of the binomial cases of test_pcg64_draws_match_generator_on_edge_words:
# p > 0.5 (reflected), p·n just below 30 (the last inversion before BTPE),
# and n = 1.
STREAM_BINOMIALS = ((25, 0.05), (675, 4.2e-5), (675, 0.0444), (64, 0.9),
                    (300, 0.0999), (1, 0.7))


# numpy's PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_emitting(word):
    """A PCG64 state whose next output is ``word``.  PCG64 steps its 128-bit
    LCG, then outputs the xor of the new state's halves rotated by the top
    six bits: a new state with a zero high half outputs its low half."""
    inc = np.random.PCG64(0).state["state"]["inc"]
    before = (word - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
             "has_uint32": 0, "uinteger": 0}
    check = np.random.PCG64()
    check.state = state
    assert check.random_raw() == word
    return state


def test_pcg64_draws_match_generator_on_edge_words():
    """Words that random seeds almost never give, started from a crafted
    state in both: Lemire draws whose low product lands just below, on and
    just above the rejection threshold, and binomials whose uniform is 1/4
    or 1/2 (exactly the probability of no success at (2, 0.5) and (1, 0.5))
    or within 3 ulps of 1, past the tail of inversion bounds, where numpy
    redraws.  The C kernel's draw code must give ``default_rng``'s value
    and next draws."""
    lib = kernel_library()
    cases = []
    for n in (3, 15, 25, 63, 77, 223, 675):
        threshold = (1 << 32) % n
        for leftover in (threshold - 1, threshold, threshold + 1):
            u = leftover * pow(n, -1, 1 << 32) % (1 << 32)
            cases.append((u | 0x9E3779B9 << 32, "integers", (n,)))
    words = [1 << 62, 1 << 63] + [(2**53 - j) << 11 for j in (1, 2, 3)]
    for n, p in STREAM_BINOMIALS + ((1, 0.5), (2, 0.5)):
        cases += [(word, "binomial", (n, p)) for word in words]
    for word, method, args in cases:
        state = _pcg64_state_emitting(word)
        ref = np.random.default_rng()
        ref.bit_generator.state = state
        expected = [getattr(ref, method)(*args), ref.integers(3), ref.random(),
                    ref.integers(1 << 30)]
        if method == "binomial":
            drawn = kernel_draws(lib, state, [-1, 3, -2, 1 << 30], *args)
        else:
            drawn = kernel_draws(lib, state, [args[0], 3, -2, 1 << 30])
        assert drawn == expected, (word, args)


@pytest.mark.parametrize("p", [0.04, 0.05])
def test_trials_on_both_sides_of_the_btpe_boundary(p):
    """surface17-perfect has 675 sites: at p = 0.04 (p·N = 27) numpy's
    binomial runs inversion, at p = 0.05 (p·N = 33.75) it runs BTPE.
    Either way both engines agree, residual-state binomials included."""
    circ = circuit_for("surface17", Variant.PERFECT)
    tab, frame = make_engine(circ, "tableau"), make_engine(circ, "frame")
    cfgs = [TrialConfig(p, seed=seed, max_cycles=120) for seed in range(6)]
    results = [run_trial(cfg, engine=frame) for cfg in cfgs]
    assert not all(res.censored for res in results)
    assert [run_trial(cfg, engine=tab) for cfg in cfgs] == results


# sha256 of json.dumps(failure_cycles) of one small frame-engine estimate
# per circuit at seed 42: (code, variant, p, trials) -> digest.
GOLDEN_STREAM = {
    (BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 200):
        "55dffd3a1742c415bcf8aff9906c17723011f51c4908f6b11be29c861d13c3f0",
    (BIT_FLIP_CODE, Variant.PERFECT, 0.02, 200):
        "80c0aaffd6c8ac12c8d624352360dfda78c1394e347d3fafe4f028d8f2989a2d",
    (SURFACE17_CODE, Variant.SIMPLIFIED, 0.003, 60):
        "7edcec46a2be84c62811614cf4e1aee7c74ece03643e0c9e54eb3a63e3e74236",
    (SURFACE17_CODE, Variant.PERFECT, 0.002, 60):
        "6cfc1bd30118c40be66bca5925b624657b5fcd878ee27f36cd4898488820bc34",
    (UNENCODED, Variant.NONE, 0.01, 200):
        "adfcb0d6ea89b4e9840c526ba58b406cba13497aaa77b61db47d614a26da7ed8",
}


@pytest.mark.parametrize("key", list(GOLDEN_STREAM), ids=lambda k: f"{k[0].name}-{k[1].value}")
def test_failure_cycles_match_the_golden_rng_stream(key):
    """The RNG stream of a trial is pinned: these digests were recorded at
    commit a68d040, before the site choice moved from ``rng.choice`` to
    ``_choose_sites``, and still hold.  A change that alters the stream on
    purpose records new digests here together with its reason."""
    code, variant, p, trials = key
    est = estimate_logical_error_rate(code, variant, p, trials, 42, engine="frame")
    digest = hashlib.sha256(json.dumps(list(est.failure_cycles)).encode()).hexdigest()
    assert digest == GOLDEN_STREAM[key]


def test_skip_and_full_methods_agree_in_distribution():
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    frame = make_engine(circ, "frame")
    results = {"skip": [], "full": []}
    for method in results:
        for seed in range(400):
            cfg = TrialConfig(
                0.05,
                seed=trial_seed(1234, 0 if method == "skip" else 1, seed),
                max_cycles=100_000,
            )
            res = run_trial(cfg, engine=frame, method=method)
            assert not res.censored
            results[method].append(res.cycles_to_failure)
    ks = stats.ks_2samp(results["skip"], results["full"])
    assert ks.pvalue > 1e-3


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_basics():
    rng = np.random.default_rng(0)
    est = aggregate_rate_estimate(0.01, [10, 20, 30, 40], 2, rng)
    assert est.mean_cycles == 25.0
    assert est.p_log == 1.0 / 25.0
    assert est.n_trials == 6
    assert est.n_failures == 4
    assert est.n_censored == 2
    assert est.failure_cycles == (10, 20, 30, 40)
    assert est.ci_low <= est.p_log <= est.ci_high
    assert isinstance(est.ci_low, float) and isinstance(est.ci_high, float)


def test_aggregate_degenerate_ci():
    rng = np.random.default_rng(0)
    est = aggregate_rate_estimate(0.01, [17], 0, rng)
    assert est.ci_low == est.ci_high == est.p_log == 1.0 / 17.0
    est = aggregate_rate_estimate(0.01, [8, 8, 8], 1, rng)
    assert est.ci_low == est.ci_high == est.p_log == 1.0 / 8.0


def test_aggregate_all_censored():
    with pytest.raises(AllCensored):
        aggregate_rate_estimate(0.01, [], 5, np.random.default_rng(0))


def test_aggregate_bootstrap_is_seeded():
    a = aggregate_rate_estimate(0.01, list(range(10, 60)), 0,
                                np.random.default_rng(4))
    b = aggregate_rate_estimate(0.01, list(range(10, 60)), 0,
                                np.random.default_rng(4))
    assert a == b


def _numpy_ci(values) -> tuple:
    return tuple(float(v) for v in np.percentile(values, [2.5, 97.5]))


def test_percentile_ci_is_numpys_percentile_to_the_bit():
    """``percentile_ci`` is ``np.percentile(values, [2.5, 97.5])`` for sets
    of 1, 2, 3 and 1,000 doubles, for sets with ties, sets of
    integer-valued doubles and bootstrap means, and for every size from 1
    to 200, where the interpolation weight falls on both sides of 0.5."""
    rng = np.random.default_rng(7)
    sets = [[0.25], [3.0, 1.0], [2.0, -1.0, 2.0], [np.nan, 1.0, 2.0],
            rng.random(1000), rng.exponential(size=1000) * 1e-4,
            rng.integers(0, 4, size=1000).astype(np.float64),
            np.repeat(rng.random(10), 100), np.full(1000, 0.5),
            1.0 / rng.geometric(0.01, size=1000).astype(np.float64)]
    for n in range(1, 201):
        sets += [rng.random(n), rng.integers(0, 3, size=n).astype(np.float64),
                 rng.integers(0, 2**40, size=n).astype(np.float64)]
    for values in sets:
        got = percentile_ci(values)
        assert repr(got) == repr(_numpy_ci(values)), len(values)
        assert all(type(v) is float for v in got)
    samples = np.array([3.0, 8.0, 8.0, 40.0, 41.0, 95.0])
    means = montecarlo.resample_means(np.random.default_rng(3), [samples], 1000)[:, 0]
    assert percentile_ci(means) == _numpy_ci(means)
    assert percentile_ci(list(means)) == _numpy_ci(means)


# ---------------------------------------------------------------------------
# rate estimation end to end
# ---------------------------------------------------------------------------


def test_trial_seed_is_deterministic_and_spread():
    seeds = {trial_seed(42, 0, t) for t in range(100)}
    assert len(seeds) == 100
    assert trial_seed(42, 0, 7) == trial_seed(42, 0, 7)
    assert trial_seed(42, 1, 7) != trial_seed(42, 0, 7)
    assert trial_seed(43, 0, 7) != trial_seed(42, 0, 7)


def test_estimate_requires_trials():
    with pytest.raises(ValueError, match="n_trials"):
        estimate_logical_error_rate(
            BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 0, 42
        )


def test_estimate_reproducible_and_seed_sensitive():
    kwargs = dict(max_cycles=100_000, engine="frame")
    a = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 60, 42, **kwargs
    )
    b = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 60, 42, **kwargs
    )
    c = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 60, 43, **kwargs
    )
    assert a == b
    assert a.failure_cycles != c.failure_cycles
    assert a.n_trials == 60 and a.n_failures == 60


def test_estimate_worker_count_does_not_change_results():
    kwargs = dict(max_cycles=100_000, engine="frame")
    serial = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 40, 42, workers=1, **kwargs
    )
    parallel = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 40, 42, workers=2, **kwargs
    )
    assert serial == parallel


def test_estimate_censoring_and_all_censored():
    est = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 30, 42,
        max_cycles=2, engine="frame",
    )
    assert est.n_failures + est.n_censored == 30
    assert est.n_censored > 0  # two cycles is rarely enough to fail at p=0.05
    assert all(c <= 2 for c in est.failure_cycles)
    with pytest.raises(AllCensored):
        estimate_logical_error_rate(
            BIT_FLIP_CODE, Variant.SIMPLIFIED, 1e-7, 5, 42,
            max_cycles=10, engine="frame",
        )


def test_estimate_progress_reporting():
    # 45 is not a multiple of the reporting interval (45 // 20 = 2)
    for n, workers in product((20, 45), (1, 2)):
        calls = []
        estimate_logical_error_rate(
            BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, n, 42,
            max_cycles=100_000, engine="frame", workers=workers,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls[-1] == (n, n)
        assert all(total == n for _, total in calls)
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)


def _estimate_with_progress(n, workers, engine):
    """An estimate on bf simplified at p = 0.05 and its progress calls."""
    calls = []
    est = estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, n, 42,
        max_cycles=100_000, engine=engine, workers=workers,
        progress=lambda done, total: calls.append((done, total)),
    )
    return est, calls


def _no_process_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.mark.parametrize("n", [20, 45, 80])
def test_kernel_estimate_runs_its_workers_on_threads(n, monkeypatch):
    """Kernel trials of a multi-worker estimate start no process pool, and
    the estimate equals the serial one, progress calls included."""
    kernel_library()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_process_pool)
    assert _estimate_with_progress(n, 2, "frame") == _estimate_with_progress(n, 1, "frame")


def _count_skip_blocks(monkeypatch) -> list:
    """The trial count of each ``kernel.skip_block`` call from here on."""
    kernel_library()
    calls = []
    real = kernel.skip_block

    def counting(*args):
        calls.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(kernel, "skip_block", counting)
    return calls


def test_an_estimate_runs_20_slices_with_or_without_progress(monkeypatch):
    """With one worker and no ``progress``, an estimate runs its trials in
    the same 20 ``skip_block`` calls as with a progress callback or with
    two workers, and the three points are equal, by ``repr``."""
    calls = _count_skip_blocks(monkeypatch)
    reprs = []
    for workers, progress in [(1, None), (1, lambda done, total: None), (2, None)]:
        calls.clear()
        reprs.append(repr(estimate_logical_error_rate(
            BIT_FLIP_CODE, Variant.PERFECT, 0.02, 40, 42, workers=workers,
            progress=progress)))
        assert calls == [2] * 20
    assert reprs[0] == reprs[1] == reprs[2]


def test_a_sigint_stops_an_unwatched_estimate_within_a_slice(monkeypatch):
    """A real SIGINT sent while a one-worker estimate without ``progress``
    is in the kernel raises ``KeyboardInterrupt`` when that slice's call
    returns: the 20,000 trials (seconds of work) stop before their 20th
    slice of 1,000."""
    estimate_logical_error_rate(SURFACE17_CODE, Variant.PERFECT, 4.2e-5, 1, 42)
    calls = _count_skip_blocks(monkeypatch)
    timer = threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGINT))
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        timer.start()
        with pytest.raises(KeyboardInterrupt):
            estimate_logical_error_rate(SURFACE17_CODE, Variant.PERFECT, 4.2e-5,
                                        20_000, 42)
    finally:
        timer.cancel()
        signal.signal(signal.SIGINT, handler)
    assert 0 < len(calls) < 20
    assert set(calls) == {1000}


class _ProxyEngine:
    """An engine behind a proxy, as a traced benchmark run wraps it."""

    def __init__(self, inner):
        self.circuit = inner.circuit
        self.new_run = inner.new_run
        self.run_cycle = inner.run_cycle


@pytest.mark.parametrize("engine", ["tableau", "frame-proxy"])
def test_python_loop_estimate_runs_its_workers_in_one_process_pool(engine, monkeypatch):
    """Trials that run in Python (the tableau, an engine proxy) go to one
    process pool per multi-worker estimate, and the estimate equals the
    serial one, progress calls included."""
    if engine == "frame-proxy":
        make = montecarlo.make_engine
        monkeypatch.setattr(montecarlo, "make_engine",
                            lambda circuit, name: _ProxyEngine(make(circuit, name)))
        engine = "frame"
    serial = _estimate_with_progress(45, 1, engine)
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    assert _estimate_with_progress(45, 2, engine) == serial
    assert len(started) == 1


def test_interrupt_stops_a_threaded_estimate(monkeypatch):
    """A KeyboardInterrupt from ``progress`` ends a multi-worker kernel
    estimate: it propagates, slices not yet started never run, and no
    worker thread is left when the call returns."""
    kernel_library()
    real = montecarlo._kernel_trials
    calls = []

    def slow_kernel_trials(*args):
        block = real(*args)

        def counted(*block_args):
            calls.append(block_args)
            time.sleep(0.02)
            return block(*block_args)
        return counted

    def interrupt(done, total):
        raise KeyboardInterrupt

    monkeypatch.setattr(montecarlo, "_kernel_trials", slow_kernel_trials)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_process_pool)
    baseline = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        estimate_logical_error_rate(
            BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 400, 42,
            max_cycles=100_000, engine="frame", workers=2, progress=interrupt,
        )
    assert threading.active_count() == baseline
    assert 0 < len(calls) < 20  # 400 trials go out in 20 slices of 20


def test_estimate_unencoded_baseline():
    est = estimate_logical_error_rate(
        UNENCODED, Variant.NONE, 0.3, 50, 42, max_cycles=1000, engine="frame"
    )
    # an unprotected qubit fails after ~1/p cycles (2/3 of errors flip it)
    assert est.n_failures == 50
    assert 1.0 < est.mean_cycles < 20.0
