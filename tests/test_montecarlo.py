"""Monte Carlo machinery tests.

Classification is checked against hand-prepared tableau states, single
faults against hand-derived recovery timelines, the fast Pauli-frame
engine against the reference tableau engine trial-for-trial, and the
skip-ahead sampler against full per-cycle simulation distributionally.
"""

import hashlib
import json
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from scipy import stats

from mfqec import montecarlo
from mfqec.circuits import Variant, build_circuit, enumerate_error_sites
from mfqec.codes import BIT_FLIP_CODE, SURFACE17_CODE, UNENCODED
from mfqec.errors import ErrorChannel, ErrorEvent, draw_event_paulis
from mfqec.montecarlo import (
    AllCensored,
    Classification,
    FaultOutcome,
    RateEstimate,
    TrialConfig,
    TrialResult,
    _FrameEngine,
    aggregate_rate_estimate,
    circuit_for,
    classify_state,
    estimate_logical_error_rate,
    make_engine,
    prepare_logical_zero,
    run_cycle,
    run_single_fault,
    run_trial,
    trial_seed,
)
from mfqec.pauli import PauliOperator
from mfqec.tableau import Sign


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
    ok = TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.1, seed=1)
    assert ok.max_cycles == 10_000_000
    with pytest.raises(ValueError, match="p must be"):
        TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, -0.1, seed=1)
    with pytest.raises(ValueError, match="p must be"):
        TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, 1.0, seed=1)
    with pytest.raises(ValueError, match="max_cycles"):
        TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.1, seed=1, max_cycles=0)


def test_noiseless_trial_is_censored():
    cfg = TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.0, seed=7, max_cycles=50)
    assert run_trial(cfg) == TrialResult(50, True)


def test_run_trial_rejects_unknown_method():
    cfg = TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.1, seed=1)
    with pytest.raises(ValueError, match="skip.*full"):
        run_trial(cfg, method="bogus")


def test_make_engine():
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    tab = make_engine(circ, "tableau")
    frame = make_engine(circ, "frame")
    assert tab.name == "tableau"
    assert frame.name == "frame"
    assert make_engine(circ, frame) is frame  # instances pass through
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
    code = circ.code if name != "unencoded" else UNENCODED
    tab = make_engine(circ, "tableau")
    frame = make_engine(circ, "frame")
    for seed in range(10):
        cfg = TrialConfig(code, variant, p, seed=seed, max_cycles=20_000)
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
        expected = run_cycle(tab, circ, selector, events).classification
        state = [fx, fz]
        assert frame.run_cycle(state, selector, events) is expected
        after = _pauli(n, xs=[q for q in range(n) if state[0] >> q & 1],
                       zs=[q for q in range(n) if state[1] >> q & 1])
        for s in clean_stabilizers:
            anticommutes = int(s.x @ after.z + s.z @ after.x) & 1
            assert tab.deterministic_sign(s) is (Sign.MINUS if anticommutes
                                                 else Sign.PLUS)


def _memo_sizes(engine):
    return [len(t) for tables in (engine._idle, engine._fresh)
            for t in tables.values()] + [len(engine._results)]


@pytest.mark.parametrize("name,variant,p", TRIAL_BUDGETS)
def test_warm_frame_engine_matches_fresh_engines(name, variant, p):
    """A frame engine whose transition memo was filled by trials gives,
    call for call, the classification and frame of a fresh engine, and
    stores nothing for calls outside the two memoized kinds."""
    circ = circuit_for(name, variant)
    warm = _FrameEngine(circ)
    for seed in range(20):
        run_trial(TrialConfig(circ.code, variant, p, seed=seed, max_cycles=20_000),
                  engine=warm)
    assert all(_memo_sizes(warm))

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
        sizes = _memo_sizes(warm)
        cls = warm.run_cycle(state, selector, events)
        fresh_state = list(before)
        assert cls is _FrameEngine(circ).run_cycle(fresh_state, selector, events)
        assert state == fresh_state
        if len(events) >= 2 or (events and any(before)):
            assert _memo_sizes(warm) == sizes
            seen["multi-event" if len(events) >= 2 else "residual noisy"] += 1
        elif _memo_sizes(warm) == sizes:
            seen["fresh hit" if events else "idle hit"] += 1
        if cls is Classification.LOGICAL_FLIP or rng.random() < 0.1:
            state[:] = warm.new_run()
    assert all(seen.values()), seen


def test_run_trial_takes_the_circuit_from_an_engine(monkeypatch):
    cfg = TrialConfig(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, seed=3)
    engine = make_engine(circuit_for("bf", Variant.SIMPLIFIED), "frame")
    expected = run_trial(cfg, engine="frame")

    def no_lookup(*args):
        raise AssertionError("circuit_for called with an engine in hand")

    monkeypatch.setattr(montecarlo, "circuit_for", no_lookup)
    assert run_trial(cfg, engine=engine) == expected


def test_every_code_shares_the_unencoded_circuit():
    estimate_logical_error_rate(BIT_FLIP_CODE, Variant.NONE, 0.05, 4, 0,
                                engine="frame")
    unencoded = circuit_for("unencoded", Variant.NONE)
    assert circuit_for("bf", Variant.NONE) is unencoded
    assert circuit_for("surface17", Variant.NONE) is unencoded


def _fault_event(circ, selector, key):
    """The single fault of a ``_fresh`` key ``site_index << 6 | pauli_index``
    (base-4 letters I, X, Y, Z, first qubit most significant)."""
    site = circ.error_sites(selector)[key >> 6]
    k = len(site.qubits)
    paulis = tuple(LETTERS[(key & 63) >> 2 * (k - 1 - j) & 3] for j in range(k))
    assert paulis in _all_paulis(site)
    return ErrorEvent(site, paulis)


MEMO_WARMUPS = [
    ("bf", Variant.PERFECT, (0.01, 0.02, 0.04)),
    ("bf", Variant.SIMPLIFIED, (0.02, 0.05, 0.1)),
    ("surface17", Variant.SIMPLIFIED, (0.002, 0.004)),
]


@pytest.mark.parametrize("name,variant,ps", MEMO_WARMUPS)
def test_frame_memo_is_the_orbit_closure_of_single_faults(name, variant, ps):
    """After estimates at several p on the shared engine, the memo is an
    oracle and is bounded: each single-fault and each orbit entry is what a
    fresh engine computes, at most ``n_paulis`` faults per site are stored,
    and the idle tables hold exactly the noiseless orbits of the stored
    faults' results, up to clean, a logical flip or a pair seen before."""
    circ = circuit_for(name, variant)
    for i, p in enumerate(ps):
        estimate_logical_error_rate(circ.code, variant, p, 20, 5, point_index=i,
                                    engine="frame")
    memo = make_engine(circ, "frame")
    fresh = _FrameEngine(circ)
    n = circ.n_qubits
    closure = {"a": set(), "b": set()}
    for selector in "ab":
        faults = memo._fresh[selector]
        assert 0 < len(faults) <= sum(site.n_paulis
                                      for site in circ.error_sites(selector))
        for key, out in faults.items():
            event = _fault_event(circ, selector, key)
            assert out == fresh._transition(selector, 0, 0, [event])
            fx, fz, cls = out
            at = selector
            while cls is Classification.RESIDUAL:
                at = "b" if at == "a" else "a"
                frame = fx << n | fz
                if frame in closure[at]:
                    break
                closure[at].add(frame)
                fx, fz, cls = fresh._transition(at, fx, fz, ())
        for key, out in memo._idle[selector].items():
            assert out == fresh._transition(selector, key >> n, key & ((1 << n) - 1), ())
    assert closure["a"] | closure["b"]
    assert {s: set(memo._idle[s]) for s in "ab"} == closure
    assert memo.memo_sizes() == {
        "fault_entries": len(memo._fresh["a"]) + len(memo._fresh["b"]),
        "fault_slots": sum(site.n_paulis for s in "ab" for site in circ.error_sites(s)),
        "orbit_entries": len(closure["a"]) + len(closure["b"]),
    }


def test_make_engine_keeps_one_engine_per_circuit():
    """``make_engine`` hands every caller the one engine of a circuit
    object, so trials warm it; an engine built directly starts empty."""
    circ = circuit_for("bf", Variant.PERFECT)
    for name in ("frame", "tableau"):
        engine = make_engine(circ, name)
        assert make_engine(circ, name) is engine and engine.circuit is circ
    other = build_circuit("bf", Variant.PERFECT)
    assert make_engine(other, "frame") is not make_engine(circ, "frame")
    assert make_engine(other, "frame").circuit is other
    run_trial(TrialConfig(circ.code, Variant.PERFECT, 0.05, seed=1), engine="frame")
    assert make_engine(circ, "frame").memo_sizes()["fault_entries"] > 0
    engine = _FrameEngine(circ)
    assert engine.memo_sizes()["fault_entries"] == engine.memo_sizes()["orbit_entries"] == 0
    assert not engine._results


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


# (n, p) of binomial draws for the stream test: p > 0.5 (reflected), p·n
# just below 30 (the last inversion before BTPE), and n = 1.
STREAM_BINOMIALS = ((25, 0.05), (675, 4.2e-5), (675, 0.0444), (64, 0.9),
                    (300, 0.0999), (1, 0.7))


def test_pcg64_draws_match_generator_draw_for_draw():
    """``_PCG64Draws(seed)`` makes the draws of ``default_rng(seed)``:
    randomly interleaved ``random()``, ``integers(n)``, ``integers(low,
    high)`` and ``binomial(n, p)`` calls give equal values, and after each
    sequence the next ``random()`` and ``integers(1 << 30)`` agree, so the
    two end in the same state, buffered half-word included."""
    bounds = (1, 2, 3, 15, 25, 63, 77, 223, 675)
    ranges = ((1, 16), (1, 64), (0, 2), (7, 8), (-5, 70), (0, 1 << 31))
    draws = 0
    for seed in (0, 1, 42, 2024, 2**63 + 5):
        ref = np.random.default_rng(seed)
        new = montecarlo._PCG64Draws(seed)
        pick = np.random.default_rng(seed + 1)
        for kind, j in zip(pick.integers(4, size=25_000).tolist(),
                           pick.integers(1 << 20, size=25_000).tolist()):
            if kind == 0:
                assert new.random() == ref.random()
            elif kind == 1:
                n = bounds[j % len(bounds)]
                assert new.integers(n) == ref.integers(n), (seed, n)
            elif kind == 2:
                low, high = ranges[j % len(ranges)]
                assert new.integers(low, high) == ref.integers(low, high), (seed, low)
            else:
                n, p = STREAM_BINOMIALS[j % len(STREAM_BINOMIALS)]
                assert new.binomial(n, p) == ref.binomial(n, p), (seed, n, p)
            draws += 1
        assert new.random() == ref.random()
        assert new.integers(1 << 30) == ref.integers(1 << 30)
    assert draws >= 100_000


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
    redraws.  The value and the next draws must agree."""
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
        new = montecarlo._PCG64Draws(0)
        new._bitgen.state = state
        assert getattr(new, method)(*args) == getattr(ref, method)(*args), (word, args)
        assert new.integers(3) == ref.integers(3)
        assert new.random() == ref.random()
        assert new.integers(1 << 30) == ref.integers(1 << 30)


def test_pcg64_draws_refuse_what_they_do_not_reproduce():
    """numpy's BTPE binomial and bounded draws over 2**32 values are not
    reproduced; asking for them raises instead of drifting from numpy."""
    draws = montecarlo._PCG64Draws(0)
    with pytest.raises(ValueError, match="BTPE"):
        draws.binomial(675, 0.05)
    with pytest.raises(ValueError, match="BTPE"):
        draws.binomial(100, 0.6)
    for args in ((0,), (3, 3), ((1 << 32) + 1,)):
        with pytest.raises(ValueError):
            draws.integers(*args)


@pytest.mark.parametrize("p", [0.04, 0.05])
def test_trials_on_both_sides_of_the_btpe_boundary(p, monkeypatch):
    """surface17-perfect has 675 sites: at p = 0.04 (p·N = 27) a trial draws
    from ``_PCG64Draws``, residual-state binomials included, and gives what
    ``default_rng`` gives; at p = 0.05 (p·N = 33.75) it draws from
    ``default_rng`` itself.  Either way both engines agree."""
    circ = circuit_for("surface17", Variant.PERFECT)
    tab, frame = make_engine(circ, "tableau"), make_engine(circ, "frame")
    cfgs = [TrialConfig(SURFACE17_CODE, Variant.PERFECT, p, seed=seed, max_cycles=120)
            for seed in range(6)]
    results = [run_trial(cfg, engine=frame) for cfg in cfgs]
    assert not all(res.censored for res in results)
    assert [run_trial(cfg, engine=tab) for cfg in cfgs] == results
    if p * len(circ.error_sites("a")) <= 30:
        monkeypatch.setattr(montecarlo, "_PCG64Draws", np.random.default_rng)
    else:
        def refused(seed):
            raise AssertionError("_PCG64Draws built in the BTPE range")
        monkeypatch.setattr(montecarlo, "_PCG64Draws", refused)
    assert [run_trial(cfg, engine=frame) for cfg in cfgs] == results


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
                BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05,
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
    est = aggregate_rate_estimate([10, 20, 30, 40], 2, rng)
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
    est = aggregate_rate_estimate([17], 0, rng)
    assert est.ci_low == est.ci_high == est.p_log == 1.0 / 17.0
    est = aggregate_rate_estimate([8, 8, 8], 1, rng)
    assert est.ci_low == est.ci_high == est.p_log == 1.0 / 8.0


def test_aggregate_all_censored():
    with pytest.raises(AllCensored):
        aggregate_rate_estimate([], 5, np.random.default_rng(0))


def test_aggregate_bootstrap_is_seeded():
    a = aggregate_rate_estimate(list(range(10, 60)), 0, np.random.default_rng(4))
    b = aggregate_rate_estimate(list(range(10, 60)), 0, np.random.default_rng(4))
    assert a == b


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


def test_estimate_unencoded_baseline():
    est = estimate_logical_error_rate(
        UNENCODED, Variant.NONE, 0.3, 50, 42, max_cycles=1000, engine="frame"
    )
    # an unprotected qubit fails after ~1/p cycles (2/3 of errors flip it)
    assert est.n_failures == 50
    assert 1.0 < est.mean_cycles < 20.0
