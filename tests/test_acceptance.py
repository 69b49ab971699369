"""Acceptance suite: ten end-to-end criteria, one test (and one PASS/FAIL
line) each.

Criteria 1-4 rerun the four threshold estimates with locked seeds and
grids and check the estimates against fixed target windows; 5-7 are
deterministic behavioral checks of the correction circuits; 8-10 validate
the sampling machinery (skip sampling, aggregate samplers, and the
stabilizer engine against a dense statevector oracle).

Slow pieces share work through cached module-level helpers.  Expected
total runtime is a few minutes, dominated by the threshold sweeps.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from scipy import stats

from mfqec.circuits import GateKind, Variant, enumerate_error_sites
from mfqec.codes import CODES, SURFACE17_CODE
from mfqec.errors import (
    ErrorChannel,
    ErrorEvent,
    _count_table,
    sample_clean_run_length,
)
from mfqec.montecarlo import (
    Classification,
    TrialConfig,
    circuit_for,
    make_engine,
    prepare_logical_zero,
    run_single_fault,
    run_trial,
    trial_seed,
)
from mfqec.pauli import PauliOperator
from mfqec.tableau import Sign, Tableau
from mfqec.threshold import find_threshold_crossing, iter_sweep
from statevector import StateVector

MASTER_SEED = 42
LETTERS = ("I", "X", "Y", "Z")


def _report(number: int, passed: bool, detail: str):
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# criteria 1-4: threshold reproduction
# ---------------------------------------------------------------------------

SWEEPS = {
    ("bf", "simplified"): (np.geomspace(5e-3, 5e-2, 8), 1100),
    ("bf", "perfect"): (np.geomspace(1e-3, 1e-2, 8), 1100),
    ("surface17", "simplified"): (np.geomspace(1e-4, 4e-4, 8), 330),
    ("surface17", "perfect"): (np.geomspace(2e-5, 1.2e-4, 8), 330),
}

# target windows: +/-25% for the bit-flip code, factor 2 for surface-17
WINDOWS = {
    ("bf", "simplified"): (2.0e-2, 0.75 * 2.0e-2, 1.25 * 2.0e-2),
    ("bf", "perfect"): (3.2e-3, 0.75 * 3.2e-3, 1.25 * 3.2e-3),
    ("surface17", "simplified"): (1.3e-4, 1.3e-4 / 2, 1.3e-4 * 2),
    ("surface17", "perfect"): (4.2e-5, 4.2e-5 / 2, 4.2e-5 * 2),
}


@lru_cache(maxsize=None)
def _threshold(code_name: str, variant: str):
    grid, trials = SWEEPS[(code_name, variant)]
    points = list(iter_sweep(
        CODES[code_name],
        Variant(variant),
        [float(p) for p in grid],
        trials,
        MASTER_SEED,
        engine="frame",
    ))
    est = find_threshold_crossing(points, n_bootstrap=500, seed=1)
    return est, min(pt.n_failures for pt in points), len(points)


def _threshold_criterion(number, code_name, variant, min_failures):
    est, fewest, n_points = _threshold(code_name, variant)
    target, lo, hi = WINDOWS[(code_name, variant)]
    ok = (
        lo <= est.p_th <= hi
        and fewest >= min_failures
        and n_points == 8
    )
    _report(
        number,
        ok,
        f"{code_name}-{variant} p_th={est.p_th:.4g} vs target {target:g} "
        f"(window [{lo:g}, {hi:g}]), >= {fewest} failures/point on "
        f"{n_points} grid points",
    )


def test_criterion_01_threshold_bf_simplified():
    _threshold_criterion(1, "bf", "simplified", min_failures=1000)


def test_criterion_02_threshold_bf_perfect():
    _threshold_criterion(2, "bf", "perfect", min_failures=1000)


def test_criterion_03_threshold_surface17_simplified():
    _threshold_criterion(3, "surface17", "simplified", min_failures=300)


def test_criterion_04_threshold_surface17_perfect_and_ordering():
    est, fewest, n_points = _threshold("surface17", "perfect")
    target, lo, hi = WINDOWS[("surface17", "perfect")]
    in_window = lo <= est.p_th <= hi and fewest >= 300 and n_points == 8
    # erasing used syndromes costs extra locations, so the simplified
    # variant must sit at a strictly higher threshold for both codes
    bf_order = (
        _threshold("bf", "simplified")[0].p_th
        > _threshold("bf", "perfect")[0].p_th
    )
    s17_order = est.p_th < _threshold("surface17", "simplified")[0].p_th
    _report(
        4,
        in_window and bf_order and s17_order,
        f"surface17-perfect p_th={est.p_th:.4g} vs target {target:g} "
        f"(window [{lo:g}, {hi:g}]); ordering simplified > perfect holds "
        f"for bf ({bf_order}) and surface17 ({s17_order})",
    )


# ---------------------------------------------------------------------------
# criterion 5: three-qubit syndrome table
# ---------------------------------------------------------------------------


def _bf_syndrome_after_extraction(data_flips):
    """Run reset + extraction (steps 1-3) only and read both syndrome
    ancillas as bits."""
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    tab = prepare_logical_zero(circ)
    for q in data_flips:
        tab.apply_pauli(PauliOperator.single(circ.n_qubits, q, "X"))
    for step in circ.cycle_a[:3]:
        for ins in step.instructions:
            if ins.kind is GateKind.RESET:
                tab.reset_zero(ins.qubits[0], None)
            elif ins.kind is GateKind.CNOT:
                tab.apply_CNOT(*ins.qubits)
    return tuple(
        1
        if tab.deterministic_sign(
            PauliOperator.single(circ.n_qubits, anc, "Z")
        )
        is Sign.MINUS
        else 0
        for anc in (3, 4)
    )


def test_criterion_05_syndrome_table():
    expected = {
        (): (0, 0),
        (0,): (1, 0),
        (1,): (1, 1),
        (2,): (0, 1),
    }
    observed = {flips: _bf_syndrome_after_extraction(flips) for flips in expected}
    _report(
        5,
        observed == expected,
        "bit-flip syndromes for no error / X on each data qubit: "
        + ", ".join(f"{k or 'I'}->{v}" for k, v in observed.items()),
    )


# ---------------------------------------------------------------------------
# criterion 6: exhaustive single-fault tolerance
# ---------------------------------------------------------------------------


def _all_event_paulis(site):
    if site.channel is ErrorChannel.INIT:
        return [("X",)]
    return [
        combo
        for combo in product(LETTERS, repeat=len(site.qubits))
        if set(combo) != {"I"}
    ]


def test_criterion_06_no_single_fault_flips():
    totals = {}
    flips = 0
    spot_checks = 0
    rng = np.random.default_rng(6)
    for name, variant in (
        ("bf", Variant.PERFECT),
        ("bf", Variant.SIMPLIFIED),
        ("surface17", Variant.PERFECT),
        ("surface17", Variant.SIMPLIFIED),
    ):
        circ = circuit_for(name, variant)
        injections = []
        for which in ("a", "b"):
            for site in enumerate_error_sites(circ, which):
                for paulis in _all_event_paulis(site):
                    injections.append((which, site, paulis))
        count = 0
        for which, site, paulis in injections:
            out = run_single_fault(
                circ, site, paulis, selector=which, engine="frame"
            )
            flips += out.flipped
            count += 1
            # tie a random sample back to the reference tableau engine
            if name == "surface17" and rng.random() < 0.02:
                ref = run_single_fault(circ, site, paulis, selector=which)
                assert ref == out, (name, variant, which, site, paulis)
                spot_checks += 1
        totals[f"{name}-{variant.value}"] = count
    expected_totals = {
        "bf-perfect": 1402,
        "bf-simplified": 598,
        "surface17-perfect": 8570,
        "surface17-simplified": 3562,
    }
    _report(
        6,
        flips == 0 and totals == expected_totals and spot_checks > 100,
        f"0 logical flips in {sum(totals.values())} exhaustive injections "
        f"across {totals} ({spot_checks} cross-checked on the tableau engine)",
    )


# ---------------------------------------------------------------------------
# criterion 7: repeated middle-qubit fault pathology
# ---------------------------------------------------------------------------


def _follow_double_middle_fault(variant, n_cycles=14):
    circ = circuit_for("bf", variant)
    n = circ.n_qubits
    tab = prepare_logical_zero(circ)
    engine = make_engine(circ, "tableau")
    d2_site = {
        w: next(
            s
            for s in enumerate_error_sites(circ, w)
            if s.step == 1 and s.qubits == (1,)
        )
        for w in "ab"
    }
    weights, classes = [], []
    for t in range(n_cycles):
        which = "a" if t % 2 == 0 else "b"
        events = [ErrorEvent(d2_site[which], ("X",))] if t < 2 else []
        classes.append(engine.run_cycle(tab, which, events))
        weights.append(
            sum(
                tab.deterministic_sign(PauliOperator.single(n, q, "Z"))
                is Sign.MINUS
                for q in range(3)
            )
        )
    return weights, classes


def test_criterion_07_double_middle_fault_pathology():
    w_perfect, c_perfect = _follow_double_middle_fault(Variant.PERFECT)
    w_simple, c_simple = _follow_double_middle_fault(Variant.SIMPLIFIED)
    perfect_ok = all(w == 0 for w in w_perfect) and all(
        c is Classification.CLEAN_ZERO for c in c_perfect
    )
    # with stale syndromes never erased the error count alternates 2,1,2,1…
    # from the second faulty cycle on, and the run never completes
    simple_ok = (
        w_simple[1:] == [2, 1] * (len(w_simple) // 2 - 1) + [2]
        and all(c is Classification.RESIDUAL for c in c_simple)
    )
    _report(
        7,
        perfect_ok and simple_ok,
        "X on the middle qubit in two consecutive cycles: perfect variant "
        f"stays corrected (weights {w_perfect[:4]}...), simplified "
        f"oscillates {w_simple[:6]}... without ever clearing or flipping",
    )


# ---------------------------------------------------------------------------
# criterion 8: skip sampling against full per-cycle simulation
# ---------------------------------------------------------------------------


def _cycles_to_failure(p, method, namespace, n_trials=10_000):
    circ = circuit_for("bf", Variant.SIMPLIFIED)
    engine = make_engine(circ, "frame")
    out = np.empty(n_trials, np.int64)
    for t in range(n_trials):
        cfg = TrialConfig(p, seed=trial_seed(7, namespace, t))
        res = run_trial(cfg, engine=engine, method=method)
        assert not res.censored
        out[t] = res.cycles_to_failure
    return out


def test_criterion_08_skip_sampling_matches_full_simulation():
    results = {}
    for p, base in ((0.05, 10), (0.01, 20)):
        skip = _cycles_to_failure(p, "skip", base)
        full = _cycles_to_failure(p, "full", base + 1)
        results[p] = stats.ks_2samp(skip, full).pvalue
    ok = all(pv > 0.01 for pv in results.values())
    _report(
        8,
        ok,
        "KS two-sample p-values (10^4 trials each): "
        + ", ".join(f"p={p}: {pv:.3f}" for p, pv in results.items()),
    )


# ---------------------------------------------------------------------------
# criterion 9: aggregate sampler formulas
# ---------------------------------------------------------------------------


def test_criterion_09_sampler_formulas():
    # exact conditioned-count values at two sites, p = 1/2
    table = _count_table(0.5, 2)
    hand_ok = (
        abs(table[0] - float(Fraction(2, 3))) < 1e-12 and table[1] == 1.0
    )

    # normalization of the conditioned count distribution, checked
    # against an exact rational recomputation
    norm_ok = True
    for p, n in ((0.05, 77), (0.001, 675), (0.3, 25)):
        table = _count_table(p, n)
        norm_ok &= abs(float(table[-1]) - 1.0) < 1e-12
        exact = _exact_cumulative(p, n)
        norm_ok &= bool(np.allclose(table, exact, rtol=1e-11, atol=1e-15))

    # clean-run lengths follow Geometric(1 - P(clean cycle))
    p, n = 0.05, 25
    q = (1.0 - p) ** n
    rng = np.random.default_rng(9)
    draws = np.array(
        [sample_clean_run_length(p, n, rng) for _ in range(100_000)]
    )
    k_max = 12
    observed = np.bincount(np.minimum(draws, k_max + 1), minlength=k_max + 2)
    expected = np.array(
        [q**k * (1 - q) for k in range(k_max + 1)] + [q ** (k_max + 1)]
    )
    geom = stats.chisquare(observed, expected * draws.size)
    _report(
        9,
        hand_ok and norm_ok and geom.pvalue > 0.01,
        f"hand values q(1)=2/3, q(2)=1/3 ok={hand_ok}; normalization to "
        f"1e-12 ok={norm_ok}; geometric chi-square p={geom.pvalue:.3f} "
        f"on 10^5 draws",
    )


def _exact_cumulative(p: float, n: int):
    frac = Fraction(p)
    pmf = [
        math.comb(n, k) * frac**k * (1 - frac) ** (n - k)
        for k in range(1, n + 1)
    ]
    total = sum(pmf)
    acc, out = Fraction(0), []
    for w in pmf:
        acc += w
        out.append(float(acc / total))
    return np.array(out)


# ---------------------------------------------------------------------------
# criterion 10: stabilizer engine against the dense statevector oracle
# ---------------------------------------------------------------------------


def test_criterion_10_statevector_oracle():
    rng = np.random.default_rng(20260825)
    n0 = n1 = 0
    deterministic_checked = 0
    sign_checks = 0
    for _ in range(1000):
        n = int(rng.integers(4, 6))
        tab = Tableau(n)
        sv = StateVector(n)
        for _ in range(int(rng.integers(8, 20))):
            r = rng.random()
            if r < 0.35:
                gate = str(rng.choice(("H", "S", "X", "Y", "Z")))
                q = int(rng.integers(n))
                getattr(tab, "apply_" + gate)(q)
                sv.apply_gate(gate, q)
            elif r < 0.60:
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                gate = "CNOT" if rng.random() < 0.5 else "CZ"
                getattr(tab, "apply_" + gate)(a, b)
                sv.apply_gate(gate, a, b)
            elif r < 0.75:
                a, b, t = (
                    int(v) for v in rng.choice(n, size=3, replace=False)
                )
                for q in (a, b):  # classical controls must be definite
                    out = tab.measure_z(q, rng)
                    if not out.deterministic:
                        n1 += out.bit
                        n0 += 1 - out.bit
                    sv.collapse(q, out.bit)
                if rng.random() < 0.5:
                    tab.classical_toffoli(a, b, t)
                    sv.apply_toffoli(a, b, t)
                else:
                    tab.classical_ccz(a, b, t)
                    sv.apply_ccz(a, b, t)
            elif r < 0.85:
                q = int(rng.integers(n))  # reset = measure, flip if one
                out = tab.measure_z(q, rng)
                sv.collapse(q, out.bit)
                if out.bit:
                    tab.apply_X(q)
                    sv.apply_gate("X", q)
            else:
                q = int(rng.integers(n))
                prob_one = sv.prob_one(q)
                out = tab.measure_z(q, rng)
                if out.deterministic:
                    assert abs(prob_one - out.bit) < 1e-9
                    deterministic_checked += 1
                else:
                    assert abs(prob_one - 0.5) < 1e-9
                    n1 += out.bit
                    n0 += 1 - out.bit
                sv.collapse(q, out.bit)
        for _ in range(6):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            pauli = PauliOperator.from_label(
                ("+" if rng.random() < 0.5 else "-") + label
            )
            assert (
                tab.deterministic_sign(pauli).value
                == sv.expectation_sign(pauli)
            )
            sign_checks += 1
    unbiased = stats.chisquare([n0, n1])
    _report(
        10,
        unbiased.pvalue > 0.01 and sign_checks == 6000,
        f"1000 random circuits: {sign_checks} operator signs and "
        f"{deterministic_checked} deterministic outcomes matched exactly; "
        f"{n0 + n1} coin-flip outcomes unbiased (chi-square "
        f"p={unbiased.pvalue:.3f})",
    )
