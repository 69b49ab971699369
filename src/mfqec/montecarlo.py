"""Time-to-failure Monte Carlo over correction cycles.

A trial starts from a noiselessly prepared logical |0> (all generators,
logical Z, and ancilla Z operators at +1), then runs cycles a, b, a, b, ...
with stochastic Pauli noise until the state carries a logical flip (all
generators back at +1 but logical Z at -1) or a cycle cap is hit.

Whenever the state is exactly the clean |0_L>|0...0>, whole error-free
cycles are skipped in one geometric draw and the next cycle is simulated
with at least one error (count conditioned on >= 1, sites uniform without
replacement, drawn by Floyd's algorithm so that they match
``Generator.choice(n, k, replace=False)`` draw for draw).  That is
distributionally identical to simulating every cycle with per-site
Bernoulli(p) noise, which `method="full"` still does for cross-validation.
Cycle parity is preserved across skips because the two cycles are not
equivalent.

Two interchangeable engines execute cycles:

* "tableau" — the reference path: a full stabilizer tableau runs every
  instruction (`run_cycle` below).
* "frame" — an error-frame fast path: since the noiseless reference run is
  the identity on the clean state, the entire state is two bit masks (X and
  Z frame), gates permute frame bits, and classically-controlled
  corrections read frame bits directly.  Each frame engine memoizes the
  cycles a memory spends its time in: a cycle with one event on the clean
  frame, keyed by (selector, site, Pauli), and the noiseless orbit that
  follows each such fault, keyed by (selector, frame).  ``make_engine``
  keeps one engine per circuit, so the memo is shared by every estimate,
  sweep point and pool block of a process; it is bounded by the circuit's
  single faults and never touches the RNG.

Both consume the RNG stream identically (only error sampling draws), so a
trial gives bit-identical results under either engine; the test suite
enforces that trial-for-trial.  A trial's draws come from raw PCG64 words,
turned into doubles, bounded integers and binomial counts in Python exactly
as ``np.random.Generator`` turns them (``_PCG64Draws``), so the stream is
the one ``default_rng(seed)`` gives; only where numpy's binomial runs BTPE
(min(p, 1-p)·N > 30) does a trial draw from ``default_rng`` itself.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

import numpy as np

from .circuits import Circuit, GateKind, Variant, build_circuit
from .codes import UNENCODED, CodeSpec
from .pauli import PauliOperator
from .errors import (
    ErrorEvent,
    draw_event_paulis,
    event_pauli,
    sample_clean_run_length,
    sample_error_count_given_any,
)
from .tableau import Sign, Tableau


class AllCensored(RuntimeError):
    """Every trial hit the cycle cap without failing."""


class Classification(enum.Enum):
    CLEAN_ZERO = "clean_zero"
    LOGICAL_FLIP = "logical_flip"
    RESIDUAL = "residual"


@dataclass(frozen=True)
class CycleOutcome:
    classification: Classification


@dataclass(frozen=True)
class TrialConfig:
    code: CodeSpec
    variant: Variant
    p: float
    seed: int
    max_cycles: int = 10_000_000

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {self.p}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    cycles_to_failure: int
    censored: bool


def circuit_for(code_name: str, variant: Variant) -> Circuit:
    """The shared circuit of (code, variant).  Every code name runs the
    one unencoded circuit under ``Variant.NONE``, so all of them share it."""
    if variant is Variant.NONE:
        code_name = UNENCODED.name
    return _built_circuit(code_name, variant)


@lru_cache(maxsize=None)
def _built_circuit(code_name: str, variant: Variant) -> Circuit:
    return build_circuit(code_name, variant)


# ---------------------------------------------------------------------------
# reference engine: full tableau execution
# ---------------------------------------------------------------------------

def prepare_logical_zero(circuit: Circuit) -> Tableau:
    """Noiseless logical |0> on the full register.  |0...0> already
    satisfies every Z-type generator, logical Z, and the ancilla Z's, so
    only the X-type generators need projecting; projection onto their +1
    eigenspaces is deterministic and consumes no randomness."""
    tab = Tableau(circuit.n_qubits)
    code = circuit.code
    for i in range(len(code.x_stabilizers)):
        tab._project_plus(code.x_stabilizer_pauli(i, circuit.n_qubits))
    return tab


@lru_cache(maxsize=None)
def _classify_operators(code: CodeSpec, n: int):
    zeros = np.zeros(n, np.uint8)
    ancilla_zs = []
    for q in range(code.n_data, n):
        z = zeros.copy()
        z[q] = 1
        ancilla_zs.append(PauliOperator(zeros, z))
    return tuple(code.generators(n)), code.logical_z_pauli(n), tuple(ancilla_zs)


def classify_state(tab: Tableau, code: CodeSpec) -> Classification:
    generators, logical_z, ancilla_zs = _classify_operators(code, tab.n)
    for g in generators:
        if tab.deterministic_sign(g) is not Sign.PLUS:
            return Classification.RESIDUAL
    zl = tab.deterministic_sign(logical_z)
    if zl is Sign.INDETERMINATE:
        return Classification.RESIDUAL
    if zl is Sign.MINUS:
        return Classification.LOGICAL_FLIP
    for anc in ancilla_zs:
        if tab.deterministic_sign(anc) is not Sign.PLUS:
            return Classification.RESIDUAL
    return Classification.CLEAN_ZERO


def run_cycle(tab: Tableau, circuit: Circuit, selector: str, events=(), rng=None) -> CycleOutcome:
    """Execute one cycle on the tableau.  Each event fires immediately
    after its site's instruction has executed ideally."""
    by_site = {ev.site: ev for ev in events}
    idx = 0
    sites = circuit.error_sites(selector)
    for step in circuit.cycle(selector):
        for ins in step.instructions:
            kind = ins.kind
            if kind is GateKind.CNOT:
                tab.apply_CNOT(*ins.qubits)
            elif kind is GateKind.TOFFOLI:
                tab.classical_toffoli(*ins.qubits)
            elif kind is GateKind.CCZ:
                tab.classical_ccz(*ins.qubits)
            elif kind is GateKind.RESET:
                tab.reset_zero(ins.qubits[0], rng)
            elif kind is GateKind.H:
                tab.apply_H(ins.qubits[0])
            # IDLE: nothing
            ev = by_site.get(sites[idx])
            if ev is not None:
                tab.apply_pauli(event_pauli(ev, tab.n))
            idx += 1
    return CycleOutcome(classify_state(tab, circuit.code))


class _TableauEngine:
    name = "tableau"

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._fresh = prepare_logical_zero(circuit)

    def new_run(self) -> Tableau:
        return self._fresh.copy()

    def run_cycle(self, state: Tableau, selector: str, events, rng) -> Classification:
        return run_cycle(state, self.circuit, selector, events, rng).classification


# ---------------------------------------------------------------------------
# fast engine: X/Z error frame as two bit masks
# ---------------------------------------------------------------------------

_OP_H, _OP_CNOT, _OP_TOFX, _OP_TOFZ, _OP_RESET = range(5)

# Base-4 index of an event's Pauli letters (I, X, Y, Z = 0..3, first qubit
# most significant): below 64 for the at most three qubits of a site.
_PAULI_INDEX = {
    letters: sum("IXYZ".index(c) << 2 * (len(letters) - 1 - j)
                 for j, c in enumerate(letters))
    for k in (1, 2, 3)
    for letters in product("IXYZ", repeat=k)
}


# A noiseless cycle from the all-zero frame: no op changes it, and it is clean.
_CLEAN = (0, 0, Classification.CLEAN_ZERO)


class _FrameEngine:
    """Tracks the Pauli frame relative to the noiseless reference run.

    The reference run from the clean state never fires a correction and
    returns every ancilla to |0>, so all controls read as the frame's X bit
    and a reset simply clears the frame on that qubit.  Gate-by-gate this
    reproduces the tableau semantics exactly (the suite checks trial
    equivalence bit-for-bit).

    A cycle is a pure function of (selector, frame, events), so the engine
    memoizes, per selector, the calls a memory spends its time in.  Cycles
    with exactly one event on the all-zero frame are stored in ``_fresh``,
    keyed by ``site_index << 6 | pauli_index``: at most the sum of the
    sites' ``n_paulis`` entries.  When such an entry is filled, the
    noiseless orbit of its frame is walked, alternating a and b, and each
    zero-event cycle of it is stored in ``_idle``, keyed by ``fx << n_qubits
    | fz``.  The walk stops when the frame is clean or carries a logical
    flip, or at a (selector, frame) pair already stored, which is how the
    simplified variant's loops end.  So ``_idle`` holds exactly the orbit
    closure of the single faults, and the memo cannot outgrow the circuit.
    Both tables map to the post-cycle ``(fx, fz, classification)``, interned.
    Every other call runs the compiled ops and stores nothing; so does a
    zero-event cycle from a frame outside the closure, unless the frame is
    all zero (``_CLEAN``).  The tables fill lazily, belong to the instance
    (``make_engine`` keeps one per circuit) and never read the RNG.
    """

    name = "frame"

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        code = circuit.code
        n = circuit.n_qubits
        self.gen_masks = []
        for g in code.generators(n):
            gx = sum(1 << q for q in range(n) if g.x[q])
            gz = sum(1 << q for q in range(n) if g.z[q])
            self.gen_masks.append((gx, gz))
        self.zl_mask = sum(1 << q for q in code.logical_z)
        self.nondata_mask = ((1 << n) - 1) ^ ((1 << code.n_data) - 1)
        self._n = n
        self._compiled = {
            "a": self._compile(circuit, "a"),
            "b": self._compile(circuit, "b"),
        }
        self._idle = {"a": {}, "b": {}}
        self._fresh = {"a": {}, "b": {}}
        self._results = {}  # interns the tables' result tuples

    @staticmethod
    def _compile(circuit: Circuit, which: str):
        ops = []
        op_site = []  # site index of each compiled op, ascending
        idx = 0
        for step in circuit.cycle(which):
            for ins in step.instructions:
                kind = ins.kind
                if kind is GateKind.CNOT:
                    c, t = ins.qubits
                    ops.append((_OP_CNOT, 1 << c, 1 << t))
                elif kind is GateKind.TOFFOLI:
                    c1, c2, t = ins.qubits
                    ops.append((_OP_TOFX, 1 << c1, 1 << c2, 1 << t))
                elif kind is GateKind.CCZ:
                    c1, c2, t = ins.qubits
                    ops.append((_OP_TOFZ, 1 << c1, 1 << c2, 1 << t))
                elif kind is GateKind.RESET:
                    ops.append((_OP_RESET, ~(1 << ins.qubits[0])))
                elif kind is GateKind.H:
                    ops.append((_OP_H, 1 << ins.qubits[0]))
                else:  # IDLE
                    idx += 1
                    continue
                op_site.append(idx)
                idx += 1
        site_index = {site: i for i, site in enumerate(circuit.error_sites(which))}
        return ops, op_site, site_index

    def new_run(self):
        return [0, 0]  # [x frame, z frame]

    def memo_sizes(self) -> dict:
        """Single faults stored, the number there can be (the sites'
        ``n_paulis`` over both cycles), and orbit cycles stored."""
        return {
            "fault_entries": sum(map(len, self._fresh.values())),
            "fault_slots": sum(site.n_paulis for which in "ab"
                               for site in self.circuit.error_sites(which)),
            "orbit_entries": sum(map(len, self._idle.values())),
        }

    @staticmethod
    def _exec(ops, a, b, fx, fz):
        for i in range(a, b):
            op = ops[i]
            code = op[0]
            if code == _OP_CNOT:
                if fx & op[1]:
                    fx ^= op[2]
                if fz & op[2]:
                    fz ^= op[1]
            elif code == _OP_TOFX:
                if (fx & op[1]) and (fx & op[2]):
                    fx ^= op[3]
            elif code == _OP_TOFZ:
                if (fx & op[1]) and (fx & op[2]):
                    fz ^= op[3]
            elif code == _OP_RESET:
                fx &= op[1]
                fz &= op[1]
            else:  # H: swap the two frame bits on the qubit
                m = op[1]
                if bool(fx & m) != bool(fz & m):
                    fx ^= m
                    fz ^= m
        return fx, fz

    def run_cycle(self, state, selector: str, events, rng=None) -> Classification:
        fx, fz = state
        if not events:
            out = self._idle[selector].get(fx << self._n | fz)
            if out is None:
                out = self._transition(selector, fx, fz, events) if fx or fz else _CLEAN
        elif len(events) == 1 and not (fx or fz):
            ev = events[0]
            table = self._fresh[selector]
            key = (self._compiled[selector][2][ev.site] << 6
                   | _PAULI_INDEX[ev.paulis])
            out = table.get(key)
            if out is None:
                out = table[key] = self._intern(
                    self._transition(selector, 0, 0, events))
                self._store_orbit(selector, out)
        else:
            out = self._transition(selector, fx, fz, events)
        state[0], state[1], cls = out
        return cls

    def _intern(self, out):
        return self._results.setdefault(out, out)

    def _store_orbit(self, selector: str, out):
        """Store the zero-event cycles that follow ``out``, the result of a
        ``selector`` cycle, until the frame is clean or flipped or the next
        (selector, frame) pair is already stored."""
        fx, fz, cls = out
        while cls is Classification.RESIDUAL:
            selector = "b" if selector == "a" else "a"
            table = self._idle[selector]
            key = fx << self._n | fz
            if key in table:
                return
            fx, fz, cls = table[key] = self._intern(
                self._transition(selector, fx, fz, ()))

    def _transition(self, selector: str, fx, fz, events):
        """One cycle from frame (fx, fz): (fx', fz', classification)."""
        ops, op_site, site_index = self._compiled[selector]
        done = 0
        for ev in sorted(events, key=lambda e: site_index[e.site]):
            upto = bisect_right(op_site, site_index[ev.site])
            if fx or fz:  # no op changes the all-zero frame
                fx, fz = self._exec(ops, done, upto, fx, fz)
            done = upto
            ex = ez = 0
            for q, letter in zip(ev.site.qubits, ev.paulis):
                if letter in ("X", "Y"):
                    ex |= 1 << q
                if letter in ("Z", "Y"):
                    ez |= 1 << q
            fx ^= ex
            fz ^= ez
        if fx or fz:
            fx, fz = self._exec(ops, done, len(ops), fx, fz)
        cls = self._classify(fx, fz)
        if cls is Classification.CLEAN_ZERO:
            fx = fz = 0  # same quantum state; canonicalize the frame
        return fx, fz, cls

    def _classify(self, fx, fz) -> Classification:
        for gx, gz in self.gen_masks:
            if ((gx & fz).bit_count() + (gz & fx).bit_count()) & 1:
                return Classification.RESIDUAL
        if (self.zl_mask & fx).bit_count() & 1:
            return Classification.LOGICAL_FLIP
        if fx & self.nondata_mask:
            return Classification.RESIDUAL
        return Classification.CLEAN_ZERO


_ENGINES = {"tableau": _TableauEngine, "frame": _FrameEngine}


def make_engine(circuit: Circuit, engine="tableau"):
    """The ``engine`` of ``circuit``: one per (circuit, name), made on first
    use and kept on the circuit, so every estimate of a process shares its
    memo.  An engine instance passes through."""
    if not isinstance(engine, str):
        return engine
    eng = circuit.engines.get(engine)
    if eng is None:
        try:
            cls = _ENGINES[engine]
        except KeyError:
            raise ValueError(f"unknown engine {engine!r}") from None
        eng = circuit.engines[engine] = cls(circuit)
    return eng


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

# Words taken from the bit generator at a time: a refill costs about as much
# as 50 words, and a trial's unused words are dropped with it.
_BLOCK = 64


class _PCG64Draws:
    """A trial's draws from ``PCG64(seed)``, the very draws
    ``np.random.default_rng(seed)`` makes, computed in Python from raw
    64-bit words taken ``_BLOCK`` at a time.

    * ``random()`` is numpy's ``next_double``: the top 53 bits of a word.
    * ``integers(low, high)`` is numpy's Lemire bounded draw on
      ``next_uint32``, which spends the low half of a word and buffers the
      high half for the next call; a range of one value draws nothing.
    * ``binomial(n, p)`` is numpy's inversion, reflected for p > 0.5, with
      its (n, p) constants kept between calls.  numpy switches to BTPE when
      min(p, 1-p)·n > 30, which is not reproduced: those calls raise.

    Ranges over 2**32 values, which numpy draws from whole words, raise
    too.  On a 2-vCPU VM a scalar numpy draw took 0.8-2.8 µs, one of these
    0.3-0.7 µs."""

    __slots__ = ("_bitgen", "_words", "_half", "_binom")

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._words = []  # the block, reversed, so that pop() takes the next word
        self._half = None  # the buffered high half-word of next_uint32
        self._binom = (None, None)  # (n, p) and constants of the last inversion

    def _refill(self) -> int:
        self._words = words = self._bitgen.random_raw(_BLOCK)[::-1].tolist()
        return words.pop()

    def random(self) -> float:
        try:
            word = self._words.pop()
        except IndexError:
            word = self._refill()
        return (word >> 11) * 2**-53

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            word = self._words.pop()
        except IndexError:
            word = self._refill()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int = None) -> int:
        if high is None:
            low, high = 0, low
        n = high - low
        if n <= 1 or n > 1 << 32:
            if n == 1:
                return low
            raise ValueError(f"integers({low}, {high}) is not a drawn range")
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n  # numpy's (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def binomial(self, n: int, p: float) -> int:
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p)
        return n - self._inversion(n, 1.0 - p)

    def _inversion(self, n: int, p: float) -> int:
        key, consts = self._binom
        if key != (n, p):
            if p * n > 30.0:
                raise ValueError(f"binomial({n}, {p}) is in numpy's BTPE range")
            q = 1.0 - p
            np_ = n * p
            consts = (q, math.exp(n * math.log1p(-p)),
                      int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1))))
            self._binom = ((n, p), consts)
        q, qn, bound = consts
        x = 0
        px = qn
        u = self.random()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.random()
            else:
                u -= px
                px = (n - x + 1) * p * px / (x * q)
        return x


def _choose_sites(n: int, k: int, rng) -> list:
    """``sorted(rng.choice(n, k, replace=False))`` from the same draws: k
    distinct site indices, uniform without replacement, ascending.

    For n <= 10000 numpy's choice runs Floyd's algorithm, a bounded draw in
    [0, j] for each j = n-k ... n-1, and then shuffles its k picks with k-1
    more bounded draws, in [0, i) for i = k ... 2.  ``rng.integers`` makes
    the same bounded draws, so the generator ends in the same state; the
    shuffle's draws are spent and ignored, since the sites come out sorted."""
    if k == 1:
        return [rng.integers(n)]
    chosen = set()
    for j in range(n - k, n):
        v = rng.integers(j + 1)
        chosen.add(j if v in chosen else v)
    for i in range(k, 1, -1):
        rng.integers(i)
    return sorted(chosen)


def _draw_cycle_events(sites, indices, rng):
    return [
        ErrorEvent(sites[i], draw_event_paulis(sites[i].channel, rng))
        for i in indices
    ]


def run_trial(cfg: TrialConfig, engine=None, method: str = "skip") -> TrialResult:
    """One seeded trial.  ``engine`` may be an engine object (whose circuit
    the trial runs), an engine name, or None for the reference tableau
    engine.  ``method="full"``
    simulates every cycle with Binomial(N, p) events instead of skipping
    provably clean stretches.

    The trial draws from ``_PCG64Draws(cfg.seed)``, which makes the draws of
    ``np.random.default_rng(cfg.seed)`` without numpy's per-call overhead,
    whenever min(p, 1-p)·N <= 30: every acceptance grid and benchmark
    workload.  Above that, numpy's binomial switches to BTPE, which the
    stream does not reproduce, and the trial draws from ``default_rng``."""
    if method not in ("skip", "full"):
        raise ValueError("method must be 'skip' or 'full'")
    if engine is None or isinstance(engine, str):
        circuit = circuit_for(cfg.code.name, cfg.variant)
        engine = make_engine(circuit, engine or "tableau")
    else:
        circuit = engine.circuit
    if cfg.p == 0.0:
        # no error can ever occur; the clean state survives to the cap
        return TrialResult(cfg.max_cycles, True)
    sites_a = circuit.error_sites("a")
    sites_b = circuit.error_sites("b")
    n_sites = len(sites_a)
    if len(sites_b) != n_sites:
        raise AssertionError("cycles a and b disagree on site count")
    if min(cfg.p, 1.0 - cfg.p) * n_sites <= 30.0:
        rng = _PCG64Draws(cfg.seed)
    else:  # numpy's binomial runs BTPE here, which _PCG64Draws does not
        rng = np.random.default_rng(cfg.seed)
    state = engine.new_run()
    t = 0
    clean = True
    while t < cfg.max_cycles:
        if clean and method == "skip":
            t += sample_clean_run_length(cfg.p, n_sites, rng)
            if t >= cfg.max_cycles:
                break
            k = sample_error_count_given_any(cfg.p, n_sites, rng)
        else:
            k = int(rng.binomial(n_sites, cfg.p))
        sites = sites_a if t % 2 == 0 else sites_b
        if k:
            events = _draw_cycle_events(sites, _choose_sites(n_sites, k, rng), rng)
        else:
            events = ()
        cls = engine.run_cycle(state, "a" if t % 2 == 0 else "b", events, rng)
        t += 1
        if cls is Classification.LOGICAL_FLIP:
            return TrialResult(t, False)
        clean = cls is Classification.CLEAN_ZERO
    return TrialResult(cfg.max_cycles, True)


# ---------------------------------------------------------------------------
# rate estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    p_log: float
    ci_low: float
    ci_high: float
    mean_cycles: float
    n_trials: int
    n_failures: int
    n_censored: int
    failure_cycles: tuple  # cycles_to_failure of uncensored trials, trial order


def trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    ss = np.random.SeedSequence([master_seed, point_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _bootstrap_ci(samples: np.ndarray, rng, n_bootstrap: int = 1000):
    n = samples.size
    means = np.empty(n_bootstrap)
    chunk = max(1, min(n_bootstrap, int(2e7) // max(n, 1)))
    done = 0
    while done < n_bootstrap:
        b = min(chunk, n_bootstrap - done)
        idx = rng.integers(0, n, size=(b, n))
        means[done : done + b] = samples[idx].mean(axis=1)
        done += b
    lo_mean, hi_mean = np.percentile(means, [2.5, 97.5])
    return float(1.0 / hi_mean), float(1.0 / lo_mean)


def aggregate_rate_estimate(
    failure_cycles, n_censored: int, rng, n_bootstrap: int = 1000
) -> RateEstimate:
    samples = np.asarray(failure_cycles, dtype=np.float64)
    n_trials = samples.size + n_censored
    if samples.size == 0:
        raise AllCensored(f"no failures in {n_trials} trials")
    mean = float(samples.mean())
    if samples.size == 1 or np.all(samples == samples[0]):
        ci = (1.0 / mean, 1.0 / mean)
    else:
        ci = _bootstrap_ci(samples, rng, n_bootstrap)
    return RateEstimate(
        p_log=1.0 / mean,
        ci_low=ci[0],
        ci_high=ci[1],
        mean_cycles=mean,
        n_trials=n_trials,
        n_failures=samples.size,
        n_censored=n_censored,
        failure_cycles=tuple(int(c) for c in failure_cycles),
    )


def _iter_trials(circuit: Circuit, p, max_cycles, engine, master_seed,
                 point_index, indices):
    """Run the trials at ``indices`` on one engine, in order, yielding
    (trial index, cycles_to_failure, censored) for each."""
    eng = make_engine(circuit, engine)
    for t in indices:
        cfg = TrialConfig(circuit.code, circuit.variant, p,
                          trial_seed(master_seed, point_index, t), max_cycles)
        res = run_trial(cfg, engine=eng)
        yield t, res.cycles_to_failure, res.censored


def _run_trial_block(args):
    """Process-pool entry point; the trial indices are the last argument."""
    (code_name, variant_value, p, max_cycles, engine, master_seed, point_index,
     indices) = args
    circuit = circuit_for(code_name, Variant(variant_value))
    return list(_iter_trials(circuit, p, max_cycles, engine, master_seed,
                             point_index, indices))


def estimate_logical_error_rate(
    code: CodeSpec,
    variant: Variant,
    p: float,
    n_trials: int,
    master_seed: int,
    *,
    max_cycles: int = 10_000_000,
    point_index: int = 0,
    workers: int = 1,
    engine: str = "tableau",
    n_bootstrap: int = 1000,
    progress=None,
) -> RateEstimate:
    """n_trials independent seeded trials; p_log = 1/mean cycles-to-failure
    over uncensored trials with a bootstrap CI.  Results are identical for
    any worker count because each trial's seed depends only on
    (master_seed, point_index, trial index)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    results = [None] * n_trials
    tick = max(1, n_trials // 20)

    def collect(trials):
        for done, (t, cycles, censored) in enumerate(trials, start=1):
            results[t] = (cycles, censored)
            if progress is not None and (done % tick == 0 or done == n_trials):
                progress(done, n_trials)

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        base = (code.name, variant.value, p, max_cycles, engine, master_seed,
                point_index)
        chunks = [
            list(range(i, n_trials, workers * 4)) for i in range(workers * 4)
        ]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = pool.map(_run_trial_block, [base + (c,) for c in chunks])
            collect(chain.from_iterable(blocks))
    else:
        circuit = circuit_for(code.name, variant)
        collect(_iter_trials(circuit, p, max_cycles, engine, master_seed,
                             point_index, range(n_trials)))
    failure_cycles = [c for c, censored in results if not censored]
    n_censored = sum(1 for _, censored in results if censored)
    boot_rng = np.random.default_rng(
        np.random.SeedSequence([master_seed, point_index])
    )
    return aggregate_rate_estimate(failure_cycles, n_censored, boot_rng, n_bootstrap)


# ---------------------------------------------------------------------------
# deterministic fault injection (used by the fault-tolerance tests)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultOutcome:
    flipped: bool
    clean_after: int  # cycles until CLEAN_ZERO (injection cycle = 1); 0 = never
    classifications: tuple


def run_single_fault(
    circuit: Circuit,
    site,
    paulis,
    selector: str = "a",
    follow_cycles: int = 10,
    engine: str = "tableau",
) -> FaultOutcome:
    """Inject exactly one event into an otherwise noiseless run and follow
    it for ``follow_cycles`` clean cycles (stopping early once clean, since
    a clean state stays clean without noise)."""
    eng = make_engine(circuit, engine)
    state = eng.new_run()
    event = ErrorEvent(site, tuple(paulis))
    order = "ab" if selector == "a" else "ba"
    seen = []
    cls = eng.run_cycle(state, selector, [event], None)
    seen.append(cls)
    cycle_no = 1
    while (
        cls not in (Classification.CLEAN_ZERO, Classification.LOGICAL_FLIP)
        and cycle_no <= follow_cycles
    ):
        cls = eng.run_cycle(state, order[cycle_no % 2], (), None)
        seen.append(cls)
        cycle_no += 1
    return FaultOutcome(
        flipped=cls is Classification.LOGICAL_FLIP,
        clean_after=cycle_no if cls is Classification.CLEAN_ZERO else 0,
        classifications=tuple(seen),
    )
