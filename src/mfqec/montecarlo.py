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
  instruction (``_TableauEngine.run_cycle`` below).
* "frame" — an error-frame fast path: since the noiseless reference run is
  the identity on the clean state, the entire state is two bit masks (X and
  Z frame), gates permute frame bits, and classically-controlled
  corrections read frame bits directly.  The cycles a memory spends its
  time in, a cycle with one event on the clean frame and the zero-event
  cycles of the noiseless orbit that follows each such fault, are looked
  up in the C kernel's tables, filled whole when the engine packs its
  circuit and read by the Python loop on its first cycle; every other
  cycle runs its ops (``_FrameEngine._transition``, the tables' oracle).
  ``make_engine`` keeps one engine per circuit, so every estimate, sweep
  point and pool block of a process shares its tables.

Both consume the RNG stream identically (only error sampling draws), so a
trial gives bit-identical results under either engine; the test suite
enforces that trial-for-trial.  A Python trial draws from
``np.random.default_rng(seed)`` itself, and the C kernel below reproduces
that stream.

Estimates run whole trials in a C kernel (``_kernel.c``, built and loaded
by ``mfqec.kernel``) when the engine is a plain frame engine, p > 0 and
min(p, 1-p)·N <= 30 (``_kernel_trials`` has the full list).  One kernel
call seeds and runs a block of trials: it makes each trial's generator
``PCG64(trial_seed(...))`` by numpy's own ``SeedSequence`` hash and PCG64
seeding, reproduced in C word for word, and makes the same draws in the
same order, so its trials end on the cycles ``run_trial`` gives; the tests
compare the two trial for trial, and the seeding with numpy's.  It reads
a single fault on the clean frame, and a zero-event cycle on a frame of
the faults' noiseless orbits, from its tables after the same draws, and
runs the ops of every other cycle.  It is
built on first use with ``gcc -O2 -ffp-contract=off`` and no fast-math, so
that no double is rounded differently from Python, into ``__pycache__``
beside the source.  Everything else runs ``run_trial``, the portable path
and the oracle: the tableau, ``method="full"``, the BTPE range, a machine
where the build fails (one ``RuntimeWarning``), and an engine wrapped in a
proxy, as the benchmark's traced mode does, so a traced run measures the
Python loop.  An estimate decides once which of the two runs its trials;
either way a slice of trials returns each one's flip cycle, or 0.  One
worker runs the slices itself; more run kernel slices on threads, since
``ctypes`` releases the GIL around each kernel call, and Python-loop
slices in a process pool, since they hold it.

The kernel also resamples both bootstraps, a point's CI and the
threshold's (``resample_means`` says when): from the caller's PCG64 state
it makes numpy's ``integers`` draws and sums each resample exactly, so
every CI is the numpy loop's, bit for bit.  So a tableau-only run builds
the kernel too, on its first bootstrap.  With more than one worker a
large bootstrap runs as one chunk of resamples per worker at once, each
chunk after the first from the state it would start from if no draw
before it were rejected, and kept only when the chunk before it ended
there (``_split_sums``); the CIs stay the single call's.

An estimate is a point of the p_log(p) curve: ``estimate_logical_error_rate``
returns a ``SweepPoint``, which a sweep (``mfqec.threshold``) records as
it is.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import product

import numpy as np

from .circuits import Circuit, GateKind, Variant, build_circuit
from .codes import CodeSpec
from .pauli import PauliOperator
from .errors import (
    ErrorChannel,
    ErrorEvent,
    clean_cycle_log_probability,
    draw_event_paulis,
    error_count_cdf,
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
class TrialConfig:
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


@lru_cache(maxsize=None)
def circuit_for(code_name: str, variant: Variant) -> Circuit:
    """``build_circuit``, built once per process and shared by its callers."""
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


class _TableauEngine:
    name = "tableau"

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._fresh = prepare_logical_zero(circuit)

    def new_run(self) -> Tableau:
        return self._fresh.copy()

    def run_cycle(self, state: Tableau, selector: str, events,
                  rng=None) -> Classification:
        """Execute one cycle on the tableau ``state``.  Each event fires
        immediately after its site's instruction has executed ideally."""
        circuit = self.circuit
        by_site = {ev.site: ev for ev in events}
        idx = 0
        sites = circuit.error_sites(selector)
        for step in circuit.cycle(selector):
            for ins in step.instructions:
                kind = ins.kind
                if kind is GateKind.CNOT:
                    state.apply_CNOT(*ins.qubits)
                elif kind is GateKind.TOFFOLI:
                    state.classical_toffoli(*ins.qubits)
                elif kind is GateKind.CCZ:
                    state.classical_ccz(*ins.qubits)
                elif kind is GateKind.RESET:
                    state.reset_zero(ins.qubits[0], rng)
                elif kind is GateKind.H:
                    state.apply_H(ins.qubits[0])
                # IDLE: nothing
                ev = by_site.get(sites[idx])
                if ev is not None:
                    state.apply_pauli(event_pauli(ev, state.n))
                idx += 1
        return classify_state(state, circuit.code)


# ---------------------------------------------------------------------------
# fast engine: X/Z error frame as two bit masks
# ---------------------------------------------------------------------------

_OP_H, _OP_CNOT, _OP_TOFX, _OP_TOFZ, _OP_RESET = range(5)
_OPCODES = {GateKind.H: _OP_H, GateKind.CNOT: _OP_CNOT, GateKind.TOFFOLI: _OP_TOFX,
            GateKind.CCZ: _OP_TOFZ, GateKind.RESET: _OP_RESET}

# The channel numbers of the C kernel's site rows.
_CHANNEL_CODES = {ErrorChannel.MEMORY: 0, ErrorChannel.TWO_QUBIT: 1,
                  ErrorChannel.THREE_QUBIT: 2, ErrorChannel.INIT: 3}

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

    A cycle is a pure function of (selector, frame, events), and a memory
    spends its time in two kinds of call: one event on the all-zero frame,
    and no event on a frame of the noiseless orbits such faults start.  The
    C kernel holds both kinds as tables, filled whole for every single fault
    when ``kernel_circuit`` packs the circuit; on its first cycle the engine
    reads them (``_tables``) and looks those calls up there.  Every other
    call runs the compiled ops (``_transition``, the tables' oracle), as
    does every call where the kernel cannot pack the circuit (no library, a
    frame wider than 64 qubits).  Neither reads the RNG.
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
        self._packed = None  # the compiled cycles as a kernel.Circuit

    @staticmethod
    def _compile(circuit: Circuit, which: str):
        """One cycle as the C kernel's rows: op rows (opcode, three masks),
        a reset carrying its qubit's mask; one site row per instruction
        (ops executed up to and including it, channel, three qubit masks),
        zero-padded; and each site's index."""
        ops = []
        sites = []
        instructions = (ins for step in circuit.cycle(which) for ins in step.instructions)
        for ins, site in zip(instructions, circuit.error_sites(which), strict=True):
            masks = tuple(1 << q for q in ins.qubits) + (0,) * (3 - len(ins.qubits))
            opcode = _OPCODES.get(ins.kind)
            if opcode is not None:  # IDLE changes no frame
                ops.append((opcode, *masks))
            sites.append((len(ops), _CHANNEL_CODES[site.channel], *masks))
        site_index = {site: i for i, site in enumerate(circuit.error_sites(which))}
        return ops, sites, site_index

    def new_run(self):
        return [0, 0]  # [x frame, z frame]

    def kernel_circuit(self):
        """``pack(kernel.library())``, packed on first use and kept.  Packed
        in the calling thread and read-only after, so the kernel's threads
        share it."""
        if self._packed is None:
            from . import kernel

            self._packed = self.pack(kernel.library())
        return self._packed

    def pack(self, lib):
        """A new ``kernel.Circuit`` of the compiled cycles and classifier
        masks, with the tables of every single fault and its noiseless orbit
        filled by ``lib`` (``kernel.fill_tables``) unless ``lib`` is None."""
        from . import kernel

        packed = kernel.pack_circuit(
            [self._compiled[which][:2] for which in "ab"], _site_count(self.circuit),
            self.gen_masks, self.zl_mask, self.nondata_mask)
        if lib is not None:
            kernel.fill_tables(lib, packed, [
                sum(site.n_paulis for site in self.circuit.error_sites(w)) for w in "ab"])
        return packed

    @cached_property
    def _tables(self):
        """Per selector, the kernel's tables (``kernel.read_tables``) as
        ``run_cycle`` looks them up: single faults on the clean frame keyed
        by ``site_index << 6 | pauli_index`` and zero-event cycles keyed by
        ``fx << n_qubits | fz``, each to ``(fx', fz', classification)``.
        Empty where ``_kernel_trials`` could not pack the circuit."""
        from . import kernel

        if self._n > 64 or kernel.library() is None:
            return {"a": ({}, {}), "b": ({}, {})}
        classes = tuple(Classification)  # in the order of the kernel's codes
        n = self._n
        tables = {}
        for which, (faults, idle) in zip("ab", kernel.read_tables(self.kernel_circuit())):
            tables[which] = (
                {i << 6 | index: (x, z, classes[c]) for i, rows in enumerate(faults)
                 for index, (x, z, c) in enumerate(rows, 1)},
                {fx << n | fz: (x, z, classes[c]) for (fx, fz), (x, z, c) in idle.items()})
        return tables

    @staticmethod
    def _exec(ops, a, b, fx, fz):
        for code, m1, m2, m3 in ops[a:b]:
            if code == _OP_CNOT:
                if fx & m1:
                    fx ^= m2
                if fz & m2:
                    fz ^= m1
            elif code == _OP_TOFX:
                if (fx & m1) and (fx & m2):
                    fx ^= m3
            elif code == _OP_TOFZ:
                if (fx & m1) and (fx & m2):
                    fz ^= m3
            elif code == _OP_RESET:
                fx &= ~m1
                fz &= ~m1
            else:  # H: swap the two frame bits on the qubit
                if bool(fx & m1) != bool(fz & m1):
                    fx ^= m1
                    fz ^= m1
        return fx, fz

    def run_cycle(self, state, selector: str, events, rng=None) -> Classification:
        fx, fz = state
        faults, idle = self._tables[selector]
        if not events:
            out = idle.get(fx << self._n | fz) if fx or fz else _CLEAN
        elif len(events) == 1 and not (fx or fz):
            ev = events[0]
            out = faults.get(self._compiled[selector][2][ev.site] << 6
                             | _PAULI_INDEX[ev.paulis])
        else:
            out = None
        if out is None:
            out = self._transition(selector, fx, fz, events)
        state[0], state[1], cls = out
        return cls

    def _transition(self, selector: str, fx, fz, events):
        """One cycle from frame (fx, fz): (fx', fz', classification)."""
        ops, sites, site_index = self._compiled[selector]
        done = 0
        for ev in sorted(events, key=lambda e: site_index[e.site]):
            upto = sites[site_index[ev.site]][0]
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


ENGINES = {"tableau": _TableauEngine, "frame": _FrameEngine}


def make_engine(circuit: Circuit, name: str):
    """The engine called ``name`` of ``circuit``: one per (circuit, name),
    made on first use and kept on the circuit, so every estimate of a
    process shares its packed circuit and tables."""
    eng = circuit.engines.get(name)
    if eng is None:
        try:
            cls = ENGINES[name]
        except KeyError:
            raise ValueError(f"unknown engine {name!r}") from None
        eng = circuit.engines[name] = cls(circuit)
    return eng


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

def _inverts(n: int, p: float) -> bool:
    """Whether numpy's binomial(n, p) runs inversion, min(p, 1-p)·n <= 30;
    above that it runs BTPE, which the C kernel does not reproduce."""
    return min(p, 1.0 - p) * n <= 30.0


def _inversion_constants(n: int, p: float):
    """(q, qn, bound) of numpy's binomial inversion at (n, p), p <= 0.5: q =
    1 - p, qn = (1-p)**n as exp(n·log1p(-p)), and the count past which a
    draw starts over.  Raises ``ValueError`` in the BTPE range."""
    if not _inverts(n, p):
        raise ValueError(f"binomial({n}, {p}) is in numpy's BTPE range")
    q = 1.0 - p
    np_ = n * p
    return q, math.exp(n * math.log1p(-p)), int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))


def _choose_sites(n: int, k: int, rng) -> list:
    """``sorted(rng.choice(n, k, replace=False))`` from the same draws: k
    distinct site indices, uniform without replacement, ascending.

    For n <= 10000 numpy's choice runs Floyd's algorithm, a bounded draw in
    [0, j] for each j = n-k ... n-1, and then shuffles its k picks with k-1
    more bounded draws, in [0, i) for i = k ... 2.  ``rng.integers`` makes
    the same bounded draws, so the generator ends in the same state; the
    shuffle's draws are spent and ignored, since the sites come out sorted."""
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


def _site_count(circuit: Circuit) -> int:
    """N, the number of error sites of each cycle; cycles a and b agree."""
    n_sites = len(circuit.error_sites("a"))
    if len(circuit.error_sites("b")) != n_sites:
        raise AssertionError("cycles a and b disagree on site count")
    return n_sites


def run_trial(cfg: TrialConfig, engine, method: str = "skip") -> TrialResult:
    """One seeded trial of ``engine.circuit`` on ``engine``, an engine from
    ``make_engine``.  ``method="full"`` simulates every cycle with
    Binomial(N, p) events instead of skipping provably clean stretches.

    The trial draws from ``np.random.default_rng(cfg.seed)``.  Estimates
    run this trial in the C kernel where they can (``_kernel_trials``),
    which makes the same draws from the same PCG64 stream; this loop is the
    portable path and the kernel's oracle."""
    if method not in ("skip", "full"):
        raise ValueError("method must be 'skip' or 'full'")
    circuit = engine.circuit
    if cfg.p == 0.0:
        # no error can ever occur; the clean state survives to the cap
        return TrialResult(cfg.max_cycles, True)
    n_sites = _site_count(circuit)
    cycles = (("a", circuit.error_sites("a")), ("b", circuit.error_sites("b")))
    rng = np.random.default_rng(cfg.seed)
    state = engine.new_run()
    # What the loop reads every cycle is bound to locals: each cycle already
    # pays numpy's per-call cost for every draw.
    run_cycle = engine.run_cycle
    p, max_cycles = cfg.p, cfg.max_cycles
    skip = method == "skip"
    flip, clean_zero = Classification.LOGICAL_FLIP, Classification.CLEAN_ZERO
    t = 0
    clean = True
    while t < max_cycles:
        if clean and skip:
            t += sample_clean_run_length(p, n_sites, rng)
            if t >= max_cycles:
                break
            k = sample_error_count_given_any(p, n_sites, rng)
        else:
            k = int(rng.binomial(n_sites, p))
        selector, sites = cycles[t & 1]
        if k == 1:  # _choose_sites' one draw, without its set and sort
            site = sites[rng.integers(n_sites)]
            events = (ErrorEvent(site, draw_event_paulis(site.channel, rng)),)
        elif k:
            events = _draw_cycle_events(sites, _choose_sites(n_sites, k, rng), rng)
        else:
            events = ()
        cls = run_cycle(state, selector, events, rng)
        t += 1
        if cls is flip:
            return TrialResult(t, False)
        clean = cls is clean_zero
    return TrialResult(cfg.max_cycles, True)


# ---------------------------------------------------------------------------
# rate estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One point of a p_log(p) curve: the rate estimate at physical error
    rate ``p``, as ``estimate_logical_error_rate`` returns it and a sweep
    records it.

    ``p_log`` (and the CI bounds and ``mean_cycles``) are NaN when every
    trial at this point was censored: the point then carries no rate
    information but keeps its place in the grid.  ``failure_cycles``
    holds the raw uncensored cycles-to-failure, in trial order, so the
    threshold bootstrap can resample them; it may be empty for points
    reloaded from a CSV, in which case the bootstrap holds the point fixed
    at its ``p_log``.
    """

    p: float
    p_log: float
    ci_low: float
    ci_high: float
    n_trials: int
    n_censored: int
    n_failures: int
    mean_cycles: float
    failure_cycles: tuple = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if math.isfinite(self.p_log) and not (
            self.ci_low <= self.p_log <= self.ci_high
        ):
            raise ValueError(
                f"CI [{self.ci_low}, {self.ci_high}] does not contain "
                f"p_log={self.p_log}"
            )


def trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    ss = np.random.SeedSequence([master_seed, point_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _exact_ints(a: np.ndarray):
    """``a`` as a C-contiguous int64 array when it is a non-empty 1-D set of
    at most 2**32 integers (of any dtype) whose every resample sum is exact
    in a double; otherwise None."""
    if a.ndim != 1 or not 0 < a.size <= 1 << 32 or a.dtype.kind not in "iuf":
        return None
    hi, lo = a.max(), a.min()
    if not (math.isfinite(hi) and math.isfinite(lo)):
        return None
    if max(int(hi), -int(lo)) * a.size >= 1 << 53:
        return None
    ints = np.ascontiguousarray(a, dtype=np.int64)
    if a.dtype.kind == "f" and not (ints == a).all():
        return None
    return ints


# The fewest draws a bootstrap splits.  A split pays about 50-80 us: a
# chunk's hand-off to a pool thread and back, its speculated start state,
# and a second kernel call's glue.  Median times of a 2-way split over the
# serial call, 1,000 resamples of one set, alternating, 2-vCPU VM: 1.55 at
# 2**16 draws, 1.20 at 2**17, 0.93 at 2**18, 0.73 at 2**19 and 0.64 at
# 1.1M (a bf-sweep point).
_MIN_SPLIT_DRAWS = 1 << 18


def resample_means(rng, sets, n_resamples: int, workers: int = 1,
                   pool=None) -> np.ndarray:
    """Bootstrap means of each set: an (n_resamples, len(sets)) array whose
    row r, column j is ``sets[j][rng.integers(0, n_j, size=n_j)].mean()``,
    drawn resample by resample and set by set; ``rng`` is left where those
    draws leave it.  The C kernel makes the draws when ``rng``'s bit
    generator is a ``PCG64``, the library loads, and every set is one that
    ``_exact_ints`` takes: a resample's integer sum is then exact in any
    order, and sum / n is numpy's mean.  Otherwise the numpy loop below,
    the kernel's oracle, runs.

    With ``workers > 1`` and at least ``_MIN_SPLIT_DRAWS`` draws, the
    kernel's resamples are split into one chunk per worker, which run at
    once (``_split_sums``): the first in this thread, the others on the
    thread pool ``pool``, or on a pool of ``workers - 1`` threads that the
    call opens and shuts down.  The means and the final state are the
    single kernel call's, bit for bit."""
    arrays = [np.asarray(s) for s in sets]
    if arrays and type(rng.bit_generator) is np.random.PCG64:
        ints = [_exact_ints(a) for a in arrays]
        if all(i is not None for i in ints):
            from . import kernel

            lib = kernel.library()
            if lib is not None:
                sizes = np.array([i.size for i in ints], dtype=np.int64)
                values = ints[0] if len(ints) == 1 else np.concatenate(ints)
                sums = np.empty((n_resamples, len(sizes)), dtype=np.int64)
                words = kernel.generator_words(rng.bit_generator)
                # draws per resample, which a split needs; n = 1 draws nothing
                draws = int(sizes[sizes > 1].sum()) if workers > 1 else 0
                if _splits(n_resamples, draws, workers):
                    words = _split_sums(lib, words, values, sizes, sums, draws, workers,
                                        pool)
                else:
                    words = kernel.resample_sums(lib, words, values, sizes, sums)
                kernel.set_generator_words(rng.bit_generator, words)
                return sums / sizes
    means = np.empty((n_resamples, len(arrays)))
    for r in range(n_resamples):
        for j, a in enumerate(arrays):
            means[r, j] = a[rng.integers(0, a.size, size=a.size)].mean()
    return means


def _splits(n_resamples: int, draws: int, workers: int) -> bool:
    """Whether ``n_resamples`` resamples of ``draws`` draws each are split
    over ``workers``."""
    return (workers > 1 and n_resamples > 1
            and n_resamples * draws >= max(_MIN_SPLIT_DRAWS, 1))


def _split_sums(lib, words, values, sizes, sums, draws: int, workers: int, pool):
    """``kernel.resample_sums(lib, words, values, sizes, sums)``, the rows of
    ``sums`` cut into consecutive chunks, one per worker, that run at once:
    the first here, the rest on ``pool`` (None: a pool opened for the
    call).  Chunk 0 starts from ``words``; chunk i from the state that
    ``draws`` draws per resample before it reach when none is rejected
    (``kernel.advanced_words``).  Chunk i is kept when chunk i - 1 really
    ended in that state (``kernel.same_state``); from the first that did
    not, the rows left are split again from its true end state, so every
    sum and the returned end state are the single call's.  Every chunk
    submitted is waited for before the call returns or raises, so no
    kernel call outlives its arrays."""
    from . import kernel

    if pool is None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers - 1) as own:
            return _split_sums(lib, words, values, sizes, sums, draws, workers, own)
    scratch = np.random.PCG64(0)  # advanced_words's generator
    done, n_resamples = 0, len(sums)
    while _splits(n_resamples - done, draws, workers):
        step = -(-(n_resamples - done) // workers)
        bounds = [*range(done, n_resamples, step), n_resamples]
        starts = [words] + [kernel.advanced_words(scratch, words, (b - done) * draws)
                            for b in bounds[1:-1]]
        chunks = []
        try:
            for start, lo, hi in zip(starts[1:], bounds[1:], bounds[2:]):
                chunks.append(pool.submit(kernel.resample_sums, lib, start, values, sizes,
                                          sums[lo:hi]))
            ends = [kernel.resample_sums(lib, words, values, sizes, sums[done:bounds[1]])]
        finally:
            for chunk in chunks:
                chunk.exception()  # waits; a chunk's error is raised by result() below
        ends += [chunk.result() for chunk in chunks]
        missed = next((i for i in range(1, len(ends))
                       if not kernel.same_state(ends[i - 1], starts[i])), None)
        if missed is None:
            return ends[-1]
        done, words = bounds[missed], ends[missed - 1]
    return kernel.resample_sums(lib, words, values, sizes, sums[done:])


BOOTSTRAP_RESAMPLES = 1000  # bootstrap means behind a point's CI
_CI_QUANTILES = (2.5 / 100, 97.5 / 100)  # np.percentile's q / 100 of a 95% CI


def percentile_ci(values) -> tuple:
    """``tuple(np.percentile(values, [2.5, 97.5]))`` as Python floats, to
    the bit, for a non-empty 1-D set of doubles.  Each percentile is
    numpy's "linear" one: at virtual index v = (n - 1)·q, the order
    statistics i = floor(v) and i + 1 (both the last one where v >= n - 1)
    and weight t = v - i (1 there, as numpy's -1 index gives), interpolated
    as numpy's ``_lerp`` does, from b when t >= 0.5.  One ``np.partition``
    places those order statistics, the first and the last; a NaN, which
    sorts last, makes both NaN, as in numpy.  numpy computes its linear
    percentiles this way from 1.22, this package's floor, on;
    ``test_percentile_ci_is_numpys_percentile_to_the_bit`` compares the
    two on the numpy installed."""
    a = np.asarray(values, dtype=np.float64)
    n = a.size
    picks = []
    for q in _CI_QUANTILES:
        v = (n - 1) * q
        i = math.floor(v)
        if v >= n - 1:
            i, t, j = n - 1, v + 1.0, n - 1
        else:
            t, j = v - i, i + 1
        picks.append((i, j, t))
    part = np.partition(a, sorted({0, n - 1, *(k for i, j, _ in picks for k in (i, j))}))
    if math.isnan(part[n - 1]):
        return math.nan, math.nan
    out = []
    for i, j, t in picks:
        lo, hi = float(part[i]), float(part[j])
        diff = hi - lo
        out.append(hi - diff * (1.0 - t) if t >= 0.5 else lo + diff * t)
    return tuple(out)


def aggregate_rate_estimate(p, failure_cycles, n_censored: int, rng, workers: int = 1,
                            pool=None) -> SweepPoint:
    """The point at ``p`` from the cycles to failure of its uncensored
    trials and its count of censored ones: p_log = 1/mean, with the 95%
    percentile CI of ``BOOTSTRAP_RESAMPLES`` bootstrap means drawn from
    ``rng`` (``resample_means`` on ``workers`` and ``pool``).  Raises
    AllCensored when no trial failed."""
    samples = np.asarray(failure_cycles, dtype=np.float64)
    n_trials = samples.size + n_censored
    if samples.size == 0:
        raise AllCensored(f"no failures in {n_trials} trials")
    mean = float(samples.mean())
    if samples.size == 1 or np.all(samples == samples[0]):
        ci = (1.0 / mean, 1.0 / mean)
    else:
        means = resample_means(rng, [samples], BOOTSTRAP_RESAMPLES, workers, pool)[:, 0]
        lo_mean, hi_mean = percentile_ci(means)
        ci = (1.0 / hi_mean, 1.0 / lo_mean)
    return SweepPoint(
        p=p,
        p_log=1.0 / mean,
        ci_low=ci[0],
        ci_high=ci[1],
        n_trials=n_trials,
        n_censored=n_censored,
        n_failures=samples.size,
        mean_cycles=mean,
        failure_cycles=tuple(int(c) for c in failure_cycles),
    )


def kernel_rate(p, n_sites: int):
    """The kernel's ``Rate`` at (p, N): the constants of a trial's clean
    runs, error counts and binomial draws, from the Python samplers' own
    helpers, so a rejected p raises their error, and a p in numpy's BTPE
    range ``_inversion_constants``'s ``ValueError``."""
    from . import kernel

    bin_p = min(p, 1.0 - p)
    return kernel.pack_rate(clean_cycle_log_probability(p, n_sites),
                            error_count_cdf(p, n_sites), bin_p,
                            *_inversion_constants(n_sites, bin_p), p > 0.5)


def _kernel_trials(eng, p, max_cycles):
    """``run_trial(TrialConfig(p, trial_seed(master_seed, point_index, t),
    max_cycles), eng)`` in the C kernel for a block of trials, as a function
    ``block(master_seed, point_index, indices)`` that returns each trial's
    cycle of the logical flip, or 0 for a censored trial; None where the
    trials must run in Python.

    The kernel runs a trial when ``eng`` is a ``_FrameEngine`` (not the
    tableau, nor a proxy around an engine), p > 0 and numpy's binomial runs
    inversion, not BTPE (``_inverts``), and the library could be built.  A
    frame wider than 64 qubits, a cap past int64 and a clean run that
    overflows a double are left to ``run_trial`` as well.  The config and
    the per-(p, N) constants are checked here, once, by ``TrialConfig`` and
    the Python samplers' helpers, so a bad input raises the same error; a
    negative seed or point raises ``trial_seed``'s.  The kernel seeds each
    trial itself, from the ``SeedSequence`` words of master seed and point,
    which are computed once per (master seed, point)."""
    TrialConfig(p, 0, max_cycles)
    if (type(eng) is not _FrameEngine or p == 0.0 or max_cycles >= 1 << 63
            or eng.circuit.n_qubits > 64):
        return None
    n_sites = _site_count(eng.circuit)
    log_clean = clean_cycle_log_probability(p, n_sites)
    if math.isinf(math.log1p(-(1.0 - 2**-53)) / log_clean):
        return None  # int() of an infinite run length raises in Python
    if not _inverts(n_sites, p):
        return None  # numpy's BTPE range
    from . import kernel

    lib = kernel.library()
    if lib is None:
        return None
    args = (lib, eng.kernel_circuit(), kernel_rate(p, n_sites), max_cycles)

    def block(master_seed, point_index, indices):
        return kernel.skip_block(*args, kernel.seed_prefix(master_seed, point_index),
                                 indices)

    return block


def _python_trials(code_name, variant_value, p, max_cycles, engine, master_seed,
                   point_index, indices) -> list:
    """What a ``_kernel_trials`` block returns for ``indices``, each trial's
    cycle of the logical flip or 0 when censored, from ``run_trial`` on the
    engine called ``engine`` of the circuit of ``code_name`` and
    ``variant_value``."""
    eng = make_engine(circuit_for(code_name, Variant(variant_value)), engine)
    cycles = []
    for t in indices:
        res = run_trial(TrialConfig(p, trial_seed(master_seed, point_index, t),
                                    max_cycles), eng)
        cycles.append(0 if res.censored else res.cycles_to_failure)
    return cycles


def _run_trial_block(args):
    """Process-pool entry point: ``_python_trials(*args)``, so the trial
    indices are the last argument."""
    return _python_trials(*args)


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
    engine: str = "frame",
    progress=None,
    _pool=None,
) -> SweepPoint:
    """The point at ``p`` from n_trials independent seeded trials; p_log =
    1/mean cycles-to-failure over uncensored trials with a bootstrap CI
    (``aggregate_rate_estimate``).  Results are identical for
    any worker count because each trial's seed depends only on
    (master_seed, point_index, trial index) and the slices are joined in
    trial order.

    ``_kernel_trials`` decides once whether the C kernel or ``run_trial``
    runs the trials.  Either way they are cut into slices of ``tick``
    trials, the progress step, and each slice returns each trial's flip
    cycle, 0 when censored.  The slices are the same with or without
    ``progress`` and for any worker count, so a SIGINT, which Python
    handles when a kernel call returns, stops an estimate within one slice
    per worker on every path.  The slices run in this thread with one worker; with
    more, on a thread pool when the kernel runs them, since ``ctypes``
    drops the GIL around each kernel call, else on a process pool, since
    ``run_trial`` holds it.  Forked workers inherit the circuit and engine
    built here.  The thread pool is ``_pool`` when a sweep hands over its
    own (``iter_sweep``), which outlives the call; otherwise the call
    opens a pool and shuts it down before it returns.  The bootstrap then
    splits its resamples over ``workers`` on that thread pool, after the
    last slice (``resample_means``); on a process pool's path it has only
    a sweep's thread pool, or opens its own.  On any exception (a
    ``KeyboardInterrupt`` from ``progress``, a crashed worker) the slices
    of this call not yet started are cancelled, so at most one slice per
    worker still runs; a pool the call opened is also shut down, waiting
    for those."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    tick = max(1, n_trials // 20)
    slices = [range(s, min(s + tick, n_trials)) for s in range(0, n_trials, tick)]
    block = _kernel_trials(make_engine(circuit_for(code.name, variant), engine),
                           p, max_cycles)
    base = (code.name, variant.value, p, max_cycles, engine, master_seed, point_index)
    run_slice = (partial(_python_trials, *base) if block is None
                 else partial(block, master_seed, point_index))
    owned = None  # a pool this call opens, and shuts down
    if workers <= 1:
        parts = map(run_slice, slices)
    elif block is not None:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = owned = ThreadPoolExecutor(max_workers=workers)
        parts = _pool.map(run_slice, slices)
    else:
        from concurrent.futures import ProcessPoolExecutor

        owned = ProcessPoolExecutor(max_workers=workers)
        parts = owned.map(_run_trial_block, [base + (s,) for s in slices])
    cycles = []
    try:
        for part in parts:
            cycles += part
            if progress is not None:
                progress(len(cycles), n_trials)
        failure_cycles = [c for c in cycles if c]
        boot_rng = np.random.default_rng(
            np.random.SeedSequence([master_seed, point_index])
        )
        return aggregate_rate_estimate(p, failure_cycles, n_trials - len(failure_cycles),
                                       boot_rng, workers, _pool)
    finally:
        if workers > 1:
            parts.close()  # cancels the slices not yet started
        if owned is not None:
            owned.shutdown(cancel_futures=True)


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
    """Inject exactly one event into an otherwise noiseless run on the
    circuit's engine called ``engine`` and follow it for ``follow_cycles``
    clean cycles (stopping early once clean, since a clean state stays
    clean without noise)."""
    eng = make_engine(circuit, engine)
    state = eng.new_run()
    event = ErrorEvent(site, tuple(paulis))
    order = "ab" if selector == "a" else "ba"
    seen = []
    cls = eng.run_cycle(state, selector, [event])
    seen.append(cls)
    cycle_no = 1
    while (
        cls not in (Classification.CLEAN_ZERO, Classification.LOGICAL_FLIP)
        and cycle_no <= follow_cycles
    ):
        cls = eng.run_cycle(state, order[cycle_no % 2], ())
        seen.append(cls)
        cycle_no += 1
    return FaultOutcome(
        flipped=cls is Classification.LOGICAL_FLIP,
        clean_after=cycle_no if cls is Classification.CLEAN_ZERO else 0,
        classifications=tuple(seen),
    )
