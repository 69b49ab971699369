"""Build and load the C trial kernel, ``_kernel.c``.

The kernel seeds and runs whole blocks of skip-sampled trials on a frame
engine's compiled cycles (``montecarlo._kernel_trials`` decides when), and
resamples bootstraps on a ``PCG64`` generator's own stream
(``resample_sums``; ``montecarlo.resample_means`` decides when, and splits
a large bootstrap into chunks that start at ``advanced_words``).  With no
half-word buffered, the resampler takes a set's next 8 draws from 4 words
that it computes at once, each by jumping the LCG ahead from the same
state, and keeps them when none of their Lemire products has a low word
below the range; otherwise it makes one draw as numpy does, rejections
and buffered half included, so the sums and the final state are numpy's.
Each trial's generator is ``PCG64(trial_seed(master, point, trial))``,
made in C by numpy's own ``SeedSequence`` hash and PCG64 seeding, from the
``seed_words`` of master and point.  A circuit is packed once
(``pack_circuit``) and given its tables (``fill_tables``): arrays that
Python allocates and C fills, in one pass, with the result of every single
fault on the clean frame and of every zero-event cycle on those faults'
noiseless orbits, which the trials read in place of running those cycles'
ops.  A residual row also links to the other cycle's idle row of its result
frame: its class word is ``class | (slot + 1) << 2``, set once every idle
table has its final size, and a trial's zero-event cycle reads the row the
last row read links to, so it probes an idle table only after a cycle that
ran its ops.  The Python trial loop reads the same tables, links masked off
(``read_tables``), and ``_FrameEngine._transition``, which runs a cycle's
ops, is their oracle.
The library is built on first use with ``gcc -O2 -shared -fPIC
-ffp-contract=off``: no fast-math, no ``-march=native`` and no contraction
into FMA, so that every double is rounded as Python rounds it and the trial
consumes the RNG stream exactly as the Python loop does.  The kernel calls
libm's ``log`` and ``log1p``: a clean run's length is
``floor(log1p(-u) / log_clean)`` in Python, and the kernel takes it from the
cheaper ``log(1 - u)`` times ``1 / log_clean`` whenever a window 2**-40
wide, relative, around that product holds no integer, which certifies the
floor; otherwise it computes Python's quotient (``mfqec_clean_draws`` is
the test hook).  The library goes
to ``__pycache__`` next to this file, named by a hash of the source and the
flags; it is compiled to a temporary name and moved into place with
``os.replace``, so that processes building at once (pool workers) all end
up loading one complete file.
``library()`` loads it with ``ctypes`` once per process; if that fails (no
compiler, a read-only package directory) it warns once and returns None,
and the trials and bootstraps run in Python.
"""
from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import subprocess
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
BUILD_DIR = Path(__file__).with_name("__pycache__")
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_u32, _u64, _i64, _f64 = ctypes.c_uint32, ctypes.c_uint64, ctypes.c_int64, ctypes.c_double
_MASK64 = (1 << 64) - 1


class Cycle(ctypes.Structure):
    """``cycle_t``: one compiled cycle and its tables.  ``ops`` rows are
    (opcode, mask, mask, mask); ``sites`` rows are (ops before the site's
    event, channel, three qubit masks).  ``fill_tables`` makes the rest:
    ``fresh`` rows (fx', fz', class word), one per single fault on the
    clean frame, from row ``fresh_base[site]`` for the site's Pauli index 1
    on; ``idle_mask + 1`` open-addressed ``idle`` rows (fx, fz, fx', fz',
    class word), ``n_idle`` of them in use, the rest zero.  A class word is
    the class in its low ``LINK_SHIFT`` bits and, for a residual row, the
    slot + 1 of the other cycle's idle row keyed by (fx', fz') above
    them."""
    _fields_ = [("n_ops", _i64), ("ops", ctypes.POINTER(_u64)),
                ("sites", ctypes.POINTER(_u64)), ("n_fresh", _i64),
                ("fresh", ctypes.POINTER(_u64)), ("fresh_base", ctypes.POINTER(_i64)),
                ("idle_mask", _i64), ("idle", ctypes.POINTER(_u64)), ("n_idle", _i64)]


class Circuit(ctypes.Structure):
    """``circuit_t``: cycles a and b, the site count and the classifier's
    masks; ``gens`` rows are (x mask, z mask)."""
    _fields_ = [("cycle", Cycle * 2), ("n_sites", _i64), ("n_gens", _i64),
                ("gens", ctypes.POINTER(_u64)), ("zl_mask", _u64),
                ("nondata_mask", _u64)]


class Rate(ctypes.Structure):
    """``rate_t``: the per-(p, N) constants of a trial's draws."""
    _fields_ = [("log_clean", _f64), ("count_cdf", ctypes.POINTER(_f64)),
                ("bin_p", _f64), ("bin_q", _f64), ("bin_qn", _f64),
                ("bin_bound", _i64), ("bin_reflect", _i64)]


def _array(ctype, values):
    return (ctype * max(1, len(values)))(*values)


def pack_circuit(cycles, n_sites: int, gens, zl_mask: int, nondata_mask: int) -> Circuit:
    """A ``Circuit`` from two (op rows, site rows) pairs and the classifier's
    masks; it keeps its arrays alive."""
    packed = Circuit(n_sites=n_sites, n_gens=len(gens), zl_mask=zl_mask,
                     nondata_mask=nondata_mask)
    keep = [_array(_u64, [m for g in gens for m in g])]
    packed.gens = keep[0]
    for i, (ops, sites) in enumerate(cycles):
        ops_arr = _array(_u64, [v for row in ops for v in row])
        sites_arr = _array(_u64, [v for row in sites for v in row])
        packed.cycle[i] = Cycle(len(ops), ops_arr, sites_arr)
        keep += [ops_arr, sites_arr]
    packed._keep = keep
    return packed


FRESH_ROW, IDLE_ROW = 3, 5  # words per fresh row and per idle row
LINK_SHIFT = 2  # a class word's link above its class bits
_IDLE_SLOTS = 64  # the idle rows a table starts from, doubled while they overflow
_GROW_IDLE = ctypes.CFUNCTYPE(ctypes.c_void_p, _i64, _i64)  # grow_idle_fn


def _idle_table(slots: int):
    """Zeroed room for ``slots`` idle rows."""
    return (_u64 * (IDLE_ROW * slots))()


def fill_tables(lib, packed: Circuit, fresh_rows) -> None:
    """Allocate and fill (``mfqec_fill_tables``) the tables of both cycles
    of ``packed``, which has ``fresh_rows[s]`` single faults in cycle s.
    An idle table that would pass half full is handed a table of twice its
    slots from here, and the fill moves its rows there and goes on, so the
    fill runs once; ``packed`` keeps the final arrays alive.  A table that
    cannot be allocated raises ``MemoryError`` once the fill has returned:
    an exception cannot pass through C."""
    keep = packed._tables = {}
    for s, rows in enumerate(fresh_rows):
        cyc = packed.cycle[s]
        cyc.n_fresh = rows
        keep[s, "fresh"] = cyc.fresh = (_u64 * (FRESH_ROW * rows))()
        keep[s, "base"] = cyc.fresh_base = (_i64 * packed.n_sites)()
        keep[s, "idle"] = cyc.idle = _idle_table(_IDLE_SLOTS)
        cyc.idle_mask = _IDLE_SLOTS - 1
    outgrown = []  # tables the fill moves out of, alive until it returns

    @_GROW_IDLE
    def grow(s, slots):
        try:
            table = _idle_table(slots)
        except MemoryError:
            return None  # the fill returns -2
        outgrown.append(keep[s, "idle"])
        keep[s, "idle"] = table
        return ctypes.addressof(table)

    status = lib.mfqec_fill_tables(packed, grow)
    if status == -1:
        raise ValueError(f"fresh rows {list(fresh_rows)} do not match the sites' Paulis")
    if status:
        raise MemoryError("no memory for a larger idle table")


def read_tables(packed: Circuit) -> list:
    """The filled tables of both cycles of ``packed`` as plain Python: per
    cycle, ``(faults, idle)``.  ``faults[i]`` lists site i's fresh rows
    (fx', fz', class) by Pauli index, 1 first; ``idle`` maps each frame
    (fx, fz) in use to its row (fx', fz', class).  Links are masked off."""
    mask = (1 << LINK_SHIFT) - 1
    tables = []
    for cyc in packed.cycle:
        rows = cyc.fresh[:FRESH_ROW * cyc.n_fresh]
        rows = [(*rows[r:r + 2], rows[r + 2] & mask) for r in range(0, len(rows), FRESH_ROW)]
        bounds = [*cyc.fresh_base[:packed.n_sites], cyc.n_fresh]
        slots = cyc.idle[:IDLE_ROW * (cyc.idle_mask + 1)]
        idle = {}
        for r in range(0, len(slots), IDLE_ROW):
            if slots[r] | slots[r + 1]:
                idle[slots[r], slots[r + 1]] = (slots[r + 2], slots[r + 3],
                                                slots[r + 4] & mask)
        tables.append(([rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])], idle))
    return tables


def pack_rate(log_clean: float, count_cdf, p: float, q: float, qn: float,
              bound: int, reflect: bool) -> Rate:
    """A ``Rate``; it keeps its count table alive.  The table goes through
    numpy, which converts surface17's 675 floats several times faster than
    ``_array``'s ``ctypes`` constructor."""
    cdf = np.array(count_cdf, dtype=np.float64)
    packed = Rate(log_clean, cdf.ctypes.data_as(ctypes.POINTER(_f64)), p, q, qn, bound,
                  int(reflect))
    packed._keep = cdf
    return packed


def state_words(state: dict) -> tuple:
    """The four 64-bit words (state high, state low, inc high, inc low) of
    a ``PCG64().state`` dict, as the kernel's test hooks take and return a
    generator state."""
    s, inc = state["state"]["state"], state["state"]["inc"]
    return s >> 64, s & _MASK64, inc >> 64, inc & _MASK64


def seed_words(*values) -> list:
    """The uint32 words ``SeedSequence`` hashes for the entropy list
    ``values``: each value's words, low word first, one word for a value
    below 2**32 (zero included).  A negative value raises numpy's
    ``ValueError``."""
    words = []
    for value in map(operator.index, values):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=64)
def seed_prefix(master_seed, point_index) -> tuple:
    """``seed_words(master_seed, point_index)`` as ``mfqec_skip_block`` takes
    them: a uint32 array and its length."""
    words = seed_words(master_seed, point_index)
    return _array(_u32, words), len(words)


def skip_block(lib, circuit: Circuit, rate: Rate, max_cycles: int, prefix,
               indices) -> list:
    """Each trial's cycle of failure, 0 when censored, for the trial
    ``indices`` of the point whose ``seed_prefix`` is ``prefix``.  The
    indices must be below 2**64, as an estimate's are: ``ctypes`` would
    wrap a larger one."""
    n = len(indices)
    out = (_i64 * n)()
    lib.mfqec_skip_block(circuit, rate, max_cycles, *prefix, _array(_u64, indices), n, out)
    return out[:]


def generator_words(bit_generator) -> np.ndarray:
    """The six words ``mfqec_resample_sums`` takes of the ``PCG64``
    ``bit_generator``'s state: ``state_words`` and then the buffered
    half-word and its flag, as a uint64 array."""
    state = bit_generator.state
    return np.array([*state_words(state), state["uinteger"], state["has_uint32"]],
                    dtype=np.uint64)


def set_generator_words(bit_generator, words) -> None:
    """Set the ``PCG64`` ``bit_generator`` to the state of the six
    ``words``."""
    hi, lo, inc_hi, inc_lo, half, has_half = words.tolist()
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                           "has_uint32": has_half, "uinteger": half}


def advanced_words(scratch, words, draws: int) -> np.ndarray:
    """The six words of the state ``draws`` 32-bit draws after ``words``,
    none rejected, reached by numpy's ``PCG64.advance`` on the ``PCG64``
    ``scratch``.  A buffered half is the first draw; ``advance`` clears
    it, so the half left buffered by an odd number of draws from whole
    words, the high half of the last word, is set here."""
    has_half = int(words[5])
    if has_half and not draws:
        return words.copy()
    draws -= has_half
    set_generator_words(scratch, words)
    scratch.advance(draws // 2)
    half = int(scratch.random_raw()) >> 32 if draws & 1 else 0
    end = generator_words(scratch)
    end[4:] = half, draws & 1
    return end


def same_state(a, b) -> bool:
    """Whether the six words ``a`` and ``b`` are one state for every draw
    to come: equal LCG state and increment, equal flag, and, when a half
    is buffered, equal half.  An unflagged half is a spent word numpy
    keeps but never reads.  A buffered half is the high half of the word
    before the state, so on one stream it agrees whenever the rest does;
    comparing it checks the half that ``advanced_words`` sets."""
    return bool((a[:4] == b[:4]).all() and a[5] == b[5] and (not a[5] or a[4] == b[4]))


def resample_sums(lib, words, values, sizes, out) -> np.ndarray:
    """Fill the (n_resamples, len(sizes)) int64 array ``out``: for each
    resample (row) and each set in order, the sum of ``sizes[j]`` values
    picked from set j by ``integers(sizes[j])`` on the ``PCG64`` state of
    the six ``words`` (``generator_words``).  Returns the words of the state
    those draws end in; ``words`` is left as it was.  ``values`` holds the
    sets concatenated; both are int64 arrays, and ``out`` is C-contiguous."""
    end = words.copy()
    lib.mfqec_resample_sums(end, values, sizes, len(sizes), len(out), out)
    return end


def library_path(directory, source=SOURCE) -> Path:
    """Where the library built from ``source`` as it is today and the
    flags lives."""
    digest = hashlib.sha256(Path(source).read_bytes() + " ".join(CFLAGS).encode())
    return Path(directory) / f"_kernel-{digest.hexdigest()[:16]}.so"


def build(directory, source=SOURCE) -> Path:
    """The library of ``source`` in ``directory``, compiled first if it is
    not there."""
    path = library_path(directory, source)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            subprocess.run(["gcc", *CFLAGS, "-o", str(tmp), str(source), "-lm"],
                           check=True, capture_output=True, text=True, timeout=120)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return path


def load(directory):
    """``ctypes`` handle of the library in ``directory`` (built if needed),
    with the prototypes of its entry points and its test hooks."""
    lib = ctypes.CDLL(str(build(directory)))
    u32p, u64p = ctypes.POINTER(_u32), ctypes.POINTER(_u64)
    u64a, i64a = (np.ctypeslib.ndpointer(t, flags="C") for t in (np.uint64, np.int64))
    for name, argtypes in [
        ("mfqec_skip_block", [ctypes.POINTER(Circuit), ctypes.POINTER(Rate), _i64,
                              u32p, _i64, u64p, _i64, ctypes.POINTER(_i64)]),
        ("mfqec_resample_sums", [u64a, i64a, i64a, _i64, _i64, i64a]),
        ("mfqec_fill_tables", [ctypes.POINTER(Circuit), _GROW_IDLE]),
        ("mfqec_draws", [_u64, _u64, _u64, _u64, ctypes.POINTER(Rate), _i64,
                         ctypes.POINTER(_i64), _i64, ctypes.POINTER(_f64)]),
        ("mfqec_clean_draws", [ctypes.POINTER(Rate), _i64, ctypes.POINTER(_f64), _i64,
                               ctypes.POINTER(_f64), ctypes.POINTER(_i64)]),
        ("mfqec_seed_state", [u32p, _i64, _i64, u32p]),
        ("mfqec_pcg64_state", [_u64, u64p]),
        ("mfqec_trial_states", [u32p, _i64, u64p, _i64, u64p]),
    ]:
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = None
    lib.mfqec_fill_tables.restype = lib.mfqec_clean_draws.restype = _i64
    return lib


_LIBRARY = []  # [handle or None] once the first load was tried


def library():
    """This process's kernel, loaded from ``BUILD_DIR`` on first call; None
    (after one ``RuntimeWarning``) if it cannot be built or loaded."""
    if not _LIBRARY:
        try:
            lib = load(BUILD_DIR)
        except (OSError, subprocess.SubprocessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            warnings.warn(f"C kernel unavailable, running in Python: {detail}",
                          RuntimeWarning, stacklevel=2)
            lib = None
        _LIBRARY.append(lib)
    return _LIBRARY[0]
