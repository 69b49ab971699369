"""Correction-cycle circuits as explicit, padded time-step schedules.

A Circuit is two alternating cycles (a and b) of TimeSteps; every qubit is
covered exactly once per step (real gate or IDLE), so enumerating error
sites is just walking the schedule.  Cycles differ only in which of the two
syndrome-ancilla sets is freshly extracted ("current") and which still
holds last cycle's syndrome ("stale").

One builder makes the circuits of every code with stabilizers; only the
code's stabilizers differ.  Its qubit layout follows from the code: data
qubits first, then ancilla set A (one per Z-stabilizer, then one per
X-stabilizer), set B laid out the same way, and in the perfect variant two
removal ancillas per error type that has corrections.  Extraction visits
each stabilizer's support in index order, one data qubit per layer.  The
unencoded baseline is a single idling qubit.

Correction strategy, per correctable error type:

* a data qubit inside two stabilizers of the detecting type gets a
  same-cycle correction, controlled on both of this cycle's ancillas;
* a stabilizer that is the sole detector of one or more data qubits gets
  a single two-cycle correction, controlled on that stabilizer's current
  and stale ancillas (the error must be seen twice in a row before
  acting) and targeting the lowest-indexed such data qubit — when the
  stabilizer solely detects several qubits their syndromes are
  indistinguishable and the target choices differ only by a stabilizer.

X errors are corrected by Toffolis controlled on Z-syndrome ancillas;
Z errors by CCZs controlled on X-syndrome ancillas.  For each type,
same-cycle blocks come before two-cycle blocks; X and Z blocks alternate.

The "perfect" variant appends a removal block to every correction: a third
ancilla records whether the correction fired (Toffoli), then CNOTs from it
clear the pair of syndrome ancillas that triggered, and the ancilla is
reset.  Each removal ancilla's final reset of a cycle is deferred into the
next cycle's leading reset step, which keeps the cycle depth minimal under
cyclic repetition.  The "simplified" variant applies corrections only and
lets stale syndrome information sit in the ancillas until their next reset.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import CODES, UNENCODED, CodeSpec, _f2_rank
from .errors import ErrorChannel, ErrorSite


class UnpaddedCircuit(ValueError):
    """A time step does not cover every qubit exactly once."""


class DataQubitUncovered(ValueError):
    """A data qubit has no correction that can ever target it."""


class GateKind(enum.Enum):
    H = "H"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    CCZ = "CCZ"
    RESET = "RESET"
    IDLE = "IDLE"


_CHANNEL_OF = {
    GateKind.H: ErrorChannel.MEMORY,
    GateKind.IDLE: ErrorChannel.MEMORY,
    GateKind.CNOT: ErrorChannel.TWO_QUBIT,
    GateKind.TOFFOLI: ErrorChannel.THREE_QUBIT,
    GateKind.CCZ: ErrorChannel.THREE_QUBIT,
    GateKind.RESET: ErrorChannel.INIT,
}


class Role(enum.Enum):
    DATA = "data"
    SYNDROME_A = "syndrome_a"
    SYNDROME_B = "syndrome_b"
    REMOVAL = "removal"


class Variant(enum.Enum):
    PERFECT = "perfect"
    SIMPLIFIED = "simplified"
    NONE = "none"


@dataclass(frozen=True)
class Instruction:
    kind: GateKind
    qubits: tuple

    def __str__(self) -> str:
        return f"{self.kind.value} " + ",".join(f"q{q}" for q in self.qubits)


@dataclass(frozen=True)
class TimeStep:
    instructions: tuple  # sorted by first qubit, full qubit coverage


@dataclass(frozen=True)
class Circuit:
    name: str
    code: CodeSpec
    variant: Variant
    n_qubits: int
    roles: tuple
    cycle_a: tuple  # of TimeStep
    cycle_b: tuple

    @property
    def data_qubits(self) -> tuple:
        return tuple(q for q, r in enumerate(self.roles) if r is Role.DATA)

    def cycle(self, which: str):
        if which == "a":
            return self.cycle_a
        if which == "b":
            return self.cycle_b
        raise ValueError("cycle must be 'a' or 'b'")

    def error_sites(self, which: str) -> tuple:
        """``enumerate_error_sites(self, which)``, computed once per circuit."""
        try:
            return self._error_sites[which]
        except KeyError:
            raise ValueError("cycle must be 'a' or 'b'") from None

    @cached_property
    def _error_sites(self) -> dict:
        return {which: enumerate_error_sites(self, which) for which in "ab"}

    @cached_property
    def engines(self) -> dict:
        """This circuit's simulation engines by name, filled by
        ``montecarlo.make_engine``; they live as long as the circuit."""
        return {}


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def _pack(seq, n_qubits: int) -> tuple:
    """Greedy earliest-step list scheduling.  Per-qubit instruction order is
    preserved, so executing the steps left-to-right is equivalent to
    executing ``seq`` sequentially.  Idles pad every remaining slot."""
    last = [0] * n_qubits
    buckets: list = []
    for ins in seq:
        step = max(last[q] for q in ins.qubits) + 1
        while len(buckets) < step:
            buckets.append([])
        buckets[step - 1].append(ins)
        for q in ins.qubits:
            last[q] = step
    steps = []
    for bucket in buckets:
        busy = {q for ins in bucket for q in ins.qubits}
        full = bucket + [
            Instruction(GateKind.IDLE, (q,))
            for q in range(n_qubits)
            if q not in busy
        ]
        steps.append(
            TimeStep(tuple(sorted(full, key=lambda ins: ins.qubits[0])))
        )
    return tuple(steps)


def _defer_trailing_resets(seq, removal_qubits):
    """Drop each removal qubit's final in-cycle reset; the next cycle's
    leading reset step covers it instead (cyclic repetition)."""
    out = list(seq)
    for c in removal_qubits:
        for i in range(len(out) - 1, -1, -1):
            if out[i].kind is GateKind.RESET and out[i].qubits == (c,):
                del out[i]
                break
    return out


# ---------------------------------------------------------------------------
# correction planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectionPlan:
    """Which data qubits are corrected from which stabilizers, for one
    correctable error type ("X" errors read Z-stabilizers and vice versa).

    ``two_cycle`` holds one entry per detecting stabilizer that is the
    sole detector of at least one data qubit.  When several data qubits
    share the same sole detector their lone-syndrome patterns are
    identical, so a single correction gate must serve all of them: the
    listed target is the lowest-indexed member, and correcting it on
    behalf of any other member leaves only a stabilizer behind (the
    planner verifies this equivalence).  One gate per syndrome also
    keeps the plan sound without syndrome erasure: duplicate gates on a
    shared persistent syndrome would over-correct and re-excite it."""

    error_type: str
    same_cycle: tuple  # of (data_qubit, (stab_i, stab_j))
    two_cycle: tuple   # of (gate target, stab_i), one per sole-detector stab
    two_cycle_members: tuple  # of (stab_i, (data_qubit, ...)) full classes


def _in_f2_rowspace(rows, vec, n: int) -> bool:
    if not any(vec):
        return True
    if not rows:
        return False
    mat = np.zeros((len(rows), n), np.uint8)
    for i, support in enumerate(rows):
        mat[i, list(support)] = 1
    return _f2_rank(np.vstack([mat, vec])) == _f2_rank(mat)


def correction_targets(code: CodeSpec, error_type: str) -> CorrectionPlan:
    if error_type == "X":
        stabs = code.z_stabilizers
        like_stabs = code.x_stabilizers  # corrections are X operators
    elif error_type == "Z":
        stabs = code.x_stabilizers
        like_stabs = code.z_stabilizers
    else:
        raise ValueError("error_type must be 'X' or 'Z'")
    if not stabs:
        return CorrectionPlan(error_type, (), (), ())
    same = []
    singles: dict = {}
    for q in range(code.n_data):
        members = tuple(i for i, s in enumerate(stabs) if q in s)
        if len(members) == 0:
            raise DataQubitUncovered(
                f"data qubit {q} is in no {error_type}-detecting stabilizer"
            )
        if len(members) == 1:
            singles.setdefault(members[0], []).append(q)
        elif len(members) == 2:
            same.append((q, members))
        else:
            raise ValueError(
                f"data qubit {q} is in {len(members)} stabilizers; "
                "pairwise correction needs at most two"
            )
    two, members = [], []
    for i in sorted(singles):
        rep, *rest = sorted(singles[i])
        for q in rest:
            pair = np.zeros(code.n_data, np.uint8)
            pair[[rep, q]] = 1
            if not _in_f2_rowspace(like_stabs, pair, code.n_data):
                raise ValueError(
                    f"data qubits {rep} and {q} share sole detector "
                    f"{i} but differ by more than a stabilizer; one "
                    f"{error_type}-correction cannot serve both"
                )
        two.append((rep, i))
        members.append((i, tuple(sorted(singles[i]))))
    return CorrectionPlan(
        error_type, tuple(same), tuple(two), tuple(members)
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _reset(q):
    return Instruction(GateKind.RESET, (q,))


def _cnot(c, t):
    return Instruction(GateKind.CNOT, (c, t))


def _correction_block(kind, ctrl_pair, target, removal_qubit):
    """Correction gate plus, when a removal qubit is given, the block that
    clears the triggering ancilla pair."""
    seq = [Instruction(kind, (*ctrl_pair, target))]
    if removal_qubit is not None:
        c = removal_qubit
        seq.append(Instruction(GateKind.TOFFOLI, (*ctrl_pair, c)))
        seq.append(_cnot(c, ctrl_pair[0]))
        seq.append(_cnot(c, ctrl_pair[1]))
        seq.append(_reset(c))
    return seq


def build_unencoded_circuit() -> Circuit:
    """The do-nothing baseline: one bare qubit idling each cycle."""
    step = TimeStep((Instruction(GateKind.IDLE, (0,)),))
    return Circuit(
        name="unencoded-none",
        code=UNENCODED,
        variant=Variant.NONE,
        n_qubits=1,
        roles=(Role.DATA,),
        cycle_a=(step,),
        cycle_b=(step,),
    )


def _correction_blocks(plan, cur, stale, kind):
    """(kind, control pair, target) of every correction in ``plan``:
    same-cycle corrections first, then two-cycle ones."""
    return [
        (kind, (cur[i], cur[j]), target) for target, (i, j) in plan.same_cycle
    ] + [(kind, (cur[i], stale[i]), target) for target, i in plan.two_cycle]


def _half_cycle(code, cur_z, cur_x, stale_z, stale_x, removal):
    """One cycle's instruction sequence: refresh the ``cur`` ancillas,
    correct from them (and from ``stale``), and, when ``removal`` qubits
    are given (perfect variant), erase each used syndrome pair."""
    seq = [_reset(q) for q in (*cur_z, *cur_x, *removal)]
    # syndrome extraction; X-ancillas work in the Hadamard frame.  Each
    # support is visited in index order: row-major on surface-17's 3x3
    # grid, so every plaquette is walked NW, NE, SW, SE.
    seq += [Instruction(GateKind.H, (q,)) for q in cur_x]
    supports = (*code.z_stabilizers, *code.x_stabilizers)
    for layer in range(max(map(len, supports))):
        for i, support in enumerate(code.z_stabilizers):
            if layer < len(support):
                seq.append(_cnot(support[layer], cur_z[i]))
        for i, support in enumerate(code.x_stabilizers):
            if layer < len(support):
                seq.append(_cnot(cur_x[i], support[layer]))
    seq += [Instruction(GateKind.H, (q,)) for q in cur_x]
    x_blocks = _correction_blocks(
        correction_targets(code, "X"), cur_z, stale_z, GateKind.TOFFOLI
    )
    z_blocks = _correction_blocks(
        correction_targets(code, "Z"), cur_x, stale_x, GateKind.CCZ
    )
    # two removal qubits per error type that has corrections, X's first
    split = 2 if x_blocks else 0
    x_removal = itertools.cycle(removal[:split] or [None])
    z_removal = itertools.cycle(removal[split:] or [None])
    for xb, zb in itertools.zip_longest(x_blocks, z_blocks):
        if xb is not None:
            seq += _correction_block(*xb, next(x_removal))
        if zb is not None:
            seq += _correction_block(*zb, next(z_removal))
    return _defer_trailing_resets(seq, removal)


def _build_code_circuit(code: CodeSpec, variant: Variant) -> Circuit:
    """The correction cycles of a code with stabilizers, on the qubit
    layout of the module docstring: data, set A, set B, removal."""
    n_z, n_x = len(code.z_stabilizers), len(code.x_stabilizers)
    n_set = n_z + n_x
    n_removal = 2 * (bool(n_z) + bool(n_x)) if variant is Variant.PERFECT else 0
    bounds = list(itertools.accumulate(
        (code.n_data, n_z, n_x, n_z, n_x, n_removal), initial=0
    ))
    _, a_z, a_x, b_z, b_x, removal = (
        tuple(range(lo, hi)) for lo, hi in itertools.pairwise(bounds)
    )
    n = bounds[-1]
    roles = (
        (Role.DATA,) * code.n_data
        + (Role.SYNDROME_A,) * n_set
        + (Role.SYNDROME_B,) * n_set
        + (Role.REMOVAL,) * n_removal
    )
    circ = Circuit(
        name=f"{code.name}-{variant.value}",
        code=code,
        variant=variant,
        n_qubits=n,
        roles=roles,
        cycle_a=_pack(_half_cycle(code, a_z, a_x, b_z, b_x, removal), n),
        cycle_b=_pack(_half_cycle(code, b_z, b_x, a_z, a_x, removal), n),
    )
    validate_circuit(circ)
    return circ


# The one list of buildable circuits: each code of ``codes.CODES``, in its
# order, with the variants it builds.
CIRCUITS = {
    name: (
        (Variant.PERFECT, Variant.SIMPLIFIED)
        if code.z_stabilizers or code.x_stabilizers
        else (Variant.NONE,)
    )
    for name, code in CODES.items()
}


def build_circuit(code_name: str, variant: Variant) -> Circuit:
    """The circuit of a (code, variant) pair listed in ``CIRCUITS``; any
    other pair is a ValueError."""
    try:
        variants = CIRCUITS[code_name]
    except KeyError:
        raise ValueError(f"unknown code {code_name!r}") from None
    if variant not in variants:
        raise ValueError(f"code {code_name!r} has no {variant.value!r} variant")
    if variant is Variant.NONE:
        return build_unencoded_circuit()
    return _build_code_circuit(CODES[code_name], variant)


# ---------------------------------------------------------------------------
# validation, error-site enumeration, listing
# ---------------------------------------------------------------------------

def validate_circuit(circ: Circuit):
    syndrome = (Role.SYNDROME_A, Role.SYNDROME_B)
    for which in ("a", "b"):
        for s, step in enumerate(circ.cycle(which), start=1):
            seen = []
            for ins in step.instructions:
                seen.extend(ins.qubits)
            if sorted(seen) != list(range(circ.n_qubits)):
                raise UnpaddedCircuit(
                    f"cycle {which} step {s} does not cover every qubit "
                    "exactly once"
                )
            for ins in step.instructions:
                roles = tuple(circ.roles[q] for q in ins.qubits)
                kind = ins.kind
                if kind is GateKind.RESET and roles[0] is Role.DATA:
                    raise ValueError(f"reset on data qubit {ins.qubits[0]}")
                if kind is GateKind.H and roles[0] not in syndrome:
                    raise ValueError(f"H on non-syndrome qubit {ins.qubits[0]}")
                if kind is GateKind.CNOT:
                    ok = (
                        (roles[0] is Role.DATA and roles[1] in syndrome)
                        or (roles[0] in syndrome and roles[1] is Role.DATA)
                        or (roles[0] is Role.REMOVAL and roles[1] in syndrome)
                    )
                    if not ok:
                        raise ValueError(f"CNOT role mismatch: {ins}")
                if kind in (GateKind.TOFFOLI, GateKind.CCZ):
                    if roles[0] not in syndrome or roles[1] not in syndrome:
                        raise ValueError(f"controls must be syndrome: {ins}")
                    allowed = (
                        (Role.DATA, Role.REMOVAL)
                        if kind is GateKind.TOFFOLI
                        else (Role.DATA,)
                    )
                    if roles[2] not in allowed:
                        raise ValueError(f"bad target role: {ins}")
    if circ.variant is not Variant.NONE:
        corrected = set()
        for which in ("a", "b"):
            for step in circ.cycle(which):
                for ins in step.instructions:
                    if (
                        ins.kind in (GateKind.TOFFOLI, GateKind.CCZ)
                        and circ.roles[ins.qubits[2]] is Role.DATA
                    ):
                        corrected.add(ins.qubits[2])
        if corrected != set(circ.data_qubits):
            missing = sorted(set(circ.data_qubits) - corrected)
            raise DataQubitUncovered(f"no correction targets data {missing}")


def enumerate_error_sites(circ: Circuit, which: str) -> tuple:
    """All error sites of one cycle, ordered by (step, first qubit)."""
    sites = []
    for s, step in enumerate(circ.cycle(which), start=1):
        for ins in step.instructions:
            sites.append(ErrorSite(_CHANNEL_OF[ins.kind], s, ins.qubits))
    return tuple(sites)


def circuit_listing(circ: Circuit, which: str = "a") -> str:
    lines = []
    for s, step in enumerate(circ.cycle(which), start=1):
        for ins in step.instructions:
            qubits = ",".join(f"q{q}" for q in ins.qubits)
            lines.append(f"step {s}: {ins.kind.value} {qubits}")
    return "\n".join(lines)
