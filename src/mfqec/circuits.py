"""Correction-cycle circuits as explicit, padded time-step schedules.

A Circuit is two alternating cycles (a and b) of TimeSteps; every qubit is
covered exactly once per step (real gate or IDLE), so enumerating error
sites is just walking the schedule.  Cycles differ only in which of the two
syndrome-ancilla sets is freshly extracted ("current") and which still
holds last cycle's syndrome ("stale").

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
Z errors by CCZs controlled on X-syndrome ancillas.  Same-cycle blocks are
emitted before two-cycle blocks.

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

from .codes import BIT_FLIP_CODE, SURFACE17_CODE, UNENCODED, CodeSpec, _f2_rank
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
    labels: tuple
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

    @property
    def targets(self) -> tuple:
        return tuple(t for t, _ in self.same_cycle) + tuple(
            t for t, _ in self.two_cycle
        )

    @property
    def same_cycle_qubits(self) -> tuple:
        return tuple(sorted(q for q, _ in self.same_cycle))

    @property
    def two_cycle_qubits(self) -> tuple:
        qs = [q for _, members in self.two_cycle_members for q in members]
        return tuple(sorted(qs))


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
        labels=("q0",),
        cycle_a=(step,),
        cycle_b=(step,),
    )


def _bf_half_cycle(cur, stale, removal, perfect):
    plan = correction_targets(BIT_FLIP_CODE, "X")
    seq = [_reset(cur[0]), _reset(cur[1])]
    if perfect:
        seq += [_reset(c) for c in removal]
    # syndrome extraction: data q is copied into the ancilla of every
    # Z-stabilizer containing it
    seq += [_cnot(0, cur[0]), _cnot(1, cur[1]), _cnot(1, cur[0]), _cnot(2, cur[1])]
    removal_cycle = itertools.cycle(removal) if perfect else itertools.cycle([None])
    for target, (i, j) in plan.same_cycle:
        seq += _correction_block(
            GateKind.TOFFOLI, (cur[i], cur[j]), target, next(removal_cycle)
        )
    for target, i in plan.two_cycle:
        seq += _correction_block(
            GateKind.TOFFOLI, (cur[i], stale[i]), target, next(removal_cycle)
        )
    if perfect:
        seq = _defer_trailing_resets(seq, removal)
    return seq


def _build_bf_circuit(variant: Variant) -> Circuit:
    """Three-qubit bit-flip correction.  Layout: q0-q2 data, q3-q4 ancilla
    set A, q5-q6 ancilla set B, and for the perfect variant q7-q8 removal."""
    perfect = variant is Variant.PERFECT
    n = 9 if perfect else 7
    set_a, set_b = (3, 4), (5, 6)
    removal = (7, 8) if perfect else ()
    roles = (
        (Role.DATA,) * 3
        + (Role.SYNDROME_A,) * 2
        + (Role.SYNDROME_B,) * 2
        + (Role.REMOVAL,) * len(removal)
    )
    labels = ("d1", "d2", "d3", "a1", "a2", "b1", "b2") + tuple(
        f"c{i+1}" for i in range(len(removal))
    )
    circ = Circuit(
        name=f"bf-{variant.value}",
        code=BIT_FLIP_CODE,
        variant=variant,
        n_qubits=n,
        roles=roles,
        labels=labels,
        cycle_a=_pack(_bf_half_cycle(set_a, set_b, removal, perfect), n),
        cycle_b=_pack(_bf_half_cycle(set_b, set_a, removal, perfect), n),
    )
    validate_circuit(circ)
    return circ


# surface-code extraction touches each plaquette's data qubits in a fixed
# geometric order (grid position (row, col) = (q // 3, q % 3))
NEIGHBOR_ORDER = ("NW", "NE", "SW", "SE")
_OFFSETS = {"NW": (-0.5, -0.5), "NE": (-0.5, 0.5), "SW": (0.5, -0.5), "SE": (0.5, 0.5)}


def _plaquette_center(support):
    rows = [q // 3 for q in support]
    cols = [q % 3 for q in support]
    r = sum(rows) / len(rows)
    c = sum(cols) / len(cols)
    if len(support) == 2:
        # boundary stabilizer: its center sits outside the grid
        if rows[0] == rows[1]:
            r += -0.5 if rows[0] == 0 else 0.5
        else:
            c += -0.5 if cols[0] == 0 else 0.5
    return r, c


def _extraction_order(support):
    r, c = _plaquette_center(support)
    pos = {(q // 3, q % 3): q for q in support}
    ordered = []
    for name in NEIGHBOR_ORDER:
        dr, dc = _OFFSETS[name]
        q = pos.get((int(r + dr), int(c + dc)))
        if q is not None:
            ordered.append(q)
    if len(ordered) != len(support):
        raise ValueError(f"support {support} is not a grid plaquette")
    return tuple(ordered)


def _s17_half_cycle(cur_z, cur_x, stale_z, stale_x, removal, perfect):
    code = SURFACE17_CODE
    x_plan = correction_targets(code, "X")
    z_plan = correction_targets(code, "Z")
    seq = [_reset(q) for q in (*cur_z, *cur_x)]
    if perfect:
        seq += [_reset(c) for c in removal]
    # syndrome extraction; X-ancillas work in the Hadamard frame
    seq += [Instruction(GateKind.H, (q,)) for q in cur_x]
    z_orders = [_extraction_order(s) for s in code.z_stabilizers]
    x_orders = [_extraction_order(s) for s in code.x_stabilizers]
    for layer in range(4):
        for i, order in enumerate(z_orders):
            if layer < len(order):
                seq.append(_cnot(order[layer], cur_z[i]))
        for i, order in enumerate(x_orders):
            if layer < len(order):
                seq.append(_cnot(cur_x[i], order[layer]))
    seq += [Instruction(GateKind.H, (q,)) for q in cur_x]

    def blocks(plan, cur, stale, kind):
        out = []
        for target, (i, j) in plan.same_cycle:
            out.append((kind, (cur[i], cur[j]), target))
        for target, i in plan.two_cycle:
            out.append((kind, (cur[i], stale[i]), target))
        return out

    x_blocks = blocks(x_plan, cur_z, stale_z, GateKind.TOFFOLI)
    z_blocks = blocks(z_plan, cur_x, stale_x, GateKind.CCZ)
    if perfect:
        x_removal = itertools.cycle(removal[:2])
        z_removal = itertools.cycle(removal[2:])
    else:
        x_removal = z_removal = itertools.cycle([None])
    for xb, zb in itertools.zip_longest(x_blocks, z_blocks):
        if xb is not None:
            seq += _correction_block(xb[0], xb[1], xb[2], next(x_removal))
        if zb is not None:
            seq += _correction_block(zb[0], zb[1], zb[2], next(z_removal))
    if perfect:
        seq = _defer_trailing_resets(seq, removal)
    return seq


def _build_surface17_circuit(variant: Variant) -> Circuit:
    """Distance-3 surface code correction.  Layout: q0-q8 data, q9-q16
    ancilla set A (four Z-syndrome then four X-syndrome), q17-q24 set B,
    and for the perfect variant q25-q28 removal."""
    perfect = variant is Variant.PERFECT
    n = 29 if perfect else 25
    a_z, a_x = (9, 10, 11, 12), (13, 14, 15, 16)
    b_z, b_x = (17, 18, 19, 20), (21, 22, 23, 24)
    removal = (25, 26, 27, 28) if perfect else ()
    roles = (
        (Role.DATA,) * 9
        + (Role.SYNDROME_A,) * 8
        + (Role.SYNDROME_B,) * 8
        + (Role.REMOVAL,) * len(removal)
    )
    labels = (
        tuple(f"d{i+1}" for i in range(9))
        + tuple(f"az{i+1}" for i in range(4))
        + tuple(f"ax{i+1}" for i in range(4))
        + tuple(f"bz{i+1}" for i in range(4))
        + tuple(f"bx{i+1}" for i in range(4))
        + tuple(f"c{i+1}" for i in range(len(removal)))
    )
    circ = Circuit(
        name=f"surface17-{variant.value}",
        code=SURFACE17_CODE,
        variant=variant,
        n_qubits=n,
        roles=roles,
        labels=labels,
        cycle_a=_pack(_s17_half_cycle(a_z, a_x, b_z, b_x, removal, perfect), n),
        cycle_b=_pack(_s17_half_cycle(b_z, b_x, a_z, a_x, removal, perfect), n),
    )
    validate_circuit(circ)
    return circ


# The one list of buildable circuits: each code name, its builder and the
# variants it builds, in listing order.
CIRCUITS = {
    "bf": (_build_bf_circuit, (Variant.PERFECT, Variant.SIMPLIFIED)),
    "surface17": (_build_surface17_circuit, (Variant.PERFECT, Variant.SIMPLIFIED)),
    "unencoded": (lambda variant: build_unencoded_circuit(), (Variant.NONE,)),
}


def build_circuit(code_name: str, variant: Variant) -> Circuit:
    """The circuit of a (code, variant) pair listed in ``CIRCUITS``; any
    other pair is a ValueError."""
    try:
        builder, variants = CIRCUITS[code_name]
    except KeyError:
        raise ValueError(f"unknown code {code_name!r}") from None
    if variant not in variants:
        raise ValueError(f"code {code_name!r} has no {variant.value!r} variant")
    return builder(variant)


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
