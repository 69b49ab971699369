"""Circuit construction tests.

Covers golden gate schedules for the bit-flip code (hand-derived from the
repetition-code syndrome/correction rules and frozen as full listings),
structural invariants shared by every built circuit, correction planning,
validation errors, and error-site enumeration.
"""

import dataclasses
import hashlib
import re
from collections import Counter

import pytest

from mfqec.circuits import (
    Circuit,
    DataQubitUncovered,
    GateKind,
    Instruction,
    Role,
    TimeStep,
    UnpaddedCircuit,
    Variant,
    build_circuit,
    build_unencoded_circuit,
    circuit_listing,
    correction_targets,
    enumerate_error_sites,
    validate_circuit,
)
from mfqec.codes import BIT_FLIP_CODE, SURFACE17_CODE, CodeSpec
from mfqec.errors import ErrorChannel

ALL_BUILT = [
    ("bf", Variant.PERFECT),
    ("bf", Variant.SIMPLIFIED),
    ("surface17", Variant.PERFECT),
    ("surface17", Variant.SIMPLIFIED),
    ("unencoded", Variant.NONE),
]


def _nonidle(circ, which):
    """Multiset of non-idle instructions, step numbers discarded."""
    out = []
    for step in circ.cycle(which):
        for ins in step.instructions:
            if ins.kind is not GateKind.IDLE:
                out.append((ins.kind, ins.qubits))
    return Counter(out)


def _gates_by_step(circ, which):
    """{step: set of "KIND qubits" strings}, idles omitted."""
    table = {}
    for s, step in enumerate(circ.cycle(which), start=1):
        for ins in step.instructions:
            if ins.kind is not GateKind.IDLE:
                table.setdefault(s, set()).add(str(ins))
    return table


# ---------------------------------------------------------------------------
# golden shapes
# ---------------------------------------------------------------------------

SHAPES = {
    ("bf", Variant.PERFECT): (9, 11, 77),
    ("bf", Variant.SIMPLIFIED): (7, 5, 25),
    ("surface17", Variant.PERFECT): (29, 27, 675),
    ("surface17", Variant.SIMPLIFIED): (25, 11, 223),
    ("unencoded", Variant.NONE): (1, 1, 1),
}


@pytest.mark.parametrize("name,variant", ALL_BUILT)
def test_golden_shapes(name, variant):
    circ = build_circuit(name, variant)
    n_qubits, depth, n_sites = SHAPES[(name, variant)]
    assert circ.n_qubits == n_qubits
    for which in ("a", "b"):
        assert len(circ.cycle(which)) == depth
        assert len(enumerate_error_sites(circ, which)) == n_sites
        assert circ.error_sites(which) == enumerate_error_sites(circ, which)
        assert circ.error_sites(which) is circ.error_sites(which)
    with pytest.raises(ValueError):
        circ.error_sites("c")


# ---------------------------------------------------------------------------
# bit-flip code: hand-derived gate tables
# ---------------------------------------------------------------------------
#
# Layout: data 0,1,2; syndrome bank A = (3,4), bank B = (5,6); removal 7,8
# (perfect variant only).  Cycle "a" refreshes bank A and reads Z0Z1 into
# q3 and Z1Z2 into q4; bank B holds last cycle's syndromes.  Corrections:
# q1 flips when both current syndromes fire (same cycle); q0 flips when
# Z0Z1 fired twice in a row (current q3, stale q5) and q2 when Z1Z2 fired
# twice (current q4, stale q6).  In the perfect variant each correction is
# followed by a copy onto a removal qubit and CNOTs that erase both
# controls; the removal qubit's final reset is deferred to the next cycle.

BF_SIMPLIFIED_A = {
    1: {"RESET q3", "RESET q4"},
    2: {"CNOT q0,q3", "CNOT q1,q4"},
    3: {"CNOT q1,q3", "CNOT q2,q4"},
    4: {"TOFFOLI q3,q4,q1"},
    5: {"TOFFOLI q3,q5,q0", "TOFFOLI q4,q6,q2"},
}

BF_SIMPLIFIED_B = {
    1: {"RESET q5", "RESET q6"},
    2: {"CNOT q0,q5", "CNOT q1,q6"},
    3: {"CNOT q1,q5", "CNOT q2,q6"},
    4: {"TOFFOLI q5,q6,q1"},
    5: {"TOFFOLI q5,q3,q0", "TOFFOLI q6,q4,q2"},
}

BF_PERFECT_A = {
    1: {"RESET q3", "RESET q4", "RESET q7", "RESET q8"},
    2: {"CNOT q0,q3", "CNOT q1,q4"},
    3: {"CNOT q1,q3", "CNOT q2,q4"},
    4: {"TOFFOLI q3,q4,q1"},
    5: {"TOFFOLI q3,q4,q7"},
    6: {"CNOT q7,q3"},
    7: {"TOFFOLI q3,q5,q0", "CNOT q7,q4"},
    8: {"TOFFOLI q3,q5,q8", "TOFFOLI q4,q6,q2", "RESET q7"},
    9: {"TOFFOLI q4,q6,q7", "CNOT q8,q3"},
    10: {"CNOT q7,q4", "CNOT q8,q5"},
    11: {"CNOT q7,q6"},
}

BF_PERFECT_B = {
    1: {"RESET q5", "RESET q6", "RESET q7", "RESET q8"},
    2: {"CNOT q0,q5", "CNOT q1,q6"},
    3: {"CNOT q1,q5", "CNOT q2,q6"},
    4: {"TOFFOLI q5,q6,q1"},
    5: {"TOFFOLI q5,q6,q7"},
    6: {"CNOT q7,q5"},
    7: {"TOFFOLI q5,q3,q0", "CNOT q7,q6"},
    8: {"TOFFOLI q5,q3,q8", "TOFFOLI q6,q4,q2", "RESET q7"},
    9: {"TOFFOLI q6,q4,q7", "CNOT q8,q5"},
    10: {"CNOT q7,q6", "CNOT q8,q3"},
    11: {"CNOT q7,q4"},
}


@pytest.mark.parametrize(
    "variant,which,expected",
    [
        (Variant.SIMPLIFIED, "a", BF_SIMPLIFIED_A),
        (Variant.SIMPLIFIED, "b", BF_SIMPLIFIED_B),
        (Variant.PERFECT, "a", BF_PERFECT_A),
        (Variant.PERFECT, "b", BF_PERFECT_B),
    ],
)
def test_bf_gate_schedule(variant, which, expected):
    circ = build_circuit("bf", variant)
    assert _gates_by_step(circ, which) == expected


# Full listings (idle padding included) frozen after a line-by-line audit
# of the gate content against the tables above; any regression in packing
# or idle insertion shows up here.

GOLDEN_BF_PERFECT_A = """\
step 1: IDLE q0
step 1: IDLE q1
step 1: IDLE q2
step 1: RESET q3
step 1: RESET q4
step 1: IDLE q5
step 1: IDLE q6
step 1: RESET q7
step 1: RESET q8
step 2: CNOT q0,q3
step 2: CNOT q1,q4
step 2: IDLE q2
step 2: IDLE q5
step 2: IDLE q6
step 2: IDLE q7
step 2: IDLE q8
step 3: IDLE q0
step 3: CNOT q1,q3
step 3: CNOT q2,q4
step 3: IDLE q5
step 3: IDLE q6
step 3: IDLE q7
step 3: IDLE q8
step 4: IDLE q0
step 4: IDLE q2
step 4: TOFFOLI q3,q4,q1
step 4: IDLE q5
step 4: IDLE q6
step 4: IDLE q7
step 4: IDLE q8
step 5: IDLE q0
step 5: IDLE q1
step 5: IDLE q2
step 5: TOFFOLI q3,q4,q7
step 5: IDLE q5
step 5: IDLE q6
step 5: IDLE q8
step 6: IDLE q0
step 6: IDLE q1
step 6: IDLE q2
step 6: IDLE q4
step 6: IDLE q5
step 6: IDLE q6
step 6: CNOT q7,q3
step 6: IDLE q8
step 7: IDLE q1
step 7: IDLE q2
step 7: TOFFOLI q3,q5,q0
step 7: IDLE q6
step 7: CNOT q7,q4
step 7: IDLE q8
step 8: IDLE q0
step 8: IDLE q1
step 8: TOFFOLI q3,q5,q8
step 8: TOFFOLI q4,q6,q2
step 8: RESET q7
step 9: IDLE q0
step 9: IDLE q1
step 9: IDLE q2
step 9: TOFFOLI q4,q6,q7
step 9: IDLE q5
step 9: CNOT q8,q3
step 10: IDLE q0
step 10: IDLE q1
step 10: IDLE q2
step 10: IDLE q3
step 10: IDLE q6
step 10: CNOT q7,q4
step 10: CNOT q8,q5
step 11: IDLE q0
step 11: IDLE q1
step 11: IDLE q2
step 11: IDLE q3
step 11: IDLE q4
step 11: IDLE q5
step 11: CNOT q7,q6
step 11: IDLE q8"""

GOLDEN_BF_SIMPLIFIED_A = """\
step 1: IDLE q0
step 1: IDLE q1
step 1: IDLE q2
step 1: RESET q3
step 1: RESET q4
step 1: IDLE q5
step 1: IDLE q6
step 2: CNOT q0,q3
step 2: CNOT q1,q4
step 2: IDLE q2
step 2: IDLE q5
step 2: IDLE q6
step 3: IDLE q0
step 3: CNOT q1,q3
step 3: CNOT q2,q4
step 3: IDLE q5
step 3: IDLE q6
step 4: IDLE q0
step 4: IDLE q2
step 4: TOFFOLI q3,q4,q1
step 4: IDLE q5
step 4: IDLE q6
step 5: IDLE q1
step 5: TOFFOLI q3,q5,q0
step 5: TOFFOLI q4,q6,q2"""


def test_bf_perfect_full_listing_golden():
    circ = build_circuit("bf", Variant.PERFECT)
    assert circuit_listing(circ, "a") == GOLDEN_BF_PERFECT_A


def test_bf_simplified_full_listing_golden():
    circ = build_circuit("bf", Variant.SIMPLIFIED)
    assert circuit_listing(circ, "a") == GOLDEN_BF_SIMPLIFIED_A


# sha256 of circuit_listing(circ, which) for every encoded circuit, both
# cycles: any change to a schedule (gate, order, step or qubit) moves these.
LISTING_SHA256 = {
    ("bf", Variant.PERFECT, "a"):
        "28b2b9189a733ac1aa2e3edb179517d7cd76a6f3f607c2199c54e16b86186613",
    ("bf", Variant.PERFECT, "b"):
        "787b7e51f045d6a120532da9508d12dea2396a15d40a42a17af06639b46d19bc",
    ("bf", Variant.SIMPLIFIED, "a"):
        "83e7ad020d34064899a2b3e9975e66985cca3a5ca48f5df70b4768fea14c205e",
    ("bf", Variant.SIMPLIFIED, "b"):
        "58902a240ee26e0e02fd1230dddd04aca08c78dd14421ccf506b8a9d84a2a483",
    ("surface17", Variant.PERFECT, "a"):
        "38071c63863fcf34d7d4b20081378b753e591efe3b9e26bdc4a16f2af10ef88c",
    ("surface17", Variant.PERFECT, "b"):
        "6a3ff58431382afcff036127f4659e41e6a7ec4b884497cebb50430a4d04ec0f",
    ("surface17", Variant.SIMPLIFIED, "a"):
        "67154a15da9f829a3f94841ef4f1f6d244d12b345f2f72184ce7748f16f0596d",
    ("surface17", Variant.SIMPLIFIED, "b"):
        "d718b18ac825e44f67f010e25ae1d202d340676d6ae3c7dbc0860ffd18503027",
}


@pytest.mark.parametrize("name,variant,which", sorted(LISTING_SHA256, key=str))
def test_encoded_listing_digests(name, variant, which):
    listing = circuit_listing(build_circuit(name, variant), which)
    digest = hashlib.sha256(listing.encode()).hexdigest()
    assert digest == LISTING_SHA256[(name, variant, which)]


def test_unencoded_circuit():
    circ = build_unencoded_circuit()
    assert circ.n_qubits == 1
    assert circ.roles == (Role.DATA,)
    for which in ("a", "b"):
        assert circuit_listing(circ, which) == "step 1: IDLE q0"


# ---------------------------------------------------------------------------
# shared structural invariants
# ---------------------------------------------------------------------------

LISTING_LINE = re.compile(
    r"^step \d+: (H|CNOT|TOFFOLI|CCZ|RESET|IDLE) q\d+(,q\d+)*$"
)


@pytest.mark.parametrize("name,variant", ALL_BUILT)
def test_listing_format_and_order(name, variant):
    circ = build_circuit(name, variant)
    for which in ("a", "b"):
        keys = []
        for line in circuit_listing(circ, which).splitlines():
            assert LISTING_LINE.match(line), line
            step = int(line.split(":")[0].split()[1])
            first_qubit = int(line.split(" q", 1)[1].split(",")[0])
            keys.append((step, first_qubit))
        assert keys == sorted(keys)


@pytest.mark.parametrize("name,variant", ALL_BUILT)
def test_every_step_covers_every_qubit_once(name, variant):
    circ = build_circuit(name, variant)
    for which in ("a", "b"):
        for step in circ.cycle(which):
            seen = [q for ins in step.instructions for q in ins.qubits]
            assert sorted(seen) == list(range(circ.n_qubits))


@pytest.mark.parametrize("name,variant", ALL_BUILT)
def test_built_circuits_validate(name, variant):
    validate_circuit(build_circuit(name, variant))


@pytest.mark.parametrize("name,variant", ALL_BUILT)
def test_build_is_deterministic(name, variant):
    assert build_circuit(name, variant) == build_circuit(name, variant)


def test_cycle_accessor():
    circ = build_circuit("bf", Variant.PERFECT)
    assert circ.cycle("a") is circ.cycle_a
    assert circ.cycle("b") is circ.cycle_b
    with pytest.raises(ValueError):
        circ.cycle("c")


def test_build_dispatch():
    with pytest.raises(ValueError, match="unknown code"):
        build_circuit("nope", Variant.PERFECT)
    assert build_circuit("unencoded", Variant.NONE) == build_unencoded_circuit()
    for name, variant in [
        ("bf", Variant.NONE),
        ("surface17", Variant.NONE),
        ("unencoded", Variant.PERFECT),
    ]:
        with pytest.raises(ValueError, match="has no"):
            build_circuit(name, variant)


# ---------------------------------------------------------------------------
# perfect / simplified relation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bf", "surface17"])
def test_simplified_is_perfect_without_removal(name):
    """Dropping every instruction that touches a removal qubit from the
    perfect circuit leaves exactly the simplified circuit's gates."""
    perfect = build_circuit(name, Variant.PERFECT)
    simplified = build_circuit(name, Variant.SIMPLIFIED)
    removal = {
        q for q, r in enumerate(perfect.roles) if r is Role.REMOVAL
    }
    # the two variants agree on every non-removal qubit
    assert min(removal) == simplified.n_qubits
    assert perfect.roles[: simplified.n_qubits] == simplified.roles
    for which in ("a", "b"):
        kept = Counter(
            (kind, qubits)
            for (kind, qubits) in _nonidle(perfect, which)
            if not removal & set(qubits)
        )
        stripped = Counter()
        for (kind, qubits), count in _nonidle(perfect, which).items():
            if not removal & set(qubits):
                stripped[(kind, qubits)] += count
        assert stripped == _nonidle(simplified, which)
        assert set(kept) == set(stripped)


@pytest.mark.parametrize("name", ["bf", "surface17"])
def test_perfect_erasure_blocks(name):
    """In the perfect variant every data-targeted correction gate is
    followed by a copy onto a removal qubit and CNOTs erasing both
    syndrome controls, in that order."""
    circ = build_circuit(name, Variant.PERFECT)
    removal = {q for q, r in enumerate(circ.roles) if r is Role.REMOVAL}
    for which in ("a", "b"):
        timeline = []  # (step, kind, qubits)
        for s, step in enumerate(circ.cycle(which), start=1):
            for ins in step.instructions:
                timeline.append((s, ins.kind, ins.qubits))
        data_gates = [
            (s, qs)
            for s, kind, qs in timeline
            if kind in (GateKind.TOFFOLI, GateKind.CCZ)
            and circ.roles[qs[2]] is Role.DATA
        ]
        for s, (c1, c2, _target) in data_gates:
            copies = [
                (cs, qs)
                for cs, kind, qs in timeline
                if kind is GateKind.TOFFOLI
                and qs[2] in removal
                and set(qs[:2]) == {c1, c2}
                and cs > s
            ]
            assert len(copies) == 1, (which, s, c1, c2)
            copy_step, copy_qs = copies[0]
            r = copy_qs[2]
            erased = {
                qs[1]
                for cs, kind, qs in timeline
                if kind is GateKind.CNOT and qs[0] == r and cs > copy_step
            }
            assert {c1, c2} <= erased, (which, s, r)


# ---------------------------------------------------------------------------
# correction planning
# ---------------------------------------------------------------------------


def _targets(plan) -> tuple:
    """Every correction gate's target, same-cycle gates first."""
    return tuple(t for t, _ in plan.same_cycle) + tuple(t for t, _ in plan.two_cycle)


def _same_cycle_qubits(plan) -> tuple:
    return tuple(sorted(q for q, _ in plan.same_cycle))


def _two_cycle_qubits(plan) -> tuple:
    """Every data qubit a two-cycle gate corrects, its class's members included."""
    return tuple(sorted(q for _, members in plan.two_cycle_members for q in members))


def test_bf_x_plan():
    plan = correction_targets(BIT_FLIP_CODE, "X")
    assert plan.error_type == "X"
    assert plan.same_cycle == ((1, (0, 1)),)
    assert plan.two_cycle == ((0, 0), (2, 1))
    assert plan.two_cycle_members == ((0, (0,)), (1, (2,)))
    assert _targets(plan) == (1, 0, 2)
    assert _same_cycle_qubits(plan) == (1,)
    assert _two_cycle_qubits(plan) == (0, 2)


def test_bf_z_plan_is_empty():
    # a bit-flip code has no X-type stabilizers, so Z errors go untreated
    plan = correction_targets(BIT_FLIP_CODE, "Z")
    assert plan.same_cycle == ()
    assert plan.two_cycle == ()
    assert _targets(plan) == ()


def test_surface17_x_plan():
    plan = correction_targets(SURFACE17_CODE, "X")
    assert plan.same_cycle == ((3, (0, 2)), (4, (1, 2)), (5, (1, 3)))
    assert plan.two_cycle == ((0, 0), (1, 1), (6, 2), (8, 3))
    assert plan.two_cycle_members == (
        (0, (0,)),
        (1, (1, 2)),
        (2, (6, 7)),
        (3, (8,)),
    )
    assert _same_cycle_qubits(plan) == (3, 4, 5)
    assert _two_cycle_qubits(plan) == (0, 1, 2, 6, 7, 8)


def test_surface17_z_plan():
    plan = correction_targets(SURFACE17_CODE, "Z")
    assert plan.same_cycle == ((1, (0, 1)), (4, (1, 2)), (7, (2, 3)))
    assert plan.two_cycle == ((2, 0), (0, 1), (5, 2), (6, 3))
    assert plan.two_cycle_members == (
        (0, (2,)),
        (1, (0, 3)),
        (2, (5, 8)),
        (3, (6,)),
    )
    assert _same_cycle_qubits(plan) == (1, 4, 7)
    assert _two_cycle_qubits(plan) == (0, 2, 3, 5, 6, 8)


def test_plan_one_gate_per_sole_detector():
    # no stabilizer may condition two correction gates: a persistent
    # syndrome would fire both and the second would undo the first
    for code in (BIT_FLIP_CODE, SURFACE17_CODE):
        for etype in ("X", "Z"):
            plan = correction_targets(code, etype)
            stabs = [i for _, i in plan.two_cycle]
            assert len(stabs) == len(set(stabs))


def test_plan_rejects_inequivalent_shared_detector():
    # qubits 0 and 3 share the sole Z-detector but X0.X3 is not a product
    # of X-stabilizers, so one correction gate cannot serve both
    code = CodeSpec(
        name="bad4",
        n_data=4,
        z_stabilizers=((0, 1, 2, 3),),
        x_stabilizers=((0, 1), (1, 2)),
        logical_x=(2, 3),
        logical_z=(3,),
    )
    with pytest.raises(ValueError, match="more than a stabilizer"):
        correction_targets(code, "X")


def test_plan_rejects_uncovered_data_qubit():
    code = CodeSpec(
        name="tiny2",
        n_data=2,
        z_stabilizers=((0,),),
        x_stabilizers=(),
        logical_x=(1,),
        logical_z=(1,),
    )
    with pytest.raises(DataQubitUncovered, match="qubit 1"):
        correction_targets(code, "X")


def test_plan_rejects_bad_error_type():
    with pytest.raises(ValueError, match="'X' or 'Z'"):
        correction_targets(BIT_FLIP_CODE, "Y")


# ---------------------------------------------------------------------------
# circuits realize their correction plans
# ---------------------------------------------------------------------------

CODE_OF = {"bf": BIT_FLIP_CODE, "surface17": SURFACE17_CODE}


@pytest.mark.parametrize(
    "name,variant",
    [(n, v) for n, v in ALL_BUILT if n != "unencoded"],
)
def test_correction_gates_match_plan(name, variant):
    code = CODE_OF[name]
    circ = build_circuit(name, variant)
    x_plan = correction_targets(code, "X")
    z_plan = correction_targets(code, "Z")
    data = set(circ.data_qubits)
    for which in ("a", "b"):
        fresh = {
            ins.qubits[0]
            for ins in circ.cycle(which)[0].instructions
            if ins.kind is GateKind.RESET
            and circ.roles[ins.qubits[0]] is not Role.REMOVAL
        }
        seen_same, seen_two = [], []
        for step in circ.cycle(which):
            for ins in step.instructions:
                if (
                    ins.kind in (GateKind.TOFFOLI, GateKind.CCZ)
                    and ins.qubits[2] in data
                ):
                    expected_kind = (
                        GateKind.TOFFOLI
                        if ins.qubits[2] in set(_targets(x_plan))
                        and ins.kind is GateKind.TOFFOLI
                        else GateKind.CCZ
                    )
                    assert ins.kind is expected_kind, ins
                    n_fresh = len(fresh & set(ins.qubits[:2]))
                    if n_fresh == 2:
                        seen_same.append((ins.kind, ins.qubits[2]))
                    else:
                        # two-cycle gates read one fresh and one stale
                        assert n_fresh == 1, ins
                        seen_two.append((ins.kind, ins.qubits[2]))
        expect_same = sorted(
            [(GateKind.TOFFOLI, q) for q in _same_cycle_qubits(x_plan)]
            + [(GateKind.CCZ, q) for q, _ in z_plan.same_cycle]
        , key=repr)
        expect_two = sorted(
            [(GateKind.TOFFOLI, q) for q, _ in x_plan.two_cycle]
            + [(GateKind.CCZ, q) for q, _ in z_plan.two_cycle]
        , key=repr)
        assert sorted(seen_same, key=repr) == expect_same, which
        assert sorted(seen_two, key=repr) == expect_two, which


def _corners(support):
    """Compass corner of each data qubit of a surface-17 plaquette, from
    its grid position (row, col) = (q // 3, q % 3).  A weight-2 boundary
    plaquette is centred half a cell outside the grid."""
    pos = {q: (q // 3, q % 3) for q in support}
    r = sum(row for row, _ in pos.values()) / len(pos)
    c = sum(col for _, col in pos.values()) / len(pos)
    if len(support) == 2:
        (r0, c0), (r1, c1) = pos.values()
        if r0 == r1:
            r += -0.5 if r0 == 0 else 0.5
        else:
            c += -0.5 if c0 == 0 else 0.5
    corners = {}
    for q, (row, col) in pos.items():
        assert abs(row - r) == 0.5 and abs(col - c) == 0.5, support
        corners[q] = ("N" if row < r else "S") + ("W" if col < c else "E")
    return corners


@pytest.mark.parametrize("variant", [Variant.PERFECT, Variant.SIMPLIFIED])
def test_surface17_extraction_visits_plaquettes_nw_ne_sw_se(variant):
    """Every fresh syndrome ancilla's data CNOTs, in step order, walk its
    plaquette NW, NE, SW, SE; each stabilizer is extracted once a cycle."""
    circ = build_circuit("surface17", variant)
    code = SURFACE17_CODE
    compass = ("NW", "NE", "SW", "SE")
    for which in ("a", "b"):
        visits = {}  # ancilla -> (stabilizer type, [data qubits in order])
        for step in circ.cycle(which):
            for ins in step.instructions:
                if ins.kind is not GateKind.CNOT:
                    continue
                c, t = ins.qubits
                if circ.roles[c] is Role.DATA:  # Z-syndrome: data controls
                    visits.setdefault(t, ("Z", []))[1].append(c)
                elif circ.roles[t] is Role.DATA:  # X-syndrome controls data
                    visits.setdefault(c, ("X", []))[1].append(t)
        extracted = Counter()
        for ancilla, (kind, order) in visits.items():
            support = tuple(sorted(order))
            stabs = code.z_stabilizers if kind == "Z" else code.x_stabilizers
            assert support in stabs, (which, ancilla, order)
            extracted[(kind, support)] += 1
            corners = _corners(support)
            walked = [corners[q] for q in order]
            assert walked == [d for d in compass if d in walked], (
                which, ancilla, walked
            )
        assert sorted(extracted.values()) == [1] * 8, which


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------


def _mini(instructions, roles, variant=Variant.NONE):
    step = TimeStep(tuple(instructions))
    return Circuit(
        name="mini",
        code=BIT_FLIP_CODE,
        variant=variant,
        n_qubits=len(roles),
        roles=tuple(roles),
        cycle_a=(step,),
        cycle_b=(step,),
    )


def _ins(kind, *qubits):
    return Instruction(kind, qubits)


def test_validate_rejects_partial_coverage():
    circ = _mini(
        [_ins(GateKind.IDLE, 0)],
        [Role.DATA, Role.SYNDROME_A],
    )
    with pytest.raises(UnpaddedCircuit):
        validate_circuit(circ)


def test_validate_rejects_double_coverage():
    circ = _mini(
        [_ins(GateKind.IDLE, 0), _ins(GateKind.IDLE, 0)],
        [Role.DATA, Role.SYNDROME_A],
    )
    with pytest.raises(UnpaddedCircuit):
        validate_circuit(circ)


def test_validate_rejects_reset_on_data():
    circ = _mini(
        [_ins(GateKind.RESET, 0), _ins(GateKind.IDLE, 1)],
        [Role.DATA, Role.SYNDROME_A],
    )
    with pytest.raises(ValueError, match="reset on data"):
        validate_circuit(circ)


def test_validate_rejects_h_on_data():
    circ = _mini(
        [_ins(GateKind.H, 0), _ins(GateKind.IDLE, 1)],
        [Role.DATA, Role.SYNDROME_A],
    )
    with pytest.raises(ValueError, match="H on non-syndrome"):
        validate_circuit(circ)


def test_validate_rejects_data_data_cnot():
    circ = _mini(
        [_ins(GateKind.CNOT, 0, 1), _ins(GateKind.IDLE, 2)],
        [Role.DATA, Role.DATA, Role.SYNDROME_A],
    )
    with pytest.raises(ValueError, match="CNOT role mismatch"):
        validate_circuit(circ)


def test_validate_rejects_data_controlled_toffoli():
    circ = _mini(
        [_ins(GateKind.TOFFOLI, 0, 1, 2)],
        [Role.DATA, Role.SYNDROME_A, Role.SYNDROME_B],
    )
    with pytest.raises(ValueError, match="controls must be syndrome"):
        validate_circuit(circ)


def test_validate_rejects_ccz_on_removal():
    circ = _mini(
        [_ins(GateKind.CCZ, 1, 2, 3), _ins(GateKind.IDLE, 0)],
        [Role.DATA, Role.SYNDROME_A, Role.SYNDROME_B, Role.REMOVAL],
    )
    with pytest.raises(ValueError, match="bad target role"):
        validate_circuit(circ)


def test_validate_rejects_uncorrected_data():
    base = build_circuit("bf", Variant.SIMPLIFIED)

    def strip(cycle):
        steps = []
        for step in cycle:
            kept = []
            for ins in step.instructions:
                if ins.kind is GateKind.TOFFOLI:
                    kept.extend(
                        Instruction(GateKind.IDLE, (q,))
                        for q in ins.qubits
                    )
                else:
                    kept.append(ins)
            steps.append(TimeStep(tuple(kept)))
        return tuple(steps)

    circ = dataclasses.replace(
        base, cycle_a=strip(base.cycle_a), cycle_b=strip(base.cycle_b)
    )
    with pytest.raises(DataQubitUncovered, match="no correction targets"):
        validate_circuit(circ)


# ---------------------------------------------------------------------------
# error-site enumeration
# ---------------------------------------------------------------------------


def test_error_sites_channels_and_order():
    circ = build_circuit("bf", Variant.SIMPLIFIED)
    sites = enumerate_error_sites(circ, "a")
    assert len(sites) == 25
    by_channel = Counter(site.channel for site in sites)
    assert by_channel == {
        ErrorChannel.MEMORY: 16,      # idles (no H gates in this code)
        ErrorChannel.TWO_QUBIT: 4,    # extraction CNOTs
        ErrorChannel.THREE_QUBIT: 3,  # correction TOFFOLIs
        ErrorChannel.INIT: 2,         # syndrome resets
    }
    keys = [(s.step, s.qubits[0]) for s in sites]
    assert keys == sorted(keys)
    # sites mirror the instruction stream one-to-one
    listed = [
        (s, ins.kind, ins.qubits)
        for s, step in enumerate(circ.cycle_a, start=1)
        for ins in step.instructions
    ]
    assert [(s.step, s.qubits) for s in sites] == [
        (s, qs) for s, _, qs in listed
    ]


def test_error_sites_unencoded():
    circ = build_unencoded_circuit()
    for which in ("a", "b"):
        sites = enumerate_error_sites(circ, which)
        assert len(sites) == 1
        assert sites[0].channel is ErrorChannel.MEMORY
        assert sites[0].step == 1
        assert sites[0].qubits == (0,)


def test_surface17_has_h_conjugated_x_extraction():
    """X-stabilizer readout brackets ancilla-controlled CNOTs with H."""
    circ = build_circuit("surface17", Variant.SIMPLIFIED)
    for which in ("a", "b"):
        h_qubits = {
            ins.qubits[0]
            for step in circ.cycle(which)
            for ins in step.instructions
            if ins.kind is GateKind.H
        }
        assert len(h_qubits) == len(SURFACE17_CODE.x_stabilizers)
        # each H ancilla controls CNOTs onto exactly one stabilizer support
        for anc in h_qubits:
            touched = tuple(
                sorted(
                    ins.qubits[1]
                    for step in circ.cycle(which)
                    for ins in step.instructions
                    if ins.kind is GateKind.CNOT and ins.qubits[0] == anc
                )
            )
            assert touched in SURFACE17_CODE.x_stabilizers
        # and Z-stabilizer supports arrive as data-controlled CNOTs
        z_targets = {}
        for step in circ.cycle(which):
            for ins in step.instructions:
                if (
                    ins.kind is GateKind.CNOT
                    and circ.roles[ins.qubits[0]] is Role.DATA
                ):
                    z_targets.setdefault(ins.qubits[1], []).append(
                        ins.qubits[0]
                    )
        supports = sorted(tuple(sorted(v)) for v in z_targets.values())
        assert supports == sorted(SURFACE17_CODE.z_stabilizers)
