"""Stabilizer code definitions.

A CodeSpec fixes the data-qubit count, the stabilizer generators (given as
support sets, Z-type and X-type separately — both codes here are CSS), and
one logical X / logical Z representative.  Group-theoretic sanity is checked
at construction: generators must commute, be independent, leave exactly one
logical qubit, and the logicals must commute with the group and anticommute
with each other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliOperator


def _f2_rank(mat: np.ndarray) -> int:
    m = (np.array(mat, dtype=np.uint8) & 1).copy()
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for row in range(rows):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
    return rank


def _overlap(a, b) -> int:
    return len(set(a) & set(b))


@dataclass(frozen=True)
class CodeSpec:
    name: str
    n_data: int
    z_stabilizers: tuple
    x_stabilizers: tuple
    logical_x: tuple
    logical_z: tuple

    def __post_init__(self):
        for support in (
            *self.z_stabilizers,
            *self.x_stabilizers,
            self.logical_x,
            self.logical_z,
        ):
            if not support:
                raise ValueError("empty support")
            if sorted(set(support)) != list(support):
                raise ValueError(f"support {support} must be sorted and unique")
            if support[0] < 0 or support[-1] >= self.n_data:
                raise ValueError(f"support {support} out of range")
        # CSS commutation: X-type vs Z-type overlaps must be even
        for xs in self.x_stabilizers:
            for zs in self.z_stabilizers:
                if _overlap(xs, zs) % 2:
                    raise ValueError(f"stabilizers {xs} and {zs} anticommute")
            if _overlap(xs, self.logical_z) % 2:
                raise ValueError(f"logical Z anticommutes with {xs}")
        for zs in self.z_stabilizers:
            if _overlap(zs, self.logical_x) % 2:
                raise ValueError(f"logical X anticommutes with {zs}")
        if _overlap(self.logical_x, self.logical_z) % 2 == 0:
            raise ValueError("logical X and logical Z must anticommute")
        # independence and logical-qubit count
        vecs = []
        for zs in self.z_stabilizers:
            row = np.zeros(2 * self.n_data, np.uint8)
            for q in zs:
                row[self.n_data + q] = 1
            vecs.append(row)
        for xs in self.x_stabilizers:
            row = np.zeros(2 * self.n_data, np.uint8)
            for q in xs:
                row[q] = 1
            vecs.append(row)
        n_gen = len(vecs)
        if n_gen:
            if _f2_rank(np.array(vecs)) != n_gen:
                raise ValueError("stabilizer generators are not independent")
        if self.n_data - n_gen != 1:
            raise ValueError(
                f"{self.name}: {self.n_data} data qubits with {n_gen} "
                "generators does not leave exactly one logical qubit"
            )

    # -- Pauli views (padded out to a full circuit register) -------------

    def z_stabilizer_pauli(self, i: int, n_total=None) -> PauliOperator:
        n = self.n_data if n_total is None else n_total
        return PauliOperator.on_support(n, self.z_stabilizers[i], "Z")

    def x_stabilizer_pauli(self, i: int, n_total=None) -> PauliOperator:
        n = self.n_data if n_total is None else n_total
        return PauliOperator.on_support(n, self.x_stabilizers[i], "X")

    def logical_x_pauli(self, n_total=None) -> PauliOperator:
        n = self.n_data if n_total is None else n_total
        return PauliOperator.on_support(n, self.logical_x, "X")

    def logical_z_pauli(self, n_total=None) -> PauliOperator:
        n = self.n_data if n_total is None else n_total
        return PauliOperator.on_support(n, self.logical_z, "Z")

    def generators(self, n_total=None):
        return [
            self.z_stabilizer_pauli(i, n_total)
            for i in range(len(self.z_stabilizers))
        ] + [
            self.x_stabilizer_pauli(i, n_total)
            for i in range(len(self.x_stabilizers))
        ]


# Three-qubit repetition code protecting against bit flips.
# Data qubits 0,1,2; Z1Z2 and Z2Z3 detect X errors.
BIT_FLIP_CODE = CodeSpec(
    name="bf",
    n_data=3,
    z_stabilizers=((0, 1), (1, 2)),
    x_stabilizers=(),
    logical_x=(0, 1, 2),
    logical_z=(0, 1, 2),
)

# Distance-3 surface code on a 3x3 data-qubit grid (17 qubits with one
# syndrome set; the circuits keep two sets plus removal ancillas).
# Data qubit q sits at grid position (row, col) = (q // 3, q % 3).
SURFACE17_CODE = CodeSpec(
    name="surface17",
    n_data=9,
    z_stabilizers=((0, 3), (1, 2, 4, 5), (3, 4, 6, 7), (5, 8)),
    x_stabilizers=((1, 2), (0, 1, 3, 4), (4, 5, 7, 8), (6, 7)),
    logical_x=(2, 4, 6),
    logical_z=(0, 4, 8),
)

# Unencoded single qubit: the do-nothing baseline the protected codes are
# compared against.
UNENCODED = CodeSpec(
    name="unencoded",
    n_data=1,
    z_stabilizers=(),
    x_stabilizers=(),
    logical_x=(0,),
    logical_z=(0,),
)

CODES = {
    "bf": BIT_FLIP_CODE,
    "surface17": SURFACE17_CODE,
    "unencoded": UNENCODED,
}
