"""Stabilizer tableau simulation (CHP-style, numpy bit arrays).

The tableau keeps 2n+1 rows over n qubits: rows 0..n-1 are destabilizers,
rows n..2n-1 are stabilizers, row 2n is scratch space used when accumulating
row products.  Each row is a Hermitian Pauli ((x,z)=(1,1) means Y) with a
single +/-1 sign bit in ``r``; phases are tracked mod 4 internally and are
always even for stabilizer rows.

Everything a correction circuit needs is a method here: Clifford gates,
Pauli injection, Z measurement/reset, non-destructive expectation-value
queries, and the classically-controlled Toffoli/CCZ used by the feedback
blocks (controls must be in a computational basis state; anything else
raises NonDeterministicControl rather than silently collapsing).
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .pauli import PauliOperator


class InvalidQubit(ValueError):
    """Qubit index outside the tableau."""


class NonDeterministicControl(RuntimeError):
    """A classically-controlled gate saw a control in superposition."""


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    INDETERMINATE = "?"


class MeasurementOutcome(NamedTuple):
    bit: int
    deterministic: bool


class Tableau:
    """Pure stabilizer state on ``n`` qubits, initialized to |0...0>."""

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.x = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.z = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        idx = np.arange(n)
        self.x[idx, idx] = 1          # destabilizer i = X_i
        self.z[n + idx, idx] = 1      # stabilizer i = Z_i

    # -- plumbing ------------------------------------------------------

    def _check(self, q: int) -> int:
        if not 0 <= q < self.n:
            raise InvalidQubit(f"qubit {q} out of range for n={self.n}")
        return q

    def copy(self) -> "Tableau":
        out = Tableau.__new__(Tableau)
        out.n = self.n
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        return out

    # -- Clifford gates ------------------------------------------------

    def apply_H(self, q: int):
        q = self._check(q)
        xq = self.x[:, q]
        zq = self.z[:, q]
        self.r ^= xq & zq
        xq_old = xq.copy()
        self.x[:, q] = zq
        self.z[:, q] = xq_old

    def apply_S(self, q: int):
        q = self._check(q)
        xq = self.x[:, q]
        self.r ^= xq & self.z[:, q]
        self.z[:, q] ^= xq

    def apply_X(self, q: int):
        q = self._check(q)
        self.r ^= self.z[:, q]

    def apply_Z(self, q: int):
        q = self._check(q)
        self.r ^= self.x[:, q]

    def apply_Y(self, q: int):
        q = self._check(q)
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def apply_CNOT(self, c: int, t: int):
        c = self._check(c)
        t = self._check(t)
        if c == t:
            raise InvalidQubit("control equals target")
        xc = self.x[:, c]
        zt = self.z[:, t]
        self.r ^= xc & zt & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= xc
        self.z[:, c] ^= zt

    def apply_CZ(self, a: int, b: int):
        # CZ = (I x H) CNOT (I x H); correct by construction.
        self.apply_H(b)
        self.apply_CNOT(a, b)
        self.apply_H(b)

    def apply_pauli(self, p: PauliOperator):
        """Conjugate every row by p: flips row signs where rows anticommute."""
        if p.n != self.n:
            raise InvalidQubit("operator length does not match tableau")
        flips = (self.x @ p.z + self.z @ p.x) & 1
        self.r ^= flips.astype(np.uint8)

    # -- row products ----------------------------------------------------

    def _mult_rows_by(self, rows: np.ndarray, p: int):
        """row_h := row_p * row_h for every h in ``rows`` (vectorized).

        Phases are exact when row_p commutes with row_h (always true for
        stabilizer rows); destabilizer rows may pick up garbage signs,
        which are never read.
        """
        if rows.size == 0:
            return
        xh = self.x[rows]
        zh = self.z[rows]
        xp = self.x[p]
        zp = self.z[p]
        c_h = np.sum((xh & zh), axis=1, dtype=np.int64)
        c_p = int(np.sum(xp & zp))
        xr = xh ^ xp
        zr = zh ^ zp
        c_out = np.sum((xr & zr), axis=1, dtype=np.int64)
        cross = np.sum((zp & xh), axis=1, dtype=np.int64)
        phase = (
            c_p + c_h - c_out
            + 2 * (self.r[rows].astype(np.int64) + int(self.r[p]) + cross)
        ) % 4
        self.r[rows] = ((phase // 2) & 1).astype(np.uint8)
        self.x[rows] = xr
        self.z[rows] = zr

    def _product_of_stabilizers(self, rows: np.ndarray):
        """Accumulate the ordered product of stabilizer rows into the scratch
        row and return its sign bit.  The rows must mutually commute (true
        for any subset of stabilizer rows), so the phase is always real.
        """
        n = self.n
        if rows.size == 0:
            self.x[2 * n] = 0
            self.z[2 * n] = 0
            self.r[2 * n] = 0
            return 0
        xs = self.x[rows].astype(np.int64)
        zs = self.z[rows].astype(np.int64)
        a = np.bitwise_xor.reduce(self.x[rows], axis=0)
        b = np.bitwise_xor.reduce(self.z[rows], axis=0)
        c_sum = int(np.sum(xs & zs))
        c_out = int(np.sum(a & b))
        # sum_{k<l} <z_k, x_l> via exclusive prefix counts down the columns
        prefix_z = np.cumsum(zs, axis=0) - zs
        cross = int(np.sum(prefix_z * xs))
        phase = (c_sum - c_out + 2 * (int(np.sum(self.r[rows])) + cross)) % 4
        if phase % 2:
            raise AssertionError("stabilizer row product came out imaginary")
        self.x[2 * n] = a
        self.z[2 * n] = b
        self.r[2 * n] = phase // 2
        return phase // 2

    # -- measurement and queries -----------------------------------------

    def measure_z(self, q: int, rng=None) -> MeasurementOutcome:
        q = self._check(q)
        n = self.n
        xq = self.x[:, q]
        stab_hits = np.nonzero(xq[n : 2 * n])[0]
        if stab_hits.size:
            # outcome is a fair coin flip
            if rng is None:
                raise ValueError(
                    f"measurement of qubit {q} is random but no rng was given"
                )
            p = n + int(stab_hits[0])
            others = np.nonzero(xq[: 2 * n])[0]
            others = others[others != p]
            self._mult_rows_by(others, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            bit = int(rng.integers(0, 2))
            self.r[p] = bit
            return MeasurementOutcome(bit, False)
        sel = np.nonzero(xq[:n])[0]
        bit = self._product_of_stabilizers(sel + n)
        return MeasurementOutcome(int(bit), True)

    def reset_zero(self, q: int, rng=None):
        out = self.measure_z(q, rng)
        if out.bit:
            self.apply_X(q)

    def deterministic_sign(self, p: PauliOperator) -> Sign:
        """Expectation sign of p without disturbing the state."""
        if p.n != self.n:
            raise InvalidQubit("operator length does not match tableau")
        n = self.n
        sx = self.x[n : 2 * n]
        sz = self.z[n : 2 * n]
        anti = (sx @ p.z + sz @ p.x) & 1
        if anti.any():
            return Sign.INDETERMINATE
        sel = np.nonzero((self.x[:n] @ p.z + self.z[:n] @ p.x) & 1)[0]
        bit = self._product_of_stabilizers(sel + n)
        if __debug__:
            if not (
                np.array_equal(self.x[2 * n], p.x)
                and np.array_equal(self.z[2 * n], p.z)
            ):
                raise AssertionError("row product does not reproduce operator")
        bit ^= p.sign_bit
        return Sign.MINUS if bit else Sign.PLUS

    def _classical_bit(self, q: int) -> int:
        q = self._check(q)
        n = self.n
        xq = self.x[:, q]
        if xq[n : 2 * n].any():
            raise NonDeterministicControl(
                f"control qubit {q} is not in a computational basis state"
            )
        sel = np.nonzero(xq[:n])[0]
        return int(self._product_of_stabilizers(sel + n))

    def classical_toffoli(self, c1: int, c2: int, t: int):
        """Toffoli with classical controls: X on t iff both controls read 1."""
        self._check(t)
        if len({c1, c2, t}) != 3:
            raise InvalidQubit("Toffoli qubits must be distinct")
        if self._classical_bit(c1) and self._classical_bit(c2):
            self.apply_X(t)

    def classical_ccz(self, c1: int, c2: int, t: int):
        """CCZ with classical controls: Z on t iff both controls read 1."""
        self._check(t)
        if len({c1, c2, t}) != 3:
            raise InvalidQubit("CCZ qubits must be distinct")
        if self._classical_bit(c1) and self._classical_bit(c2):
            self.apply_Z(t)

    def _project_plus(self, p: PauliOperator):
        """Force the state into the +1 eigenspace of p.

        Used for preparing logical states deterministically: acts like a
        measurement of p post-selected on +1, so it consumes no randomness.
        Raises if the state is already a -1 eigenstate.
        """
        if p.n != self.n:
            raise InvalidQubit("operator length does not match tableau")
        n = self.n
        anti = (self.x @ p.z + self.z @ p.x) & 1
        stab_anti = np.nonzero(anti[n : 2 * n])[0]
        if stab_anti.size == 0:
            if self.deterministic_sign(p) is not Sign.PLUS:
                raise ValueError("state is in the -1 eigenspace; cannot project")
            return
        pv = n + int(stab_anti[0])
        others = np.nonzero(anti[: 2 * n])[0]
        others = others[others != pv]
        self._mult_rows_by(others, pv)
        self.x[pv - n] = self.x[pv]
        self.z[pv - n] = self.z[pv]
        self.r[pv - n] = self.r[pv]
        self.x[pv] = p.x
        self.z[pv] = p.z
        self.r[pv] = p.sign_bit

    # -- consistency check (used by tests) --------------------------------

    def check_invariants(self):
        """Symplectic pairing: <D_i,S_j> = delta_ij, <D_i,D_j> = <S_i,S_j> = 0."""
        n = self.n
        X = self.x[: 2 * n].astype(np.int64)
        Z = self.z[: 2 * n].astype(np.int64)
        sym = (X @ Z.T + Z @ X.T) % 2
        want = np.zeros((2 * n, 2 * n), dtype=np.int64)
        want[:n, n:] = np.eye(n, dtype=np.int64)
        want[n:, :n] = np.eye(n, dtype=np.int64)
        if not np.array_equal(sym, want):
            raise AssertionError("tableau rows lost symplectic pairing")
