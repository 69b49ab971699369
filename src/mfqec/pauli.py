"""Hermitian Pauli operators with explicit +/-1 signs.

An n-qubit Pauli is stored as two uint8 bit vectors ``x`` and ``z`` plus a
sign bit.  Per qubit, (x, z) = (0,0) is I, (1,0) is X, (0,1) is Z and (1,1)
is the Hermitian Y.  Operators are built, queried and compared here; the
tableau forms the products of its rows itself.
"""
from __future__ import annotations

import numpy as np

_LABEL_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LABEL = {v: k for k, v in _LABEL_BITS.items()}


class PauliOperator:
    __slots__ = ("x", "z", "sign_bit")

    def __init__(self, x, z, sign=1):
        self.x = np.asarray(x, dtype=np.uint8) & 1
        self.z = np.asarray(z, dtype=np.uint8) & 1
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be 1-d bit vectors of equal length")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign_bit = 0 if sign == 1 else 1

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(np.zeros(n, np.uint8), np.zeros(n, np.uint8))

    @classmethod
    def from_label(cls, label: str) -> "PauliOperator":
        """Build from a string like ``"+XIZ"`` or ``"-YY"`` (qubit 0 first)."""
        sign = 1
        if label and label[0] in "+-":
            sign = 1 if label[0] == "+" else -1
            label = label[1:]
        try:
            bits = [_LABEL_BITS[ch] for ch in label]
        except KeyError as exc:
            raise ValueError(f"bad Pauli letter {exc}") from None
        x = np.array([b[0] for b in bits], np.uint8)
        z = np.array([b[1] for b in bits], np.uint8)
        return cls(x, z, sign)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliOperator":
        x = np.zeros(n, np.uint8)
        z = np.zeros(n, np.uint8)
        x[qubit], z[qubit] = _LABEL_BITS[letter]
        return cls(x, z)

    @classmethod
    def on_support(cls, n: int, support, letter: str) -> "PauliOperator":
        """Uniform product like Z1 Z2 Z3: ``letter`` on every qubit in support."""
        x = np.zeros(n, np.uint8)
        z = np.zeros(n, np.uint8)
        bx, bz = _LABEL_BITS[letter]
        for q in support:
            x[q], z[q] = bx, bz
        return cls(x, z)

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def sign(self) -> int:
        return -1 if self.sign_bit else 1

    def commutes_with(self, other: "PauliOperator") -> bool:
        sym = int(self.x @ other.z) + int(self.z @ other.x)
        return sym % 2 == 0

    def label(self) -> str:
        body = "".join(
            _BITS_LABEL[(int(a), int(b))] for a, b in zip(self.x, self.z)
        )
        return ("-" if self.sign_bit else "+") + body

    def copy(self) -> "PauliOperator":
        out = PauliOperator(self.x.copy(), self.z.copy())
        out.sign_bit = self.sign_bit
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and self.sign_bit == other.sign_bit
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.x.tobytes(), self.z.tobytes(), self.sign_bit))

    def __repr__(self) -> str:
        return f"PauliOperator({self.label()!r})"
