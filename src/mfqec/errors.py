"""Stochastic Pauli noise attached to circuit locations.

Every instruction in a padded cycle is one error site.  A site errs with
probability p, and conditioned on erring draws uniformly from the
non-identity Paulis on its qubits:

* MEMORY (idle, H, and any other 1q slot): X, Y or Z, each p/3
* TWO_QUBIT (CNOT): the 15 non-identity pairs, each p/15
* THREE_QUBIT (Toffoli / CCZ): the 63 non-identity triples, each p/63
* INIT (reset): X with probability p

Besides the Pauli draw of an erring site there are two aggregate samplers
used by the skip-ahead Monte Carlo loop: the geometric number of
consecutive error-free cycles, and the error count of a cycle conditioned
on having at least one error.  Both are exact, not approximations.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .pauli import PauliOperator


class DegenerateRate(ValueError):
    """Physical error rate admits no error events (p <= 0) or is > 1."""


class ErrorChannel(enum.Enum):
    MEMORY = "memory"
    TWO_QUBIT = "two_qubit"
    THREE_QUBIT = "three_qubit"
    INIT = "init"

    # Members compare by identity, so they may hash by it too: a site's hash
    # then costs no Python call (Enum's own hashes the member's name).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ErrorSite:
    channel: ErrorChannel
    step: int           # 1-based time step within the cycle
    qubits: tuple

    @property
    def n_paulis(self) -> int:
        return {
            ErrorChannel.MEMORY: 3,
            ErrorChannel.TWO_QUBIT: 15,
            ErrorChannel.THREE_QUBIT: 63,
            ErrorChannel.INIT: 1,
        }[self.channel]


@dataclass(frozen=True)
class ErrorEvent:
    site: ErrorSite
    paulis: tuple  # one letter per site qubit, not all "I"


_LETTERS = ("I", "X", "Y", "Z")

# The non-identity Paulis on one, two and three qubits, by base-4 index of
# their letters (first qubit most significant) less one: a draw of i picks
# the Pauli of index i + 1, as the C kernel's draw_pauli numbers them.
_PAULIS_1, _PAULIS_2, _PAULIS_3 = (tuple(product(_LETTERS, repeat=k))[1:] for k in (1, 2, 3))
# Enum members as module names, which Python reads faster in a hot loop.
_MEMORY, _TWO_QUBIT, _THREE_QUBIT, _INIT = ErrorChannel


def _check_rate(p: float):
    if not 0.0 < p <= 1.0:
        raise DegenerateRate(f"physical error rate must be in (0, 1], got {p}")


def draw_event_paulis(channel: ErrorChannel, rng: np.random.Generator) -> tuple:
    """Uniform non-identity Pauli for a site known to err."""
    if channel is _MEMORY:
        return _PAULIS_1[rng.integers(3)]
    if channel is _TWO_QUBIT:
        return _PAULIS_2[rng.integers(15)]
    if channel is _THREE_QUBIT:
        return _PAULIS_3[rng.integers(63)]
    if channel is _INIT:
        return ("X",)
    raise ValueError(f"unknown channel {channel}")


def event_pauli(event: ErrorEvent, n_total: int) -> PauliOperator:
    x = np.zeros(n_total, np.uint8)
    z = np.zeros(n_total, np.uint8)
    for q, letter in zip(event.site.qubits, event.paulis):
        if letter in ("X", "Y"):
            x[q] = 1
        if letter in ("Z", "Y"):
            z[q] = 1
    return PauliOperator(x, z)


# ---------------------------------------------------------------------------
# aggregate samplers for the skip-ahead loop
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def clean_cycle_log_probability(p: float, n_sites: int) -> float:
    """log P(none of ``n_sites`` locations errs), n_sites·log1p(-p), kept
    per (p, n_sites).  A rejected pair is never stored, so it raises on
    every call."""
    _check_rate(p)
    if n_sites < 1:
        raise ValueError("need at least one error site")
    log_clean = n_sites * math.log1p(-p)
    if log_clean == 0.0:
        raise DegenerateRate("cycles are certainly clean; run length diverges")
    return log_clean


def sample_clean_run_length(p: float, n_sites: int, rng: np.random.Generator) -> int:
    """Number of consecutive cycles (possibly 0) in which none of the
    ``n_sites`` locations errs.  Exact geometric inverse-CDF sampling with
    success probability 1 - (1-p)**n_sites, done in log space."""
    log_clean = clean_cycle_log_probability(p, n_sites)
    r = rng.random()
    return math.floor(math.log1p(-r) / log_clean)


def _count_table(p: float, n_sites: int) -> np.ndarray:
    """Cumulative distribution of Binomial(n_sites, p) conditioned on >= 1,
    computed in log space so it stays exact-to-double for tiny p."""
    ks = np.arange(1, n_sites + 1, dtype=np.float64)
    logw = (
        math.lgamma(n_sites + 1)
        - np.array([math.lgamma(k + 1) for k in ks])
        - np.array([math.lgamma(n_sites - k + 1) for k in ks])
        + ks * math.log(p)
        + (n_sites - ks) * math.log1p(-p)
    )
    w = np.exp(logw - logw.max())
    table = np.cumsum(w)
    table /= table[-1]
    return table


@lru_cache(maxsize=None)
def error_count_cdf(p: float, n_sites: int) -> list:
    """``_count_table(p, n_sites)`` as a list, for bisect, kept per (p,
    n_sites).  A rejected pair is never stored, so it raises on every
    call."""
    _check_rate(p)
    if n_sites < 1:
        raise ValueError("need at least one error site")
    return _count_table(p, n_sites).tolist()


def sample_error_count_given_any(
    p: float, n_sites: int, rng: np.random.Generator
) -> int:
    """Draw how many of ``n_sites`` locations err in a cycle known to have
    at least one error."""
    table = error_count_cdf(p, n_sites)
    # the same comparisons as np.searchsorted(..., side="right")
    return bisect_right(table, rng.random()) + 1
