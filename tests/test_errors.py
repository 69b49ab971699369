"""Noise-model tests.

The aggregate samplers used by the skip-ahead loop are checked two ways:
against exact rational arithmetic (Fraction) for their distributions, and
statistically with seeded chi-square tests for the actual draws.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mfqec.errors import (
    DegenerateRate,
    ErrorChannel,
    ErrorEvent,
    ErrorSite,
    _count_table,
    draw_event_paulis,
    event_pauli,
    sample_clean_run_length,
    sample_error_count_given_any,
)

CHANNEL_ARITY = {
    ErrorChannel.MEMORY: 1,
    ErrorChannel.TWO_QUBIT: 2,
    ErrorChannel.THREE_QUBIT: 3,
    ErrorChannel.INIT: 1,
}


def _site(channel):
    return ErrorSite(channel, step=1, qubits=tuple(range(CHANNEL_ARITY[channel])))


# ---------------------------------------------------------------------------
# per-site draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "channel,n_paulis",
    [
        (ErrorChannel.MEMORY, 3),
        (ErrorChannel.TWO_QUBIT, 15),
        (ErrorChannel.THREE_QUBIT, 63),
        (ErrorChannel.INIT, 1),
    ],
)
def test_site_pauli_counts(channel, n_paulis):
    assert _site(channel).n_paulis == n_paulis


@pytest.mark.parametrize("channel", list(ErrorChannel))
def test_draw_is_valid_and_never_identity(channel):
    rng = np.random.default_rng(7)
    for _ in range(200):
        paulis = draw_event_paulis(channel, rng)
        assert len(paulis) == CHANNEL_ARITY[channel]
        assert set(paulis) <= {"I", "X", "Y", "Z"}
        assert set(paulis) != {"I"}


def test_init_channel_draws_only_x():
    rng = np.random.default_rng(7)
    assert all(
        draw_event_paulis(ErrorChannel.INIT, rng) == ("X",) for _ in range(50)
    )


@pytest.mark.parametrize(
    "channel,n_cells",
    [
        (ErrorChannel.MEMORY, 3),
        (ErrorChannel.TWO_QUBIT, 15),
        (ErrorChannel.THREE_QUBIT, 63),
    ],
)
def test_draw_uniformity(channel, n_cells):
    rng = np.random.default_rng(20260825)
    n = 3000 * n_cells
    counts: dict = {}
    for _ in range(n):
        paulis = draw_event_paulis(channel, rng)
        counts[paulis] = counts.get(paulis, 0) + 1
    assert len(counts) == n_cells  # every non-identity combination appears
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue > 1e-4


@pytest.mark.parametrize("p", [0.0, -0.1, 1.0000001, float("nan")])
def test_invalid_rates_rejected(p):
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateRate):
        sample_clean_run_length(p, 10, rng)
    with pytest.raises(DegenerateRate):
        sample_error_count_given_any(p, 10, rng)


@pytest.mark.parametrize("sampler", [sample_clean_run_length,
                                     sample_error_count_given_any])
def test_samplers_reject_bad_input_on_every_call(sampler):
    """The samplers cache per (p, n_sites) and check only new keys; a
    rejected key is never cached, so it raises again on the next call, also
    after the same p was accepted with another site count."""
    rng = np.random.default_rng(0)
    for p in (0.0, -0.1, 1.0000001, float("nan")):
        for _ in range(2):
            with pytest.raises(DegenerateRate):
                sampler(p, 10, rng)
    sampler(0.25, 10, rng)
    for _ in range(2):
        with pytest.raises(ValueError, match="at least one error site"):
            sampler(0.25, 0, rng)


# ---------------------------------------------------------------------------
# event -> Pauli operator
# ---------------------------------------------------------------------------


def test_event_pauli_bit_patterns():
    site = ErrorSite(ErrorChannel.THREE_QUBIT, step=2, qubits=(2, 5, 7))
    event = ErrorEvent(site, ("X", "Z", "Y"))
    op = event_pauli(event, 9)
    assert list(op.x) == [0, 0, 1, 0, 0, 0, 0, 1, 0]
    assert list(op.z) == [0, 0, 0, 0, 0, 1, 0, 1, 0]


def test_event_pauli_identity_letter_leaves_qubit_alone():
    site = ErrorSite(ErrorChannel.TWO_QUBIT, step=1, qubits=(0, 1))
    op = event_pauli(ErrorEvent(site, ("I", "X")), 2)
    assert list(op.x) == [0, 1]
    assert list(op.z) == [0, 0]


# ---------------------------------------------------------------------------
# clean-run-length sampler (geometric over cycles)
# ---------------------------------------------------------------------------


class _FixedRandom:
    """Stands in for a Generator; returns a preset uniform value."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_clean_run_length_quantiles_exact():
    # p = 0.5 over 2 sites: a cycle is clean with probability 1/4, so the
    # run length L has P(L = k) = (1/4)^k * (3/4) and the CDF boundaries
    # sit at 1 - 4^-k.  Probe strictly inside each quantile interval.
    for r, expected in [(0.0, 0), (0.5, 0), (0.75001, 1), (0.94, 2)]:
        assert sample_clean_run_length(0.5, 2, _FixedRandom(r)) == expected


def test_clean_run_length_distribution():
    p, n_sites = 0.3, 5
    q = Fraction(7, 10) ** n_sites  # exact P(clean cycle)
    rng = np.random.default_rng(99)
    draws = [sample_clean_run_length(p, n_sites, rng) for _ in range(30000)]
    # bin the tail so expected counts stay comfortably large
    k_max = 3
    observed = [0] * (k_max + 2)
    for d in draws:
        observed[min(d, k_max + 1)] += 1
    expected = [float(q**k * (1 - q)) for k in range(k_max + 1)]
    expected.append(float(q ** (k_max + 1)))
    result = stats.chisquare(observed, [e * len(draws) for e in expected])
    assert result.pvalue > 1e-4


def test_clean_run_length_needs_sites():
    with pytest.raises(ValueError):
        sample_clean_run_length(0.1, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# error-count-given-any sampler
# ---------------------------------------------------------------------------


def _exact_conditioned_pmf(p: Fraction, n: int):
    """Binomial(n, p) conditioned on >= 1 success, exact rationals."""
    pmf = []
    for k in range(1, n + 1):
        pmf.append(math.comb(n, k) * p**k * (1 - p) ** (n - k))
    total = sum(pmf)
    assert total == 1 - (1 - p) ** n
    return [w / total for w in pmf]


def test_count_table_matches_exact_rationals():
    for num, den, n in [(1, 2, 2), (1, 20, 77), (1, 1000, 675), (3, 10, 5)]:
        p = Fraction(num, den)
        exact = _exact_conditioned_pmf(p, n)
        cumulative = np.cumsum([float(w) for w in exact])
        table = _count_table(num / den, n)
        assert table.shape == (n,)
        assert table[-1] == 1.0
        np.testing.assert_allclose(table, cumulative, rtol=1e-12, atol=1e-15)


def test_count_hand_values():
    # two sites at p = 1/2: counts 1 and 2 occur with probability 2/3, 1/3
    exact = _exact_conditioned_pmf(Fraction(1, 2), 2)
    assert exact == [Fraction(2, 3), Fraction(1, 3)]
    rng = np.random.default_rng(5)
    draws = [sample_error_count_given_any(0.5, 2, rng) for _ in range(30000)]
    ones = draws.count(1)
    assert set(draws) == {1, 2}
    assert stats.binomtest(ones, len(draws), 2 / 3).pvalue > 1e-4


def test_count_sampler_distribution():
    p, n = 0.05, 25
    exact = _exact_conditioned_pmf(Fraction(1, 20), n)
    rng = np.random.default_rng(17)
    draws = [sample_error_count_given_any(p, n, rng) for _ in range(30000)]
    k_max = 4  # lump the rare tail
    observed = [0] * k_max
    for d in draws:
        observed[min(d, k_max) - 1] += 1
    expected = [float(w) for w in exact[: k_max - 1]]
    expected.append(float(sum(exact[k_max - 1 :])))
    result = stats.chisquare(observed, [e * len(draws) for e in expected])
    assert result.pvalue > 1e-4


def test_count_sampler_bounds():
    assert sample_error_count_given_any(0.2, 8, _FixedRandom(0.0)) == 1
    assert (
        sample_error_count_given_any(0.2, 8, _FixedRandom(1.0 - 1e-16)) == 8
    )
    with pytest.raises(ValueError):
        sample_error_count_given_any(0.2, 0, np.random.default_rng(0))


@pytest.mark.parametrize("p,n", [(0.2, 8), (0.05, 25), (1.3e-4, 223), (4.2e-5, 675)])
def test_count_sampler_matches_searchsorted_at_table_entries(p, n):
    """At each entry of the cached table and its floating-point neighbours,
    the sampler counts exactly as ``np.searchsorted(side="right")`` does."""
    table = _count_table(p, n)
    for entry in table:
        for r in (np.nextafter(entry, -np.inf), entry, np.nextafter(entry, np.inf)):
            expected = int(np.searchsorted(table, r, side="right")) + 1
            assert sample_error_count_given_any(p, n, _FixedRandom(float(r))) == expected


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=99),
    n=st.integers(min_value=1, max_value=60),
)
def test_count_table_matches_rationals_property(num, n):
    p = Fraction(num, 100)
    exact = _exact_conditioned_pmf(p, n)
    cumulative = np.cumsum([float(w) for w in exact])
    table = _count_table(num / 100, n)
    np.testing.assert_allclose(table, cumulative, rtol=1e-11, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1e-6, max_value=0.999),
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_samplers_stay_in_range_property(p, n, seed):
    rng = np.random.default_rng(seed)
    run = sample_clean_run_length(p, n, rng)
    assert isinstance(run, int) and run >= 0
    count = sample_error_count_given_any(p, n, rng)
    assert isinstance(count, int) and 1 <= count <= n
