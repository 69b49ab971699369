"""The names the benchmark's traced mode patches or binds.

``perfbench/spans.py`` swaps each traced function for a wrapper wherever an
mfqec module binds it, and does nothing when a name is no longer bound.  A
refactor that renames or inlines one of these functions would so turn its
per-layer metric to 0 without any failure; this test fails instead.
"""

import inspect

import pytest

from mfqec import cli, montecarlo, threshold
from mfqec.circuits import Variant
from mfqec.codes import BIT_FLIP_CODE

BOUND = [
    (montecarlo, "trial_seed"),
    (montecarlo, "sample_clean_run_length"),
    (montecarlo, "sample_error_count_given_any"),
    (montecarlo, "draw_event_paulis"),
    (montecarlo, "run_trial"),
    (montecarlo, "make_engine"),
    (montecarlo, "_run_trial_block"),
    (montecarlo, "aggregate_rate_estimate"),
    (threshold, "sweep_point"),
    (threshold, "find_threshold_crossing"),
    (threshold, "SweepPoint"),
    (cli, "run_command"),
    (cli, "CSV_HEADER"),
]


@pytest.mark.parametrize("module, name", BOUND,
                         ids=[f"{m.__name__}.{n}" for m, n in BOUND])
def test_traced_name_is_bound(module, name):
    assert hasattr(module, name), f"{module.__name__}.{name} is no longer bound"


def test_estimate_keeps_the_parameters_the_benchmark_binds():
    params = inspect.signature(montecarlo.estimate_logical_error_rate).parameters
    for name in ("p", "n_trials", "master_seed", "point_index"):
        assert name in params, name


def test_iter_sweep_calls_sweep_point_through_the_module(monkeypatch):
    calls = []
    monkeypatch.setattr(threshold, "sweep_point",
                        lambda *args, **kwargs: calls.append(args[2]) or args[2])
    grid = [0.01, 0.02]
    assert list(threshold.iter_sweep(BIT_FLIP_CODE, Variant.SIMPLIFIED, grid, 5, 1)) == grid
    assert calls == grid
