"""Threshold-estimation tests.

The crossing finder is exercised on synthetic curves where the answer is
known in closed form: for p_log = p^2 / p0 the difference of logs is
linear in log p, so log-log interpolation recovers p0 exactly, on any
grid that brackets it.
"""

import concurrent.futures
import dataclasses
import inspect
import math
import threading

import numpy as np
import pytest

from mfqec import montecarlo, threshold
from mfqec.circuits import Variant
from mfqec.codes import BIT_FLIP_CODE
from mfqec.threshold import (
    NoCrossing,
    SweepPoint,
    ThresholdEstimate,
    find_threshold_crossing,
    iter_sweep,
    sweep_point,
)
from kernelhooks import kernel_library


def _point(p, p_log, failure_cycles=()):
    return SweepPoint(
        p=p,
        p_log=p_log,
        ci_low=p_log,
        ci_high=p_log,
        n_trials=100,
        n_censored=0,
        n_failures=100,
        mean_cycles=1.0 / p_log,
        failure_cycles=failure_cycles,
    )


def _quadratic_curve(p0, grid):
    return [_point(p, p * p / p0) for p in grid]


# ---------------------------------------------------------------------------
# dataclass validation
# ---------------------------------------------------------------------------


def test_sweep_point_validation():
    with pytest.raises(ValueError, match="p must be"):
        _point(0.0, 0.1)
    with pytest.raises(ValueError, match="p must be"):
        _point(1.0, 0.1)
    with pytest.raises(ValueError, match="does not contain"):
        SweepPoint(
            p=0.1, p_log=0.5, ci_low=0.1, ci_high=0.2,
            n_trials=1, n_censored=0, n_failures=1, mean_cycles=2.0,
        )
    # NaN rates (all-censored points) skip the containment check
    nan_point = SweepPoint(
        p=0.1, p_log=math.nan, ci_low=math.nan, ci_high=math.nan,
        n_trials=5, n_censored=5, n_failures=0, mean_cycles=math.nan,
    )
    assert nan_point.n_failures == 0
    assert _point(0.1, 0.05).n_failures != 0


def test_an_estimate_is_the_sweep_point():
    est = montecarlo.estimate_logical_error_rate(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 40, 3,
        max_cycles=100_000, point_index=1,
    )
    assert type(est) is threshold.SweepPoint
    assert threshold.SweepPoint is montecarlo.SweepPoint
    assert est.p == 0.05
    assert est.n_failures == len(est.failure_cycles) > 0
    pt = sweep_point(BIT_FLIP_CODE, Variant.SIMPLIFIED, 0.05, 40, 3, 1,
                     max_cycles=100_000)
    assert pt == est
    assert repr(pt) == repr(est)


def test_failure_cycles_take_part_in_eq_and_repr():
    a = _point(0.01, 0.02, failure_cycles=(40, 60))
    b = dataclasses.replace(a, failure_cycles=(30, 70))
    assert a != b
    assert repr(a) != repr(b)
    assert "failure_cycles=(40, 60)" in repr(a)


def test_keyword_construction_without_failure_cycles():
    # how the benchmark builds points from pooled reference means
    pt = SweepPoint(p=0.01, p_log=0.02, ci_low=0.02, ci_high=0.02,
                    n_trials=10, n_censored=0, n_failures=10, mean_cycles=50.0)
    assert pt.failure_cycles == ()
    assert [f.name for f in dataclasses.fields(SweepPoint)] == [
        "p", "p_log", "ci_low", "ci_high", "n_trials", "n_censored",
        "n_failures", "mean_cycles", "failure_cycles",
    ]


@pytest.mark.parametrize(
    "fn", [montecarlo.estimate_logical_error_rate, iter_sweep, sweep_point]
)
def test_estimates_and_sweeps_default_to_the_frame_engine(fn):
    assert inspect.signature(fn).parameters["engine"].default == "frame"


def test_threshold_estimate_validation():
    ThresholdEstimate(p_th=0.02, bracket=(0.01, 0.03), ci=(0.015, 0.025))
    with pytest.raises(ValueError, match="outside bracket"):
        ThresholdEstimate(p_th=0.05, bracket=(0.01, 0.03), ci=(0.0, 1.0))


# ---------------------------------------------------------------------------
# crossing finder on synthetic curves
# ---------------------------------------------------------------------------


def test_quadratic_curve_crossing_is_exact():
    p0 = 0.013
    grid = np.geomspace(p0 / 5, p0 * 5, 9)
    est = find_threshold_crossing(_quadratic_curve(p0, grid), n_bootstrap=50)
    assert est.p_th == pytest.approx(p0, rel=1e-12)
    assert est.bracket[0] < p0 < est.bracket[1]
    # fixed points bootstrap to the same crossing every time
    assert est.ci == (est.p_th, est.p_th)


def test_crossing_is_grid_independent_for_loglinear_curves():
    p0 = 3.7e-4
    coarse = np.geomspace(p0 / 4, p0 * 4, 5)
    fine = np.geomspace(p0 / 3, p0 * 3, 21)
    a = find_threshold_crossing(_quadratic_curve(p0, coarse), n_bootstrap=10)
    b = find_threshold_crossing(_quadratic_curve(p0, fine), n_bootstrap=10)
    assert a.p_th == pytest.approx(p0, rel=1e-12)
    assert b.p_th == pytest.approx(p0, rel=1e-12)


def test_exact_grid_point_crossing():
    points = [
        _point(0.01, 0.002),
        _point(0.02, 0.02),  # exactly on the identity line
        _point(0.04, 0.09),
    ]
    est = find_threshold_crossing(points, n_bootstrap=10)
    assert est.p_th == 0.02
    assert est.bracket == (0.01, 0.04)



def test_first_crossing_in_grid_order_beats_a_later_tie():
    # d = log(p_log) - log(p) is [-1, 1, 0]: the sign change in
    # [0.01, 0.02] comes first in grid order, so the tie at 0.04 loses
    points = [
        _point(0.01, 0.01 / math.e),
        _point(0.02, 0.02 * math.e),
        _point(0.04, 0.04),
    ]
    est = find_threshold_crossing(points, n_bootstrap=10)
    assert est.bracket == (0.01, 0.02)
    assert est.p_th == pytest.approx(math.sqrt(0.01 * 0.02), rel=1e-12)
    # a tie before the sign change is itself the crossing
    est = find_threshold_crossing(
        [_point(0.005, 0.005), *points[:2]], n_bootstrap=10
    )
    assert (est.p_th, est.bracket) == (0.005, (0.005, 0.01))

def test_one_pass_scan_matches_the_scalar_crossing_row_by_row():
    """``_crossings_of_curves`` finds each row's first crossing in one pass
    over all rows; ``_crossing_from_curve`` scans one row and is its
    oracle, bit for bit.  Beside random curves: a point exactly on the
    identity line first, inside and last, a tie next to a sign change on
    either side, and rows that never cross."""
    ps = np.geomspace(5e-3, 5e-2, 8)
    rng = np.random.default_rng(11)
    slopes = rng.uniform(-1.0, 2.0, size=(2000, 1))
    rows = list(ps * np.exp(rng.normal(0.0, 0.6, size=(2000, 8))
                            + slopes * np.linspace(-1.0, 1.0, 8)))
    below, above = ps / math.e, ps * math.e
    for signs in ["0+++++++", "---0++++", "-------0", "--+0++++", "--0+++++",
                  "+-0+++++", "0-+-----", "+0-+----", "--------", "++++++++",
                  "+++-----", "+-+-+-+-", "000-----", "-0-0-0-0"]:
        rows.append(np.select([np.array(list(signs)) == c for c in "-0"],
                              [below, ps], above))
    curves = np.array(rows)
    expected = []
    for curve in curves:
        hit = threshold._crossing_from_curve(ps, curve)
        expected.append(None if hit is None else hit[0])
    got = threshold._crossings_of_curves(ps, curves)
    assert [repr(v) for v in got] == [repr(v) for v in expected]
    assert expected[2000:] == [ps[0], got[2001], ps[7], got[2003], ps[2], ps[2],
                               ps[0], ps[1], None, None, None, got[2011], ps[0],
                               ps[1]]
    assert all(isinstance(v, float) for v in got if v is not None)
    assert sum(v is None for v in got[:2000]) > 100  # random rows that never cross


def test_crossing_ci_is_numpys_percentile_of_the_bootstrap_crossings():
    """The crossing's CI is ``np.percentile(boot, [2.5, 97.5])`` of the
    crossings of the bootstrap curves that cross, whose number varies with
    how noisy the curves are: bit for bit, for every such list."""
    ps = np.geomspace(5e-3, 5e-2, 8)
    rng = np.random.default_rng(12)
    lengths = set()
    for noise in (0.05, 0.3, 0.6, 1.0, 2.0):
        for _ in range(40):
            n_rows = int(rng.integers(1, 400))
            curves = ps * np.exp(rng.normal(0.0, noise, size=(n_rows, 8))
                                 + rng.uniform(-1.0, 2.0, size=(n_rows, 1))
                                 * np.linspace(-1.0, 1.0, 8))
            boot = [p for p in threshold._crossings_of_curves(ps, curves) if p is not None]
            if boot:
                lengths.add(len(boot))
                want = tuple(float(v) for v in np.percentile(boot, [2.5, 97.5]))
                assert montecarlo.percentile_ci(boot) == want
    assert len(lengths) > 100 and min(lengths) < 10


def test_unsorted_and_censored_points_are_handled():
    p0 = 0.013
    grid = np.geomspace(p0 / 5, p0 * 5, 9)
    points = _quadratic_curve(p0, grid)
    reference = find_threshold_crossing(points, n_bootstrap=10).p_th
    nan_extra = SweepPoint(
        p=1e-5, p_log=math.nan, ci_low=math.nan, ci_high=math.nan,
        n_trials=5, n_censored=5, n_failures=0, mean_cycles=math.nan,
    )
    shuffled = [points[4], nan_extra, *points[5:], *points[:4]]
    est = find_threshold_crossing(shuffled, n_bootstrap=10)
    assert est.p_th == pytest.approx(reference, rel=1e-15)


def test_no_crossing_below():
    p0 = 0.1
    grid = np.geomspace(1e-4, 1e-2, 6)  # far below the crossing
    with pytest.raises(NoCrossing, match="stays below"):
        find_threshold_crossing(_quadratic_curve(p0, grid), n_bootstrap=10)


def test_no_crossing_above():
    points = [_point(p, min(0.9, 3 * p)) for p in (0.01, 0.03, 0.09)]
    with pytest.raises(NoCrossing, match="above or astride"):
        find_threshold_crossing(points, n_bootstrap=10)


def test_no_crossing_needs_two_points():
    with pytest.raises(NoCrossing, match="at least 2"):
        find_threshold_crossing([_point(0.01, 0.005)])
    nan_points = [
        SweepPoint(
            p=p, p_log=math.nan, ci_low=math.nan, ci_high=math.nan,
            n_trials=5, n_censored=5, n_failures=0, mean_cycles=math.nan,
        )
        for p in (0.01, 0.02, 0.04)
    ]
    with pytest.raises(NoCrossing, match="at least 2"):
        find_threshold_crossing(nan_points)


def test_bootstrap_ci_from_failure_cycles():
    rng = np.random.default_rng(8)
    p0 = 0.02
    points = []
    for p in np.geomspace(p0 / 4, p0 * 4, 7):
        p_log_true = p * p / p0
        cycles = rng.geometric(p_log_true, size=400)
        p_log = 1.0 / cycles.mean()
        points.append(_point(float(p), float(p_log), tuple(cycles)))
    est1 = find_threshold_crossing(points, n_bootstrap=300, seed=5)
    est2 = find_threshold_crossing(points, n_bootstrap=300, seed=5)
    est3 = find_threshold_crossing(points, n_bootstrap=300, seed=6)
    assert est1 == est2  # seeded bootstrap is reproducible
    assert est1.ci != est3.ci  # and actually depends on the seed
    lo, hi = est1.ci
    assert lo < hi
    assert lo < est1.p_th < hi
    # with 400 samples per point the crossing lands near the true value
    assert est1.p_th == pytest.approx(p0, rel=0.25)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_grid_validation():
    for bad in ([0.0, 0.1], [0.1, 1.0], [-0.2]):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            list(iter_sweep(
                BIT_FLIP_CODE, Variant.SIMPLIFIED, bad, 5, 1
            ))
    for bad in ([0.2, 0.1], [0.1, 0.1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            list(iter_sweep(
                BIT_FLIP_CODE, Variant.SIMPLIFIED, bad, 5, 1
            ))


def test_sweep_end_to_end_and_point_independence():
    grid = [0.02, 0.05]
    kwargs = dict(max_cycles=100_000, engine="frame")
    points = list(iter_sweep(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, grid, 40, 3, **kwargs
    ))
    again = list(iter_sweep(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, grid, 40, 3, **kwargs
    ))
    assert points == again
    assert [pt.p for pt in points] == grid
    for index, pt in enumerate(points):
        assert pt.n_trials == 40
        assert pt.n_failures == len(pt.failure_cycles) > 0
        assert pt.ci_low <= pt.p_log <= pt.ci_high
        # a point's trials depend only on (master_seed, its own index)
        solo = sweep_point(
            BIT_FLIP_CODE, Variant.SIMPLIFIED, pt.p, 40, 3, index, **kwargs
        )
        assert solo == pt
    # more noise fails faster
    assert points[0].mean_cycles > points[1].mean_cycles


def test_a_sweep_runs_its_points_on_one_thread_pool(monkeypatch):
    """With two workers a sweep opens one thread pool for all its points
    and shuts it down when it ends or is closed early; a standalone
    estimate opens and shuts down its own.  No thread is left behind, and
    the points are those of one worker."""
    kernel_library()
    pools = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    baseline = threading.active_count()
    args = (BIT_FLIP_CODE, Variant.SIMPLIFIED, [0.01, 0.02, 0.04], 60, 5)
    points = list(iter_sweep(*args, workers=2))
    assert len(pools) == 1 and pools[0]._shutdown
    assert threading.active_count() == baseline
    assert points == list(iter_sweep(*args, workers=1))
    sweep = iter_sweep(*args, workers=2)
    assert next(sweep) == points[0]
    sweep.close()
    assert len(pools) == 2 and pools[1]._shutdown
    assert threading.active_count() == baseline
    assert montecarlo.estimate_logical_error_rate(*args[:2], 0.02, 60, 5, point_index=1,
                                                  workers=2) == points[1]
    assert len(pools) == 3 and pools[2]._shutdown
    assert threading.active_count() == baseline


def test_sweep_progress_messages():
    messages = []
    list(iter_sweep(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, [0.05], 40, 3,
        max_cycles=100_000, engine="frame", progress=messages.append,
    ))
    assert any(m.startswith("point 1/1") for m in messages)
    assert any(m.strip() == "40/40 trials" for m in messages)


def test_sweep_point_all_censored_is_nan():
    pt = sweep_point(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, 1e-7, 5, 3, 0,
        max_cycles=5, engine="frame",
    )
    assert pt.n_failures == 0
    assert pt.n_trials == pt.n_censored == 5
    assert math.isnan(pt.p_log) and math.isnan(pt.mean_cycles)
    assert pt.failure_cycles == ()


# A small seeded bf-simplified sweep (199 trials per point, seed 42, frame
# engine): each point's bootstrap CI and the threshold's, recorded before
# the bootstraps moved into the C kernel.  The failure times are pinned by
# test_montecarlo's GOLDEN_STREAM; this pins what the two bootstraps make
# of them.
CI_PIN_GRID = [0.008, 0.0125, 0.02, 0.032]
CI_PIN_POINTS = [
    (0.005184154722269982, 0.006936154268436141),
    (0.00931542182125859, 0.012272889864689846),
    (0.01967360597919442, 0.02522835464220742),
    (0.033535416517456534, 0.04273320735268854),
]
CI_PIN_THRESHOLD = (0.01675488379831216, (0.013410913777520113, 0.02093808433418322))


def test_bootstrap_cis_match_the_pinned_stream():
    points = list(iter_sweep(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, CI_PIN_GRID, 199, 42, engine="frame"
    ))
    assert [(pt.ci_low, pt.ci_high) for pt in points] == CI_PIN_POINTS
    assert [pt.n_failures for pt in points] == [199] * 4
    est = find_threshold_crossing(points, n_bootstrap=500, seed=1)
    assert (est.p_th, est.ci) == CI_PIN_THRESHOLD


def test_bootstrap_cis_match_the_pinned_stream_split_over_workers(monkeypatch):
    """With every bootstrap split over two workers, the pinned sweep's CIs
    and its crossing are the pinned ones."""
    from mfqec import kernel

    kernel_library()
    monkeypatch.setattr(montecarlo, "_MIN_SPLIT_DRAWS", 0)
    calls = []
    real = kernel.resample_sums
    monkeypatch.setattr(kernel, "resample_sums", lambda *a: calls.append(1) or real(*a))
    points = list(iter_sweep(
        BIT_FLIP_CODE, Variant.SIMPLIFIED, CI_PIN_GRID, 199, 42, engine="frame",
        workers=2,
    ))
    assert [(pt.ci_low, pt.ci_high) for pt in points] == CI_PIN_POINTS
    est = find_threshold_crossing(points, n_bootstrap=500, seed=1, workers=2)
    assert (est.p_th, est.ci) == CI_PIN_THRESHOLD
    assert len(calls) >= 2 * (len(CI_PIN_GRID) + 1)  # every bootstrap split
