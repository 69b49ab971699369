"""Physical-error-rate sweeps and threshold (identity-crossing) estimation.

A sweep runs the time-to-failure Monte Carlo at each point of a grid of
physical error rates ``p`` and records the logical error rate ``p_log``
per point.  The threshold is the rate at which the ``p_log(p)`` curve
crosses the identity line ``p_log = p``: below it the code suppresses
errors, above it encoding makes things worse.  The crossing is located
by log-log linear interpolation between the bracketing grid points, and
its uncertainty is estimated by bootstrap-resampling each point's
failure times and re-locating the crossing.

A sweep point is the rate estimate itself: ``sweep_point`` returns the
``SweepPoint`` that ``estimate_logical_error_rate`` gives, and builds one
only for a point whose every trial was censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .codes import CodeSpec
from .circuits import Variant
from .montecarlo import (AllCensored, SweepPoint, estimate_logical_error_rate,
                         percentile_ci, resample_means)

__all__ = [
    "SweepPoint",
    "ThresholdEstimate",
    "NoCrossing",
    "iter_sweep",
    "sweep_point",
    "find_threshold_crossing",
]


class NoCrossing(RuntimeError):
    """The p_log(p) curve never crosses the identity line on this grid."""


@dataclass(frozen=True)
class ThresholdEstimate:
    """Crossing of p_log(p) with the identity line.

    ``bracket`` is the pair of adjacent grid values between which the
    sign of log(p_log) - log(p) changes; ``ci`` is a bootstrap
    percentile interval for the crossing.
    """

    p_th: float
    bracket: tuple
    ci: tuple

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not (lo <= self.p_th <= hi):
            raise ValueError(
                f"p_th={self.p_th} outside bracket [{lo}, {hi}]"
            )


def iter_sweep(
    code: CodeSpec,
    variant: Variant,
    p_grid: Sequence[float],
    trials_per_point: int,
    master_seed: int,
    *,
    max_cycles: int = 10_000_000,
    workers: int = 1,
    engine: str = "frame",
    progress: Optional[Callable[[str], None]] = None,
) -> Iterator[SweepPoint]:
    """One SweepPoint per grid value, yielded as soon as it is finished,
    deterministic given master_seed.

    Points are seeded by (master_seed, grid index), so a point's trials
    do not depend on the rest of the grid.  A point where every trial is
    censored is returned with NaN rates rather than aborting the sweep.

    With ``workers > 1`` the sweep owns one thread pool, which every
    point's kernel trial slices run on (``estimate_logical_error_rate``
    says when); its threads start with the first slice, not once per
    point.  An estimate that raises cancels its own pending slices, and
    the pool is shut down, waiting for the slices still running, when the
    sweep ends, raises or is closed, so no worker thread outlives it.
    """
    grid = [float(p) for p in p_grid]
    for p in grid:
        if not (0.0 < p < 1.0):
            raise ValueError(f"p_grid values must be in (0, 1), got {p}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"p_grid must be strictly increasing, got {grid}")

    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for index, p in enumerate(grid):
            if progress is not None:
                progress(
                    f"point {index + 1}/{len(grid)}: {code.name} "
                    f"{variant.value} p={p:g} ({trials_per_point} trials)"
                )
            yield sweep_point(
                code,
                variant,
                p,
                trials_per_point,
                master_seed,
                index,
                max_cycles=max_cycles,
                workers=workers,
                engine=engine,
                progress=progress,
                _pool=pool,
            )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def sweep_point(
    code: CodeSpec,
    variant: Variant,
    p: float,
    trials_per_point: int,
    master_seed: int,
    index: int,
    *,
    max_cycles: int = 10_000_000,
    workers: int = 1,
    engine: str = "frame",
    progress: Optional[Callable[[str], None]] = None,
    _pool=None,
) -> SweepPoint:
    """The estimate at one grid point, seeded by (master_seed, index)
    exactly as iter_sweep seeds the point at that grid position, or a
    NaN point when every trial was censored.  ``_pool`` is the sweep's
    thread pool, handed on to ``estimate_logical_error_rate``."""
    trial_progress = None
    if progress is not None:
        trial_progress = lambda done, total: progress(  # noqa: E731
            f"  {done}/{total} trials"
        )
    try:
        return estimate_logical_error_rate(
            code,
            variant,
            p,
            trials_per_point,
            master_seed,
            max_cycles=max_cycles,
            point_index=index,
            workers=workers,
            engine=engine,
            progress=trial_progress,
            _pool=_pool,
        )
    except AllCensored:
        return SweepPoint(
            p=p,
            p_log=math.nan,
            ci_low=math.nan,
            ci_high=math.nan,
            n_trials=trials_per_point,
            n_censored=trials_per_point,
            n_failures=0,
            mean_cycles=math.nan,
        )


def _crossing_from_curve(ps: np.ndarray, p_logs: np.ndarray):
    """Crossing of a discrete curve with the identity line.

    Returns (p_th, bracket) or None when the curve stays on one side.
    The crossing is the first grid interval where d = log(p_log) -
    log(p) changes from negative to non-negative; within it p_th is the
    log-log linear interpolant.  A grid point with d exactly zero is
    itself the crossing.
    """
    d = np.log(p_logs) - np.log(ps)
    for i in range(len(ps)):
        if d[i] == 0.0:
            lo = ps[i - 1] if i > 0 else ps[i]
            hi = ps[i + 1] if i + 1 < len(ps) else ps[i]
            return float(ps[i]), (float(lo), float(hi))
        if i + 1 < len(ps) and d[i] < 0.0 < d[i + 1]:
            t = -d[i] / (d[i + 1] - d[i])
            log_pth = math.log(ps[i]) + t * (math.log(ps[i + 1]) - math.log(ps[i]))
            return math.exp(log_pth), (float(ps[i]), float(ps[i + 1]))
    return None


def _crossings_of_curves(ps: np.ndarray, curves: np.ndarray) -> list:
    """Per row of ``curves``, the p_th of ``_crossing_from_curve(ps, row)``,
    or None where the row does not cross.  The first hit of every row is
    found in one numpy pass; the interpolation at it is the scalar one of
    ``_crossing_from_curve``, so each p_th is the same to the bit."""
    d = np.log(curves) - np.log(ps)
    hit = d == 0.0
    hit[:, :-1] |= (d[:, :-1] < 0.0) & (d[:, 1:] > 0.0)
    rows = np.flatnonzero(hit.any(axis=1))
    at = hit[rows].argmax(axis=1)
    d_at = d[rows, at].tolist()
    d_next = d[rows, np.minimum(at + 1, len(ps) - 1)].tolist()
    grid = ps.tolist()
    log_grid = [math.log(p) for p in grid]
    p_ths = [None] * len(curves)
    for r, i, d_i, d_j in zip(rows.tolist(), at.tolist(), d_at, d_next):
        if d_i == 0.0:
            p_ths[r] = grid[i]
        else:
            t = -d_i / (d_j - d_i)
            p_ths[r] = math.exp(log_grid[i] + t * (log_grid[i + 1] - log_grid[i]))
    return p_ths


def find_threshold_crossing(
    points: Sequence[SweepPoint],
    *,
    n_bootstrap: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> ThresholdEstimate:
    """Locate p_th where p_log(p) crosses the identity line.

    Censored-only points (NaN p_log) are ignored.  The bootstrap
    resamples each remaining point's failure times with replacement,
    recomputes p_log = 1/mean, and re-locates the crossing; resamples
    whose curve fails to cross are dropped.  Points lacking raw failure
    times are held fixed at their point estimate.  Raises NoCrossing
    when the observed curve does not cross the identity line.  With
    ``workers > 1`` the bootstrap's resamples are split over that many
    threads (``resample_means``), in a pool opened only to split; the
    estimate is the same for any ``workers``.
    """
    usable = [
        pt
        for pt in sorted(points, key=lambda pt: pt.p)
        if math.isfinite(pt.p_log) and pt.p_log > 0.0
    ]
    if len(usable) < 2:
        raise NoCrossing(
            f"need at least 2 points with estimated rates, got {len(usable)}"
        )
    ps = np.array([pt.p for pt in usable])
    p_logs = np.array([pt.p_log for pt in usable])

    observed = _crossing_from_curve(ps, p_logs)
    if observed is None:
        side = "below" if np.all(p_logs < ps) else "above or astride"
        raise NoCrossing(
            f"curve does not cross the identity line on [{ps[0]:g}, "
            f"{ps[-1]:g}] (p_log stays {side} p)"
        )
    p_th, bracket = observed

    drawn = [j for j, pt in enumerate(usable) if pt.failure_cycles]
    means = resample_means(
        np.random.default_rng(seed),
        [np.asarray(usable[j].failure_cycles, dtype=np.float64) for j in drawn],
        n_bootstrap,
        workers,
    )
    curves = np.tile(p_logs, (n_bootstrap, 1))
    curves[:, drawn] = 1.0 / means
    boot = [p for p in _crossings_of_curves(ps, curves) if p is not None]
    if boot:
        ci = percentile_ci(boot)
    else:
        ci = bracket
    return ThresholdEstimate(p_th=p_th, bracket=bracket, ci=ci)
