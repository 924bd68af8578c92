"""Monte Carlo verification of coverage and size.

Stream contract 2 (``measurement.STREAM_CONTRACT``, carried by every
``ExperimentReport``): replication j draws exactly
``sample(truth, n, m, rng=stream(seed, j))``, one PCG64 word per value,
so reports are reproducible and independent of how the replications are
partitioned across workers.  Gates use 4-sigma binomial bands around the
nominal level, clamped to [0, 1], which keeps the false-alarm
probability of a passing implementation below 1e-4.

Block kernel: replications run in blocks of ``_BLOCK_VALUES // (n + m)``
rows, so memory stays bounded at any J.  ``measurement._std_block``
computes the block's standard normals with array arithmetic, and
``measurement._scale_rows`` scales them into a (rows, n) array (plus
(rows, m) for two-sample problems) for each plan; the estimates
and the semi-distance |clamp(g(E(x))) - clamp(g(anchor))| / s are then
evaluated for the whole block with numpy, reading g (log or identity),
the half-line clamp and the studentized scale s from the problem's
``SemiDistanceKind``.

Guard band: numpy sums round differently from ``math.fsum``, and
``np.log`` from ``math.log``, so a batched statistic can sit a few ulps
from the scalar one.  Each row carries a bound on that gap, derived from
the summation error (about n * u * sum|x_i| on a mean) and carried
through the estimator and the distance.  Rows whose statistic lies
within that band of eta, and rows that are degenerate or non-finite, are
decided by the framework's scalar ``ConfidenceRegion.contains`` /
``Region.contains`` on the same values, which also raises exactly where
it always has (a non-finite row raises in ``Sample``).  Hits therefore
equal the scalar path's, replication for replication.

Shared draws: the points of a power curve share the plan's seed, so
replication j of every point scales the same standard normals (common
random numbers, which make the points' rates positively correlated).
Each block is therefore drawn once and scaled for every point, and a
pool runs one task per chunk of replications, covering every point.

Worker pool: a call with ``workers`` > 1 runs its chunks on one
``ProcessPoolExecutor`` per process, opened by the first such call and
reused by every later call with the same worker count, so a curve pays
no fork or shutdown.  A call with another count shuts the pool down and
opens a new one; a forked child leaves its parent's pool alone and opens
its own; a pool broken by a dead worker is dropped, after its error has
reached the caller, and the next call opens a fresh one.  Idle workers
live until the process exits, when ``concurrent.futures`` joins them (a
multiprocessing child process shuts its pool down in an exit finalizer);
a worker whose process was killed ends itself within a second.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing.util import Finalize
from typing import Callable, Sequence

import numpy as np

from .framework import (
    EstimatorKind,
    Hypothesis,
    TestProblem,
    confidence_region,
    eta_gamma,
    quantity_value,
    rejection_region,
)
from .measurement import (
    STREAM_CONTRACT,
    Sample,
    State,
    TwoSampleState,
    _load_ndtri,
    _scale_rows,
    _std_block,
)

__all__ = [
    "ExperimentPlan",
    "ExperimentReport",
    "coverage_experiment",
    "size_experiment",
    "power_curve",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a problem, the true state, the level (gamma for
    coverage, alpha for size/power), the replication count and the seed.
    A hypothesis is present exactly for size and power runs."""

    problem: TestProblem
    truth: State | TwoSampleState
    level: float
    replications: int
    seed: int
    hypothesis: Hypothesis | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.problem.two_sample != isinstance(self.truth, TwoSampleState):
            raise ValueError("truth does not match the problem's sample structure")


@dataclass(frozen=True)
class ExperimentReport:
    hits: int
    replications: int
    rate: float
    band: tuple[float, float]
    passed: bool
    seed: int
    stream_contract: int = STREAM_CONTRACT


def _binomial_band(p: float, j: int) -> tuple[float, float]:
    # A rate lies in [0, 1], so clamping decides nothing differently.
    half = 4.0 * math.sqrt(p * (1.0 - p) / j)
    return max(0.0, p - half), min(1.0, p + half)


# Values drawn per block; a block holds _BLOCK_VALUES // (n + m) rows, so
# the kernel's memory stays bounded whatever the replication count.
_BLOCK_VALUES = 1 << 16
# Unit roundoff of float64.
_U = 2.0**-53


def _moments(v: np.ndarray) -> tuple[np.ndarray, ...]:
    # Row means and sums of squared deviations, each with a bound on its
    # distance from the scalar mu_bar / ss_bar of the row.  Any summation
    # order errs by at most (k - 1) u sum|term|; fsum adds one rounding,
    # and the two paths' centres differ by at most the mean's bound.
    k = v.shape[1]
    mean = v.sum(axis=1) / k
    mean_err = (k + 4) * _U * np.abs(v).sum(axis=1) / k
    dev = v - mean[:, None]
    ss = np.einsum("ij,ij->i", dev, dev)
    ss_err = (k + 8) * _U * ss + 2.0 * mean_err * np.sqrt(k * ss) + k * mean_err**2
    # Relative bound of ss, inf where ss may be 0 on the scalar path.
    ss_rel = np.where(ss > 2.0 * ss_err, ss_err / ss, np.inf)
    return mean, mean_err, ss, ss_rel


def _statistic(
    problem: TestProblem, anchor: float, xs: np.ndarray, ys: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Row semi-distances |clamp(g(E(x))) - clamp(g(anchor))| / s with a
    first-order bound on each row's distance from the scalar path's value
    (inf for rows that are degenerate or non-finite there)."""
    n, m = problem.n, problem.m
    mean, err, ss, ss_rel = _moments(xs)
    estimator = problem.estimator
    if estimator is EstimatorKind.DIFF_MU_BAR:
        mean_y, err_y, _, _ = _moments(ys)
        e = mean - mean_y
        err = err + err_y + 2.0 * _U * np.abs(e)
    elif estimator is EstimatorKind.SIGMA_BAR:
        e = np.sqrt(ss / n)
        err = e * (ss_rel + 4.0 * _U)
    elif estimator is EstimatorKind.SIGMA_PRIME_RATIO:
        _, _, ss_y, ss_rel_y = _moments(ys)
        e = np.sqrt(ss / (n - 1)) / np.sqrt(ss_y / (m - 1))
        err = e * (ss_rel + ss_rel_y + 12.0 * _U)
    else:
        e = mean
    kind = problem.distance_kind
    if kind.half_line:
        e = np.maximum(e, anchor)
    if kind.log_scale:
        err = np.where(e > 2.0 * err, err / (e - err), np.inf)
        e, anchor = np.log(e), math.log(anchor)
        err = err + 8.0 * _U * np.abs(e)
    d = np.abs(e - anchor)
    err = err + 2.0 * _U * d
    if kind.studentized:
        s = np.sqrt(ss / (n - 1)) / math.sqrt(n)
        d = d / s
        err = err / s + d * (ss_rel + 10.0 * _U)
    return d, err


@dataclass(frozen=True)
class _Rule:
    """How a plan decides a block of replications: the semi-distance from
    the anchor against eta, with ``scalar`` (the framework's own
    ``contains``) settling every row inside the guard band."""

    problem: TestProblem
    anchor: float
    eta: float
    coverage: bool
    scalar: Callable[[Sample], bool]

    @staticmethod
    def of(plan: ExperimentPlan) -> "_Rule":
        problem = plan.problem
        if plan.hypothesis is None:
            target = quantity_value(problem, plan.truth)

            def covers(x: Sample) -> bool:
                return confidence_region(problem, x, plan.level).contains(target)

            return _Rule(problem, target, eta_gamma(problem, None, plan.level), True, covers)
        region = rejection_region(problem, plan.hypothesis, plan.level)
        return _Rule(problem, plan.hypothesis.value, region.eta, False, region.contains)

    def hits(self, xs: np.ndarray, ys: np.ndarray | None) -> int:
        with np.errstate(all="ignore"):
            d, err = _statistic(self.problem, self.anchor, xs, ys)
            # Doubling covers the bound's second-order terms; NaN rows
            # compare false and so take the scalar path too.
            unsure = ~(np.abs(d - self.eta) > 2.0 * err)
            hit = d < self.eta if self.coverage else d >= self.eta
        hits = int(np.count_nonzero(hit & ~unsure))
        for i in np.flatnonzero(unsure):
            second = None if ys is None else tuple(ys[i].tolist())
            hits += self.scalar(Sample(tuple(xs[i].tolist()), second))
        return hits


def _hits(plans: Sequence[ExperimentPlan], start: int, stop: int) -> list[int]:
    """Hits of each plan among replications start..stop-1: covering
    regions for a coverage plan, rejections for a size or power plan.

    The plans share their seed, so replication j has the same standard
    normals in all of them: each block is drawn once and scaled for each
    plan's truth.
    """
    if len({(p.seed, p.problem.n, p.problem.m, p.replications) for p in plans}) > 1:
        raise ValueError("plans that share draws must have the same seed, n, m and replications")
    first = plans[0]
    n, m = first.problem.n, first.problem.m or 0
    rules = [_Rule.of(plan) for plan in plans]
    rows = max(1, _BLOCK_VALUES // (n + m))
    hits = [0] * len(plans)
    for lo in range(start, stop, rows):
        z = _std_block(first.seed, n + m, lo, min(lo + rows, stop))
        for k, (plan, rule) in enumerate(zip(plans, rules)):
            hits[k] += rule.hits(*_scale_rows(z, plan.truth, n))
    return hits


def _chunks(replications: int, workers: int) -> list[tuple[int, int]]:
    if replications < 2 * workers:
        return [(0, replications)]
    bounds = [round(k * replications / workers) for k in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


# This process's worker pool: the executor, its worker count, the pid of
# the process that opened it and the finalizer that shuts it down.  See
# "Worker pool" in the module docstring.  Calls from several threads take
# turns on it, so none can shut it down under another.
_pool: tuple[ProcessPoolExecutor, int, int, Finalize] | None = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool, shutting it down unless it is a forked parent's."""
    global _pool
    if _pool is not None and _pool[2] == os.getpid():
        _pool[3]()
    _pool = None


def _exit_with(parent: int) -> None:
    """Pool worker initializer: end the worker once ``parent`` has died, so
    a killed process leaves no idle worker behind."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    global _pool
    if _pool is not None and _pool[1:3] != (workers, os.getpid()):
        _drop_pool()
    if _pool is None:
        # Forked workers inherit the import instead of each paying for it.
        _load_ndtri()
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with, initargs=(os.getpid(),)
        )
        # A multiprocessing child process joins its children before the
        # concurrent.futures exit hook would stop these workers, but runs
        # finalizers first; priority 100 runs before the pool's own queue
        # finalizers (10), which must still carry the workers' stop signal.
        _pool = (pool, workers, os.getpid(), Finalize(None, pool.shutdown, exitpriority=100))
    return _pool[0]


def _hit_counts(plans: Sequence[ExperimentPlan], workers: int) -> list[int]:
    """Hits of each plan (plans as ``_hits`` takes them); when the
    replications are split, the process's worker pool runs one task per
    chunk, each for every plan, and stays open for the next call."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    replications = plans[0].replications
    spans = _chunks(replications, workers)
    if len(spans) == 1:
        return _hits(plans, 0, replications)
    with _pool_lock:
        pool = _worker_pool(workers)
        try:
            futures = [pool.submit(_hits, plans, a, b) for a, b in spans]
            return [sum(column) for column in zip(*(f.result() for f in futures))]
        except BrokenProcessPool:
            _drop_pool()
            raise


def coverage_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentReport:
    """Fraction of replications whose confidence region covers the true
    quantity value; passes when the rate is no more than 4 binomial
    sigmas below the nominal gamma (conservative entries may exceed it).
    """
    if plan.hypothesis is not None:
        raise ValueError("coverage plans take no hypothesis")
    (hits,) = _hit_counts([plan], workers)
    rate = hits / plan.replications
    band = _binomial_band(plan.level, plan.replications)
    return ExperimentReport(
        hits, plan.replications, rate, band, rate >= band[0], plan.seed
    )


def size_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentReport:
    """Fraction of replications rejected under a true-null state; passes
    when the rate is no more than 4 binomial sigmas above alpha."""
    if plan.hypothesis is None:
        raise ValueError("size plans need a hypothesis")
    truth_value = quantity_value(plan.problem, plan.truth)
    if not plan.hypothesis.holds_at(truth_value):
        raise ValueError(
            f"truth has quantity value {truth_value!r}, outside the null"
        )
    (hits,) = _hit_counts([plan], workers)
    rate = hits / plan.replications
    band = _binomial_band(plan.level, plan.replications)
    return ExperimentReport(
        hits, plan.replications, rate, band, rate <= band[1], plan.seed
    )


def power_curve(
    plan: ExperimentPlan,
    truth_grid: Sequence[State | TwoSampleState],
    workers: int = 1,
) -> list[ExperimentReport]:
    """Rejection rate across a grid of true states (null or not); the
    band is descriptive (4 sigmas around the observed rate) and every
    report passes by construction.

    Every point uses the plan's seed, so the points are common random
    numbers: replication j draws the same standard normals at each point,
    only scaled by that point's truth, and the rates are positively
    correlated.  Each block of normals is drawn once for the whole curve.
    """
    if plan.hypothesis is None:
        raise ValueError("power plans need a hypothesis")
    if not truth_grid:
        raise ValueError("empty truth grid")
    points = [replace(plan, truth=truth) for truth in truth_grid]
    reports = []
    for point, hits in zip(points, _hit_counts(points, workers)):
        rate = hits / point.replications
        band = _binomial_band(rate, point.replications) if 0.0 < rate < 1.0 else (rate, rate)
        reports.append(
            ExperimentReport(hits, point.replications, rate, band, True, point.seed)
        )
    return reports
