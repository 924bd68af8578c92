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
(rows, m) for two-sample problems) for each plan.  The framework's
estimates and semi-distance |clamp(g(E(x))) - clamp(g(anchor))| / s are
defined on such arrays, and decide the whole block at once.

A single measured value is a batch of one row, so the block decision is
the scalar ``Region.contains`` / ``ConfidenceRegion.contains`` decision on
each row, errors included.

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
from typing import Sequence

import numpy as np

from .framework import (
    Hypothesis,
    TestProblem,
    _statistic,
    eta_gamma,
    quantity_value,
    rejection_region,
)
from .measurement import (
    STREAM_CONTRACT,
    State,
    TwoSampleState,
    _load_ndtri,
    _Rows,
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


@dataclass(frozen=True)
class _Rule:
    """How a plan decides a block of replications: the semi-distance of
    each row's estimate from the anchor against eta."""

    problem: TestProblem
    anchor: float
    eta: float
    coverage: bool

    @staticmethod
    def of(plan: ExperimentPlan) -> "_Rule":
        problem = plan.problem
        if plan.hypothesis is None:
            target = quantity_value(problem, plan.truth)
            return _Rule(problem, target, eta_gamma(problem, None, plan.level), True)
        region = rejection_region(problem, plan.hypothesis, plan.level)
        return _Rule(problem, plan.hypothesis.value, region.eta, False)

    def hits(self, xs: np.ndarray, ys: np.ndarray | None) -> int:
        y = None if ys is None else _Rows(ys)
        d = _statistic(self.problem, self.anchor, _Rows(xs), y, self.coverage)
        hit = d < self.eta if self.coverage else d >= self.eta
        return int(np.count_nonzero(hit))


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
