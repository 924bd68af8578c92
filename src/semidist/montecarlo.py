"""Monte Carlo verification of coverage and size.

Stream contract 3 (``measurement.STREAM_CONTRACT``, carried by every
``ExperimentReport``): replication j draws exactly
``sample(truth, n, m, rng=stream(seed, j))``, from the Philox counters
whose low 64 bits are j, so reports are reproducible and independent of
how the replications are partitioned across workers.  Gates use 4-sigma
(Wald) binomial bands around the nominal level, clamped to [0, 1].  The
chance that a correct implementation fails one is below 1e-4 only where
p * J is large (3.7e-5 at gamma = 0.95, J = 10**5); at J = 100 it is
3.4e-3 for gamma = 0.99 and 9.9e-3 for gamma = 0.9999 (exact binomial
sums).  The ROADMAP.md item "Exact binomial gates" replaces the band with
the exact Clopper-Pearson interval.

Block kernel: ``_split`` cuts replications into spans whose sizes differ
by at most one, in integer arithmetic, so the spans tile their range at
any J up to 2**64.  It gives a pooled run one chunk per worker, and a
chunk of J replications
min(J, max(1, round(J (n + m) / ``_BLOCK_VALUES``))) blocks, so a block
holds at most 1.5 ``_BLOCK_VALUES`` values plus one replication's at any
J.
``measurement._std_block`` draws the block's words with numpy's Philox,
one call per group of four values of every replication, into one
(n + m, rows) array, one column per replication, that it maps to
standard normals in place; ``measurement._scale_side`` scales the
contiguous rows of each side that ``measurement._sides`` reads off the
truth into an (n, rows) array (side 0) or an (m, rows) array (side 1,
two-sample only) of one state's draws (the normals themselves for
N(0, 1)), which ``_Rows`` holds with their estimators: each column is
summed in the one pairwise order of ``measurement._pairwise_sum``, within
gamma(ceil(log2 n)) * sum |x_i| of the exact sum.
The framework's estimates and semi-distance
|clamp(g(E(x))) - clamp(g(anchor))| / s are defined on such blocks, and
decide the whole block at once.

A single measured value is a batch of one column, with the same
additions in the same order, so the block decision is the scalar
``Region.contains`` / ``ConfidenceRegion.contains`` decision on each
replication, errors included.

Shared draws: the points of a power curve share the plan's seed, so
replication j of every point scales the same standard normals (common
random numbers, which make the points' rates positively correlated).
Each block is therefore drawn once for every point, and its rows are
built once per distinct (side, state) and reused by every point whose
truth has that state on that side: on a two-sample curve from
``framework.state_with_quantity``, the fixed second sample is scaled and
estimated once per block, not once per point.  Rows that several points
read live for one block, and the others only for their one decision, so
memory stays bounded.  A pool runs one task per chunk of replications,
covering every point.

Worker pool: a call with ``workers`` > 1 runs its chunks on one
``ProcessPoolExecutor`` per process, opened by the first such call and
reused by every later call with the same worker count, so a curve pays
no fork or shutdown.  A call with another count shuts the pool down and
opens a new one; a forked child leaves its parent's pool alone and opens
its own; a pool broken by a dead worker is dropped, after its error has
reached the caller, and the next call opens a fresh one.  Idle workers
live until the process exits, when ``concurrent.futures`` joins them (a
multiprocessing child process shuts its pool down in an exit finalizer);
a worker whose process was killed ends itself within a second.  The
pool's modules (``concurrent.futures`` and ``multiprocessing``) are
imported when the first pool opens, so a one-worker run never loads
them.  ``scipy.special``, whose ``ndtri`` every draw calls, is still
imported in the parent then, before any worker forks, so the workers
share its pages instead of each importing it: without the preload the parent
measured 17 MiB smaller, but parent plus workers grew from 64 to 90 MiB
proportional set size and the first curve ran about 120 ms slower.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distributions import _count, _level
from .framework import (
    Hypothesis,
    TestProblem,
    _check_state,
    _statistic,
    _validate_hypothesis,
    eta_gamma,
    quantity_value,
    rejection_region,
)
from .measurement import (
    STREAM_CONTRACT,
    State,
    TwoSampleState,
    _Rows,
    _scale_side,
    _sides,
    _std_block,
    _Z_MAX,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.util import Finalize

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
    A hypothesis is present exactly for size and power runs.  The seed is
    an integer >= 0 and the replication count one in 1..2**64 (the
    replications the low word of Philox's counter tells apart), each
    stored as an int (``_count``).  A truth of the other shape than the
    problem's, one whose draws could overflow float64 and a hypothesis the
    problem cannot pair with are refused."""

    problem: TestProblem
    truth: State | TwoSampleState
    level: float
    replications: int
    seed: int
    hypothesis: Hypothesis | None = None

    def __post_init__(self) -> None:
        _level("level", self.level)
        replications = _count("replications", self.replications, 1, 1 << 64)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        _check_state(self.problem, self.truth)
        for state in _sides(self.truth):
            if not math.isfinite(abs(state.mu) + _Z_MAX * state.sigma):
                raise ValueError(f"draws of {state} overflow float64")
        if self.hypothesis is not None:
            _validate_hypothesis(self.problem, self.hypothesis)


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


# Values drawn per block, about: ``_hits`` splits a chunk into equal blocks
# near this size, so the kernel's memory stays bounded at any J.
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class _Rule:
    """How a plan decides a block of replications: the semi-distance of
    each replication's estimate from the anchor against eta."""

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

    def hits(self, x: _Rows, y: _Rows | None = None) -> int:
        d = _statistic(self.problem, self.anchor, x, y, self.coverage)
        hit = d < self.eta if self.coverage else d >= self.eta
        return int(np.count_nonzero(hit))


def _hits(plans: Sequence[ExperimentPlan], start: int, stop: int) -> list[int]:
    """Hits of each plan among replications start..stop-1: covering
    regions for a coverage plan, rejections for a size or power plan.

    The plans share their seed, so replication j has the same standard
    normals in all of them: each block is drawn once, and the rows of each
    distinct (side, state) among the plans' truths are scaled and
    estimated once per block, then decided by every plan that has them.
    """
    if len({(p.seed, p.problem.n, p.problem.m, p.replications) for p in plans}) > 1:
        raise ValueError("plans that share draws must have the same seed, n, m and replications")
    first = plans[0]
    n, m = first.problem.n, first.problem.m or 0
    rules = [_Rule.of(plan) for plan in plans]
    span = stop - start
    blocks = min(span, max(1, round(span * (n + m) / _BLOCK_VALUES)))
    # Each plan's sides as cache keys.  A key holds mu's sign as well:
    # State(-0.0, s) == State(0.0, s), but their draws can differ in the
    # sign of a zero.
    keys = [
        [(side, state, math.copysign(1.0, state.mu)) for side, state in enumerate(_sides(p.truth))]
        for p in plans
    ]
    # Only rows that several plans read are kept for the rest of the block;
    # the others are freed after their one decision.  Keeping every plan's
    # rows measured no faster than not sharing at all: the block's working
    # set outgrew the cache.
    shared = {key for key, count in Counter(chain.from_iterable(keys)).items() if count > 1}
    hits = [0] * len(plans)
    for lo, hi in _split(start, stop, blocks):
        # The block's shared rows, dropped before the next block is drawn.
        built: dict[tuple[int, State, float], _Rows] = {}
        z = _std_block(first.seed, n + m, lo, hi)

        def rows_of(key: tuple[int, State, float]) -> _Rows:
            if key in built:
                return built[key]
            side_rows = _Rows(_scale_side(z, n, *key[:2]))
            if key in shared:
                built[key] = side_rows
            return side_rows

        for k, rule in enumerate(rules):
            hits[k] += rule.hits(*map(rows_of, keys[k]))
    return hits


def _split(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    """start..stop as ``parts`` consecutive spans whose sizes differ by at
    most one, in integer arithmetic, so they tile it at any size."""
    span = stop - start
    bounds = [start + k * span // parts for k in range(parts + 1)]
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
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing.util import Finalize

        # Forked workers inherit the import instead of each paying for it.
        import scipy.special  # noqa: F401
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
    workers = _count("workers", workers)
    replications = plans[0].replications
    spans = _split(0, replications, 1 if replications < 2 * workers else workers)
    if len(spans) == 1:
        return _hits(plans, 0, replications)
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        pool = _worker_pool(workers)
        try:
            futures = [pool.submit(_hits, plans, a, b) for a, b in spans]
            return [sum(column) for column in zip(*(f.result() for f in futures))]
        except BrokenProcessPool:
            _drop_pool()
            raise


def _report(plan: ExperimentPlan, hits: int, center: float) -> ExperimentReport:
    """The report of ``hits`` under ``plan``, its band around ``center``: a
    coverage rate fails below the band, a size rate above it; a power band
    is centred on the rate itself, so a power report always passes."""
    rate = hits / plan.replications
    band = _binomial_band(center, plan.replications)
    passed = rate >= band[0] if plan.hypothesis is None else rate <= band[1]
    return ExperimentReport(hits, plan.replications, rate, band, passed, plan.seed)


def coverage_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentReport:
    """Fraction of replications whose confidence region covers the true
    quantity value; passes when the rate is no more than 4 binomial
    sigmas below the nominal gamma (conservative entries may exceed it).
    """
    if plan.hypothesis is not None:
        raise ValueError("coverage plans take no hypothesis")
    (hits,) = _hit_counts([plan], workers)
    return _report(plan, hits, plan.level)


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
    return _report(plan, hits, plan.level)


def power_curve(
    plan: ExperimentPlan,
    truth_grid: Sequence[State | TwoSampleState],
    workers: int = 1,
) -> list[ExperimentReport]:
    """Rejection rate across a grid of true states (null or not); the
    band is descriptive (4 sigmas around the observed rate, so every report
    passes).

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
    return [
        _report(point, hits, hits / point.replications)
        for point, hits in zip(points, _hit_counts(points, workers))
    ]
