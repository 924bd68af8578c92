"""Monte Carlo harness: reproducibility, parallel invariance, coverage and
size sanity at modest replication counts (the full-size runs live in
test_acceptance.py)."""

import concurrent.futures
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from semidist import framework, montecarlo as mc
from semidist.framework import (
    Hypothesis,
    confidence_region,
    estimate,
    mean_diff_z,
    mean_diff_z_upper,
    mean_t,
    mean_t_upper,
    mean_z,
    mean_z_upper,
    quantity_value,
    rejection_region,
    state_with_quantity,
    variance,
    variance_ratio,
    variance_ratio_upper,
    variance_upper,
)
from semidist.measurement import (
    STREAM_CONTRACT,
    Sample,
    State,
    TwoSampleState,
    _Rows,
    _sample_block,
    _scale_side,
    mu_bar,
    sample,
    stream,
)
from semidist.montecarlo import (
    ExperimentPlan,
    coverage_experiment,
    power_curve,
    size_experiment,
)


def _coverage_plan(reps=2000, seed=11, level=0.95):
    return ExperimentPlan(mean_t(10), State(0.0, 1.0), level, reps, seed)


class TestReports:
    def test_reproducible(self):
        a = coverage_experiment(_coverage_plan())
        b = coverage_experiment(_coverage_plan())
        assert a == b

    def test_seed_changes_the_draws(self):
        a = coverage_experiment(_coverage_plan(seed=1))
        b = coverage_experiment(_coverage_plan(seed=2))
        assert a.hits != b.hits

    def test_single_replication(self):
        report = coverage_experiment(_coverage_plan(reps=1))
        assert report.rate in (0.0, 1.0)
        assert report.hits in (0, 1)

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", None])
    def test_seed_that_is_no_non_negative_integer_is_refused(self, seed):
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _coverage_plan(seed=seed)

    def test_a_null_the_problem_cannot_pair_with_is_refused_when_built(self):
        message = "var needs a positive null value, got 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentPlan(variance(10), State(0, 1), 0.05, 10, 0, Hypothesis.point(0.0))
        message = "absolute distances pair with point hypotheses"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentPlan(mean_z(10, 1.0), State(0, 1), 0.05, 10, 0, Hypothesis.lower_half_line(0.0))

    def test_replications_beyond_the_streams_are_refused(self):
        _coverage_plan(reps=1 << 64)  # replications 0 .. 2**64 - 1 have counters
        for reps in (0, (1 << 64) + 1):
            with pytest.raises(ValueError, match=re.escape(f"1..2**64, got {reps}")):
                _coverage_plan(reps=reps)

    @pytest.mark.parametrize("reps", [100.0, 1.5, "7", None])
    def test_replications_that_are_no_integer_are_refused(self, reps):
        message = f"replications must be an integer in 1..2**64, got {reps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _coverage_plan(reps=reps)

    def test_numpy_integer_replications_are_accepted(self):
        plan = _coverage_plan(reps=np.int64(50))
        assert coverage_experiment(plan) == coverage_experiment(_coverage_plan(reps=50))

    def test_worker_partition_invariance(self):
        reports = [
            coverage_experiment(_coverage_plan(), workers=w) for w in (1, 2, 3, 5)
        ]
        assert len({r.hits for r in reports}) == 1

    def test_worker_invariance_for_size(self):
        plan = ExperimentPlan(
            variance(10), State(0.0, 1.0), 0.05, 1500, 13, Hypothesis.point(1.0)
        )
        a = size_experiment(plan, workers=1)
        b = size_experiment(plan, workers=3)
        assert a == b

    def test_rate_is_hits_over_j(self):
        report = coverage_experiment(_coverage_plan())
        assert report.rate == report.hits / report.replications

    def test_report_names_its_stream_contract(self):
        report = coverage_experiment(_coverage_plan(reps=20))
        assert report.stream_contract == STREAM_CONTRACT == 3


class TestBands:
    @pytest.mark.parametrize("p", [0.95, 0.05, 0.5])
    def test_bands_stay_inside_the_unit_interval(self, p):
        for j in (1, 2, 10, 100):
            lo, hi = mc._binomial_band(p, j)
            assert 0.0 <= lo <= p <= hi <= 1.0

    def test_single_replication_bands(self):
        half = 4.0 * math.sqrt(0.95 * (1.0 - 0.95))
        assert mc._binomial_band(0.95, 1) == (0.95 - half, 1.0)
        assert mc._binomial_band(0.05, 1) == (0.0, 0.05 + 4.0 * math.sqrt(0.05 * 0.95))

    def test_large_j_bands_are_unclamped(self):
        for p, j in ((0.95, 10_000), (0.05, 10_000), (0.5, 20_000)):
            half = 4.0 * math.sqrt(p * (1.0 - p) / j)
            assert mc._binomial_band(p, j) == (p - half, p + half)


class TestCoverage:
    def test_mean_z_coverage_in_band(self):
        plan = ExperimentPlan(mean_z(10, 1.0), State(0.0, 1.0), 0.95, 3000, 21)
        report = coverage_experiment(plan)
        assert report.passed
        assert abs(report.rate - 0.95) < 4.0 * math.sqrt(0.95 * 0.05 / 3000)

    def test_two_sample_coverage(self):
        plan = ExperimentPlan(
            mean_diff_z(10, 10, 1.0, 1.0),
            TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)),
            0.95,
            3000,
            22,
        )
        assert coverage_experiment(plan).passed

    def test_hypothesis_forbidden(self):
        plan = ExperimentPlan(
            mean_t(10), State(0.0, 1.0), 0.95, 100, 1, Hypothesis.point(0.0)
        )
        with pytest.raises(ValueError):
            coverage_experiment(plan)


class TestSize:
    def test_point_null_rate_near_alpha(self):
        plan = ExperimentPlan(
            mean_t(10), State(0.0, 1.0), 0.05, 3000, 23, Hypothesis.point(0.0)
        )
        report = size_experiment(plan)
        assert report.passed
        assert report.rate > 0.0

    def test_interior_truth_rare_rejections(self):
        plan = ExperimentPlan(
            mean_z_upper(10, 1.0),
            State(-3.0 / math.sqrt(10.0), 1.0),
            0.05,
            3000,
            24,
            Hypothesis.lower_half_line(0.0),
        )
        report = size_experiment(plan)
        assert report.rate < 0.005

    def test_truth_outside_null_is_a_caller_error(self):
        plan = ExperimentPlan(
            mean_t(10), State(1.0, 1.0), 0.05, 100, 1, Hypothesis.point(0.0)
        )
        with pytest.raises(ValueError, match="outside the null"):
            size_experiment(plan)

    def test_hypothesis_required(self):
        with pytest.raises(ValueError):
            size_experiment(_coverage_plan())


class TestDuality:
    def test_coverage_and_size_complement_on_shared_streams(self):
        # dyadic levels so 1 - (1 - level) round-trips exactly in floats
        for problem in (mean_t(10), variance(10), mean_z(10, 1.0)):
            cov_plan = ExperimentPlan(problem, State(0.0, 1.0), 0.75, 1500, 29)
            null_value = 0.0 if problem.quantity.value == "mu" else 1.0
            size_plan = ExperimentPlan(
                problem,
                State(0.0, 1.0),
                0.25,
                1500,
                29,
                Hypothesis.point(null_value),
            )
            cov = coverage_experiment(cov_plan)
            size = size_experiment(size_plan)
            assert cov.hits + size.hits == 1500


class TestPower:
    def test_monotone_and_symmetric_in_effect(self):
        problem = mean_z(10, 1.0)
        base = ExperimentPlan(
            problem, State(0.0, 1.0), 0.05, 2500, 31, Hypothesis.point(0.0)
        )
        scale = 1.0 / math.sqrt(10.0)
        effects = [-2.0 * scale, -scale, 0.0, scale, 2.0 * scale]
        reports = power_curve(base, [State(e, 1.0) for e in effects])
        rates = [r.rate for r in reports]
        assert rates[0] > rates[1] > rates[2] < rates[3] < rates[4]
        # zero effect point sits at the size
        assert abs(rates[2] - 0.05) < 4.0 * math.sqrt(0.05 * 0.95 / 2500)
        # two-sided symmetry
        assert abs(rates[1] - rates[3]) < 4.0 * math.sqrt(2 * 0.17 * 0.83 / 2500)

    def test_every_point_passes_at_rates_zero_one_and_between(self):
        # A power band is descriptive: centred on the point's own rate.
        base = ExperimentPlan(
            mean_z(10, 1.0), State(0.0, 1.0), 1e-6, 200, 3, Hypothesis.point(0.0)
        )
        reports = power_curve(base, [State(mu, 1.0) for mu in (0.0, 1.5, 100.0)])
        assert [r.rate for r in reports] == [0.0, 0.41, 1.0]
        assert [r.band[0] for r in reports] == [0.0, pytest.approx(0.27089, abs=1e-5), 1.0]
        assert all(r.passed for r in reports)

    def test_empty_grid_rejected(self):
        base = ExperimentPlan(
            mean_z(10, 1.0), State(0.0, 1.0), 0.05, 100, 1, Hypothesis.point(0.0)
        )
        with pytest.raises(ValueError):
            power_curve(base, [])


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        size_plan = ExperimentPlan(
            mean_t(10), State(0.0, 1.0), 0.05, 100, 1, Hypothesis.point(0.0)
        )
        message = f"workers must be an integer >= 1, got {workers}"
        with pytest.raises(ValueError, match=message):
            coverage_experiment(_coverage_plan(reps=100), workers=workers)
        with pytest.raises(ValueError, match=message):
            size_experiment(size_plan, workers=workers)
        with pytest.raises(ValueError, match=message):
            power_curve(size_plan, [State(0.0, 1.0)], workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, "2"])
    def test_workers_that_are_no_integer_are_refused(self, workers):
        size_plan = ExperimentPlan(
            mean_t(10), State(0.0, 1.0), 0.05, 100, 1, Hypothesis.point(0.0)
        )
        message = f"workers must be an integer >= 1, got {workers!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            coverage_experiment(_coverage_plan(reps=100), workers=workers)
        with pytest.raises(ValueError, match=re.escape(message)):
            size_experiment(size_plan, workers=workers)
        with pytest.raises(ValueError, match=re.escape(message)):
            power_curve(size_plan, [State(0.0, 1.0)], workers=workers)

    @pytest.mark.parametrize("replications,parts", [
        (j, parts)
        for j in (1, 2, 7, 2**53 + 1, 2**60 + 3, 2**64 - 1, 2**64)
        for parts in (1, 2, 3, 7)
        if parts <= j
    ])
    @pytest.mark.parametrize("start", [0, 5])
    def test_split_tiles_the_span_in_near_equal_parts(self, replications, parts, start):
        # Float bounds round(k J / parts) stop tiling 0..J above 2**53.
        spans = mc._split(start, start + replications, parts)
        assert len(spans) == parts
        assert spans[0][0] == start and spans[-1][1] == start + replications
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        sizes = {hi - lo for lo, hi in spans}
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_power_curve_opens_one_pool(self, monkeypatch, no_pool):
        opened = []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        # The pool's modules load with the first pool, so the class is
        # looked up where the pool opens.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        base, grid = _small_curve()
        one = _curve_hits(base, grid, 1)
        assert _curve_hits(base, grid, 2) == one
        assert _curve_hits(base, grid, 2) == one
        assert len(opened) == 1


@pytest.fixture()
def no_pool():
    """No worker pool before or after the test."""
    mc._drop_pool()
    yield
    mc._drop_pool()


def _small_curve():
    base = ExperimentPlan(
        mean_z(10, 1.0), State(0.0, 1.0), 0.05, 400, 31, Hypothesis.point(0.0)
    )
    return base, [State(0.1 * k, 1.0) for k in range(4)]


def _curve_hits(base, grid, workers):
    return [r.hits for r in power_curve(base, grid, workers=workers)]


def _child_curve(conn, base, grid):
    inherited = mc._pool[0]
    hits = _curve_hits(base, grid, 2)
    own = mc._pool[0]
    children = {p.pid for p in multiprocessing.active_children()}
    conn.send((hits, own is not inherited, set(own._processes), children))


class TestPoolLifecycle:
    """One pool per process, reused across calls; it follows the worker
    count, survives a failing task, is replaced after a worker dies and
    is never shared with a forked child."""

    def test_changing_the_worker_count_keeps_one_pool(self, no_pool):
        base, grid = _small_curve()
        one = _curve_hits(base, grid, 1)
        for workers in (2, 3, 2):
            assert _curve_hits(base, grid, workers) == one
        workers = {p.pid for p in multiprocessing.active_children()}
        assert workers == set(mc._pool[0]._processes) and len(workers) == 2

    def test_a_dead_worker_fails_one_call_only(self, no_pool):
        base, grid = _small_curve()
        one = _curve_hits(base, grid, 1)
        assert _curve_hits(base, grid, 2) == one
        pool = mc._pool[0]
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            _curve_hits(base, grid, 2)
        assert mc._pool is None
        assert _curve_hits(base, grid, 2) == one
        assert mc._pool[0] is not pool

    def test_a_failing_task_leaves_the_pool_usable(self, no_pool):
        base, grid = _small_curve()
        one = _curve_hits(base, grid, 1)
        assert _curve_hits(base, grid, 2) == one
        pool = mc._pool[0]
        # At sigma = 1e-300 every sum of squared deviations underflows to
        # 0, and the scalar path refuses the sample for it.
        degenerate = replace(base, problem=mean_t(10))
        constant = [State(0.0, 1e-300)]
        with pytest.raises(ValueError) as serial:
            _curve_hits(degenerate, constant, 1)
        with pytest.raises(ValueError, match=re.escape(str(serial.value))):
            _curve_hits(degenerate, constant, 2)
        assert _curve_hits(base, grid, 2) == one
        assert mc._pool[0] is pool

    def test_threads_switching_worker_counts_share_the_pool(self, no_pool):
        base, grid = _small_curve()
        one = _curve_hits(base, grid, 1)
        results, errors = [], []

        def run(workers):
            try:
                for _ in range(4):
                    results.append(_curve_hits(base, grid, workers))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(2 + k % 2,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and results == [one] * 16
        workers = {p.pid for p in multiprocessing.active_children()}
        assert workers == set(mc._pool[0]._processes)

    def test_a_forked_child_opens_its_own_pool(self, no_pool):
        base, grid = _small_curve()
        parent_hits = _curve_hits(base, grid, 2)
        pool = mc._pool[0]
        parent_workers = set(pool._processes)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_child_curve, args=(writer, base, grid))
        child.start()
        writer.close()
        with reader:
            try:
                assert reader.poll(60)
                hits, fresh, child_workers, grandchildren = reader.recv()
                child.join(60)
            finally:
                if child.is_alive():
                    child.kill()
                    child.join(10)
        assert child.exitcode == 0
        assert hits == parent_hits and fresh
        assert child_workers == grandchildren and len(child_workers) == 2
        assert not child_workers & parent_workers
        assert mc._pool[0] is pool and set(pool._processes) == parent_workers
        assert _curve_hits(base, grid, 2) == parent_hits

    def test_an_interpreter_with_a_live_pool_exits(self):
        code = (
            "from semidist import montecarlo as mc\n"
            "from semidist.framework import Hypothesis, mean_z\n"
            "from semidist.measurement import State\n"
            "plan = mc.ExperimentPlan(mean_z(10, 1.0), State(0.0, 1.0), 0.05, 400, 31,\n"
            "                         Hypothesis.point(0.0))\n"
            "print([r.hits for r in mc.power_curve(plan, [State(0.0, 1.0)], workers=2)])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": ":".join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        base, _ = _small_curve()
        assert done.stdout.strip() == str(_curve_hits(base, [State(0.0, 1.0)], 1))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_of_a_killed_interpreter_end(self):
        code = (
            "import os, signal\n"
            "from semidist import montecarlo as mc\n"
            "from semidist.framework import Hypothesis, mean_z\n"
            "from semidist.measurement import State\n"
            "plan = mc.ExperimentPlan(mean_z(10, 1.0), State(0.0, 1.0), 0.05, 400, 31,\n"
            "                         Hypothesis.point(0.0))\n"
            "mc.power_curve(plan, [State(0.0, 1.0)], workers=2)\n"
            "print(*mc._pool[0]._processes, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # The workers hold the output pipe, so this returns once they close
        # it, which they do while exiting: a worker can still read as
        # running for a moment after.
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": ":".join(sys.path)},
        )
        assert done.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in done.stdout.split()]
        assert len(workers) == 2 and all(_ends(pid, deadline=5.0) for pid in workers)


def _ends(pid, deadline):
    """Whether process ``pid`` has ended (gone, or a zombie) within
    ``deadline`` seconds, polling its state."""
    end = time.monotonic() + deadline
    while True:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                if "\nState:\tZ" in status.read():
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > end:
            return False
        time.sleep(0.02)


# Every catalog entry, with the null on the truth's quantity value.
_ENTRIES = [
    (mean_z(10, 1.5), False),
    (mean_z_upper(10, 1.5), False),
    (variance(10), False),
    (variance_upper(10), False),
    (mean_diff_z(10, 7, 1.5, 0.5), True),
    (mean_diff_z_upper(10, 7, 1.5, 0.5), True),
    (variance_ratio(10, 7), True),
    (variance_ratio_upper(10, 7), True),
    (mean_t(10), False),
    (mean_t_upper(10), False),
]


def _truth(two_sample):
    one = State(0.25, 1.5)
    return TwoSampleState(one, State(0.0, 0.5)) if two_sample else one


def _hypothesis(problem, truth):
    value = quantity_value(problem, truth)
    if problem.distance_kind.half_line:
        return Hypothesis.lower_half_line(value)
    return Hypothesis.point(value)


def _ids(entries):
    return [
        f"{p.quantity.value}-{p.distance_kind.value}" for p, _ in entries
    ]


class TestBatchedDecisions:
    """The block kernel's hits equal the scalar ``ConfidenceRegion.contains``
    / ``Region.contains`` counts on the same stream draws."""

    @pytest.mark.parametrize("level", [0.95, 0.75])
    @pytest.mark.parametrize("problem,two", _ENTRIES, ids=_ids(_ENTRIES))
    def test_coverage_matches_scalar(self, problem, two, level):
        truth, reps, seed = _truth(two), 400, 43
        target = quantity_value(problem, truth)
        scalar = sum(
            confidence_region(
                problem, sample(truth, problem.n, problem.m, rng=stream(seed, j)), level
            ).contains(target)
            for j in range(reps)
        )
        plan = ExperimentPlan(problem, truth, level, reps, seed)
        assert coverage_experiment(plan).hits == scalar

    @pytest.mark.parametrize("level", [0.05, 0.25])
    @pytest.mark.parametrize("problem,two", _ENTRIES, ids=_ids(_ENTRIES))
    def test_size_matches_scalar(self, problem, two, level):
        truth, reps, seed = _truth(two), 400, 47
        hypothesis = _hypothesis(problem, truth)
        region = rejection_region(problem, hypothesis, level)
        scalar = sum(
            region.contains(sample(truth, problem.n, problem.m, rng=stream(seed, j)))
            for j in range(reps)
        )
        plan = ExperimentPlan(problem, truth, level, reps, seed, hypothesis)
        assert size_experiment(plan).hits == scalar

    def test_hits_do_not_depend_on_the_block_size(self, monkeypatch):
        plan = ExperimentPlan(
            variance_ratio(10, 7), _truth(True), 0.95, 500, 5
        )
        whole = coverage_experiment(plan)
        monkeypatch.setattr(mc, "_BLOCK_VALUES", 37)
        assert coverage_experiment(plan) == whole

    @pytest.mark.parametrize("block_values", [1 << 16, 1000, 15])
    @pytest.mark.parametrize("reps", [1, 2, 301, 4000])
    def test_blocks_are_equal_and_none_is_empty(self, monkeypatch, reps, block_values):
        # 15 values a block is fewer than the n + m = 17 of one row.
        plan = ExperimentPlan(variance_ratio(10, 7), _truth(True), 0.95, reps, 5)
        whole = mc._hits([plan], 7, 7 + reps)
        blocks, draw = [], mc._std_block

        def spy(seed, count, start, stop):
            blocks.append((start, stop))
            return draw(seed, count, start, stop)

        monkeypatch.setattr(mc, "_BLOCK_VALUES", block_values)
        monkeypatch.setattr(mc, "_std_block", spy)
        assert mc._hits([plan], 7, 7 + reps) == whole
        sizes = [stop - start for start, stop in blocks]
        assert [start for start, _ in blocks] == [7] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == 7 + reps
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert max(sizes) * 17 <= 1.5 * block_values + 17

    def test_hits_is_a_python_int(self):
        assert type(coverage_experiment(_coverage_plan(reps=50)).hits) is int


def _with_rows(monkeypatch, rows):
    """Make the block kernel see ``rows`` (replication index -> first
    block's values, second block's or None) in place of those
    replications' draws; returns the same edit for a (xs, ys) block of
    draws, one column per replication."""

    def edit_side(side, values):
        for i, row in rows.items():
            if row[side] is not None:
                values[:, i] = row[side]
        return values

    def edit(xs, ys):
        return edit_side(0, xs), None if ys is None else edit_side(1, ys)

    scale = mc._scale_side
    monkeypatch.setattr(
        mc, "_scale_side", lambda z, n, side, state: edit_side(side, scale(z, n, side, state))
    )
    return edit


def _samples(xs, ys):
    """The columns of a block of draws as ``Sample``s."""
    return [
        Sample(tuple(x.tolist()), None if ys is None else tuple(y.tolist()))
        for x, y in zip(xs.T, xs.T if ys is None else ys.T)
    ]


def _scalar_decision(plan):
    """The framework's one-row decision of each replication of a plan."""
    problem = plan.problem
    if plan.hypothesis is None:
        target = quantity_value(problem, plan.truth)
        return lambda x: confidence_region(problem, x, plan.level).contains(target)
    return rejection_region(problem, plan.hypothesis, plan.level).contains


def _ulps(value, k):
    for _ in range(abs(k)):
        value = float(np.nextafter(value, math.copysign(math.inf, k)))
    return value


def _decides_at_eta_as_the_scalar_path(monkeypatch, plan, rows, anchor):
    """With eta at the statistic of row 0 and 2 ulps either side, ``_hits``
    equals the scalar decision loop over the same rows, and row 0 is
    decided one way at eta and 2 ulps below it and the other way 2 ulps
    above it."""
    problem = plan.problem
    kind = problem.distance_kind
    at = rejection_region(
        problem,
        Hypothesis.lower_half_line(anchor) if kind.half_line else Hypothesis.point(anchor),
        plan.level,
    ).statistic(rows[0])
    first = []
    for eta in (_ulps(at, -2), at, _ulps(at, 2)):
        monkeypatch.setattr(framework, "_radius", lambda *args, eta=eta: eta)
        decide = _scalar_decision(plan)
        assert mc._hits([plan], 0, len(rows)) == [sum(map(decide, rows))]
        first.append(decide(rows[0]))
    assert first[0] == first[1] != first[2]


class TestBoundaryRows:
    """The block decision is the scalar one on each row, also for rows that
    sit on eta or a few ulps from it, for constant rows and for rows that
    make the scalar path raise."""

    @pytest.mark.parametrize("coverage", [False, True], ids=["size", "coverage"])
    @pytest.mark.parametrize("problem,two", _ENTRIES, ids=_ids(_ENTRIES))
    def test_rows_at_and_near_eta(self, monkeypatch, problem, two, coverage):
        truth, reps, seed = _truth(two), 60, 3
        hypothesis = None if coverage else _hypothesis(problem, truth)
        plan = ExperimentPlan(problem, truth, 0.05, reps, seed, hypothesis)
        xs, ys = _sample_block(truth, problem.n, problem.m, seed, 0, reps)
        rows = _samples(xs, ys)
        anchor = quantity_value(problem, truth)
        _decides_at_eta_as_the_scalar_path(monkeypatch, plan, rows, anchor)

    @pytest.mark.parametrize(
        "problem", [mean_z(4, 1.0), mean_z_upper(4, 1.0), mean_diff_z(4, 3, 1.0, 1.0),
                    mean_diff_z_upper(4, 3, 1.0, 1.0)],
        ids=["mean-z", "mean-z-upper", "diff-means", "diff-means-upper"],
    )
    def test_constant_rows_at_and_near_eta(self, monkeypatch, problem):
        # Constant rows c put the statistic at about |c|, so constant rows
        # at the statistic of row 0 and a few ulps either side, plus two
        # far from it, meet every case of the comparison with eta.
        truth = _truth(problem.two_sample)
        hypothesis = _hypothesis(problem, truth)
        plan = ExperimentPlan(problem, truth, 0.05, 9, 1, hypothesis)
        anchor = hypothesis.value
        c = anchor + 1.25
        values = [_ulps(c, k) for k in range(-3, 4)] + [anchor + 0.6, anchor + 2.5]
        second = None if problem.m is None else (0.0,) * problem.m
        rows = {i: ((v,) * problem.n, second) for i, v in enumerate(values)}
        edit = _with_rows(monkeypatch, rows)
        xs, ys = edit(*_sample_block(truth, problem.n, problem.m, 1, 0, 9))
        samples = _samples(xs, ys)
        # Every draw was replaced by a constant row.
        assert [set(x.values) for x in samples] == [{v} for v in values]
        _decides_at_eta_as_the_scalar_path(monkeypatch, plan, samples, anchor)

    @pytest.mark.parametrize(
        "problem,coverage",
        [
            (mean_t(10), True),
            (mean_t(10), False),
            (mean_t_upper(10), False),
            (variance(10), True),
            (variance_upper(10), True),
            (variance_ratio(10, 10), True),
            (variance_ratio_upper(10, 10), False),
        ],
    )
    def test_degenerate_rows_raise_as_the_scalar_path_does(
        self, monkeypatch, problem, coverage
    ):
        two = problem.two_sample
        truth = _truth(two)
        hypothesis = None if coverage else _hypothesis(problem, truth)
        # gamma 0.9 for coverage; alpha 0.1 for size, below every alpha*.
        plan = ExperimentPlan(problem, truth, 0.9 if coverage else 0.1, 5, 9, hypothesis)
        # The pairwise mean of ten copies of 0.007 is not 0.007, so the
        # constant row's deviations are not 0.
        edit = _with_rows(monkeypatch, {3: (0.007, -7.0)})
        rows = _samples(*edit(*_sample_block(truth, problem.n, problem.m, 9, 0, 5)))
        assert rows[3].values == (0.007,) * problem.n
        assert mu_bar(rows[3].values) != 0.007
        decide = _scalar_decision(plan)
        for x in rows[:3]:
            decide(x)  # the rows before it decide without raising
        with pytest.raises(ValueError, match="^degenerate sample: ") as scalar_error:
            decide(rows[3])
        run = coverage_experiment if coverage else size_experiment
        with pytest.raises(ValueError, match=re.escape(str(scalar_error.value))):
            run(plan)

    def test_a_constant_row_on_var_is_rejected_without_raising(self, monkeypatch):
        # A constant row gives the variance estimate 0: infinitely far in
        # log scale, so the size path rejects it.
        plan = ExperimentPlan(
            variance(10), State(0.0, 1.0), 0.05, 5, 9, Hypothesis.point(1.0)
        )
        edit = _with_rows(monkeypatch, {2: (0.1, None)})
        rows = _samples(*edit(*_sample_block(State(0.0, 1.0), 10, None, 9, 0, 5)))
        region = rejection_region(plan.problem, plan.hypothesis, plan.level)
        assert region.statistic(rows[2]) == math.inf
        assert size_experiment(plan).hits == sum(map(region.contains, rows))


@pytest.fixture(scope="module")
def pinned_normals():
    """Standard normals of 10^5 replications of n = 10 plus m = 7 values."""
    return mc._std_block(61, 17, 0, 100_000)


class TestPositionIndependence:
    """A replication's estimate and statistic do not depend on the
    replications around it: ``measurement._pairwise_sum`` adds each column
    on its own in a stated order, and numpy's elementwise ufuncs (``log``
    and ``sqrt`` among them) give a value the same result in any layout and
    alone, which is what makes the block decision the one-row decision.
    The second is a property of the numpy build, not a documented
    guarantee, so a build that breaks it fails here."""

    @pytest.mark.parametrize("problem,two", _ENTRIES, ids=_ids(_ENTRIES))
    def test_rows_in_any_layout_and_alone(self, pinned_normals, problem, two):
        truth = _truth(two)
        z = pinned_normals if two else pinned_normals[: problem.n]
        xs = _scale_side(z, problem.n, 0, truth.first if two else truth)
        ys = _scale_side(z, problem.n, 1, truth.second) if two else None
        anchor = quantity_value(problem, truth)

        def rows(sl):
            return _Rows(xs[:, sl].copy()), None if ys is None else _Rows(ys[:, sl].copy())

        def batched(sl):
            x, y = rows(sl)
            e = framework._estimates(problem, x, y)
            return e, framework._statistic(problem, anchor, x, y)

        e, d = batched(slice(None))
        assert np.isfinite(d).all()
        e_rev, d_rev = batched(slice(None, None, -1))
        assert np.array_equal(e_rev[::-1], e) and np.array_equal(d_rev[::-1], d)
        blocks = [batched(slice(k, k + 997)) for k in range(0, xs.shape[1], 997)]
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), e)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), d)
        region = rejection_region(problem, _hypothesis(problem, truth), 0.05)
        for i, x in enumerate(_samples(xs[:, ::50], None if ys is None else ys[:, ::50])):
            assert estimate(problem, x) == e[50 * i]
            assert region.statistic(x) == d[50 * i]


def _quantity_grid(problem, base, thetas):
    """The states of a power curve over the quantity value, as
    ``state_with_quantity`` moves them: the second state stays fixed."""
    return [state_with_quantity(problem, base, theta) for theta in thetas]


# Power grids that move each kind of parameter: mu, sigma, and in the
# two-sample case sigma_1, sigma_2 and mu_2; grids whose points share
# their second state; and a grid that repeats states (0.0 and -0.0 are
# equal states).
_GRIDS = {
    "mean-z-mu": (
        mean_z(10, 1.5),
        Hypothesis.point(0.0),
        [State(mu, 1.5) for mu in (-0.9, -0.3, 0.0, 0.45, 1.2)],
    ),
    "variance-sigma": (
        variance(10),
        Hypothesis.point(1.0),
        [State(0.2, sigma) for sigma in (0.6, 1.0, 1.4, 2.0)],
    ),
    "var-ratio-both": (
        variance_ratio(10, 7),
        Hypothesis.point(1.0),
        [
            TwoSampleState(State(0.0, s1), State(mu2, s2))
            for s1, mu2, s2 in ((1.0, 0.0, 1.0), (1.5, -2.0, 1.0), (0.7, 3.0, 2.5), (2.0, 0.5, 0.8))
        ],
    ),
    "var-ratio-upper-quantity": (
        variance_ratio_upper(50, 50),
        Hypothesis.lower_half_line(1.0),
        _quantity_grid(
            variance_ratio_upper(50, 50),
            TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)),
            [1.0 + 0.8 * i / 7 for i in range(8)],
        ),
    ),
    "diff-means-quantity": (
        mean_diff_z(10, 7, 1.5, 0.5),
        Hypothesis.point(0.0),
        _quantity_grid(
            mean_diff_z(10, 7, 1.5, 0.5),
            TwoSampleState(State(0.0, 1.5), State(0.3, 0.5)),
            (-1.0, -0.4, 0.0, 0.5, 1.1),
        ),
    ),
    "repeated-states": (
        mean_t(10),
        Hypothesis.point(0.0),
        [State(0.3, 1.0), State(0.0, 2.0), State(0.3, 1.0), State(-0.0, 2.0)],
    ),
}


class TestSharedDraws:
    """A power curve draws each block once and builds the rows of each
    distinct (side, state) once per block; its hits equal a scalar loop
    over each point's own draws."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    def test_curve_matches_scalar_loop(self, grid, workers):
        problem, hypothesis, truths = _GRIDS[grid]
        reps, seed, level = 301, 53, 0.25
        region = rejection_region(problem, hypothesis, level)
        scalar = [
            sum(
                region.contains(sample(truth, problem.n, problem.m, rng=stream(seed, j)))
                for j in range(reps)
            )
            for truth in truths
        ]
        base = ExperimentPlan(problem, truths[0], level, reps, seed, hypothesis)
        reports = power_curve(base, truths, workers=workers)
        assert [r.hits for r in reports] == scalar

    def test_each_block_is_drawn_once_per_curve(self, monkeypatch):
        blocks, draw = [], mc._std_block

        def spy(seed, count, start, stop):
            blocks.append((start, stop))
            return draw(seed, count, start, stop)

        base = ExperimentPlan(
            mean_z(10, 1.0), State(0.0, 1.0), 0.05, 301, 31, Hypothesis.point(0.0)
        )
        grid = [State(0.1 * k, 1.0) for k in range(8)]
        whole = [r.hits for r in power_curve(base, grid)]
        monkeypatch.setattr(mc, "_BLOCK_VALUES", 1000)
        monkeypatch.setattr(mc, "_std_block", spy)
        assert [r.hits for r in power_curve(base, grid)] == whole
        # 301 rows of 10 values at 1000 values a block: three equal blocks.
        assert blocks == [(0, 100), (100, 200), (200, 301)]

    def test_each_distinct_side_is_scaled_and_estimated_once_per_block(self, monkeypatch):
        problem = variance_ratio_upper(10, 10)
        second = State(0.5, 2.0)
        grid = _quantity_grid(problem, TwoSampleState(State(0.0, 1.0), second), (1.0, 1.5, 2.0, 1.5))
        grid.append(TwoSampleState(State(-0.0, 2.0), second))
        base = ExperimentPlan(problem, grid[0], 0.05, 301, 37, Hypothesis.lower_half_line(1.0))
        whole = [r.hits for r in power_curve(base, grid)]
        blocks, scaled, estimated = [], [], []
        draw, scale = mc._std_block, mc._scale_side

        class Counting(_Rows):
            def __init__(self, values):
                estimated.append(len(blocks))
                super().__init__(values)

        def spy_draw(*args):
            blocks.append(args)
            return draw(*args)

        def spy_scale(z, n, side, state):
            scaled.append((len(blocks), side, state.mu, math.copysign(1.0, state.mu), state.sigma))
            return scale(z, n, side, state)

        monkeypatch.setattr(mc, "_BLOCK_VALUES", 2000)
        monkeypatch.setattr(mc, "_std_block", spy_draw)
        monkeypatch.setattr(mc, "_scale_side", spy_scale)
        monkeypatch.setattr(mc, "_Rows", Counting)
        assert [r.hits for r in power_curve(base, grid)] == whole
        # Per block: the three first states of the grid, the -0.0 one
        # apart from its 0.0 twin, and the shared second state once.
        sides = [
            (0, 0.0, 1.0, 2.0), (1, 0.5, 1.0, 2.0), (0, 0.0, 1.0, 3.0),
            (0, 0.0, 1.0, 4.0), (0, -0.0, -1.0, 2.0),
        ]
        assert len(blocks) == 3
        assert scaled == [(b,) + side for b in range(1, 4) for side in sides]
        assert estimated == [b for b in range(1, 4) for _ in sides]

    def test_plans_with_different_seeds_are_refused(self):
        plan = ExperimentPlan(
            mean_z(10, 1.0), State(0.0, 1.0), 0.05, 100, 1, Hypothesis.point(0.0)
        )
        with pytest.raises(ValueError, match="same seed"):
            mc._hits([plan, replace(plan, seed=2)], 0, 100)


class TestGoldenHits:
    """Hit counts pinned under stream contract 3: any change to the draws
    or to the decisions of the catalog's plans fails here.  A new stream
    contract changes them once, on purpose.  Each count also equals the
    per-replication loop ``stream`` -> ``sample`` -> ``contains``."""

    _PROBLEMS = [
        mean_z(10, 1.0), mean_z_upper(10, 1.0), variance(10), variance_upper(10),
        mean_diff_z(10, 10, 1.0, 1.0), mean_diff_z_upper(10, 10, 1.0, 1.0),
        variance_ratio(10, 10), variance_ratio_upper(10, 10), mean_t(10), mean_t_upper(10),
    ]
    _COVERAGE = [1897, 1888, 1902, 1891, 1897, 1894, 1881, 1900, 1889, 1899]
    _SIZE = [105, 89, 111, 94, 91, 101, 99, 90, 127, 93]
    _CURVE = [206, 735, 1618, 2633, 3371, 3737, 3902, 3971]

    def test_catalog_coverage_and_size(self):
        one = State(0.0, 1.0)
        coverage, size = [], []
        for k, problem in enumerate(self._PROBLEMS):
            truth = TwoSampleState(one, one) if problem.two_sample else one
            hypothesis = _hypothesis(problem, truth)
            plan = ExperimentPlan(problem, truth, 0.95, 2000, 1101 + 2 * k)
            coverage.append(coverage_experiment(plan).hits)
            plan = ExperimentPlan(problem, truth, 0.05, 2000, 1102 + 2 * k, hypothesis)
            size.append(size_experiment(plan).hits)
        assert coverage == self._COVERAGE
        assert size == self._SIZE

    def test_var_ratio_upper_curve(self):
        one = State(0.0, 1.0)
        grid = [TwoSampleState(State(0.0, 1.0 + 0.8 * i / 7), one) for i in range(8)]
        base = ExperimentPlan(
            variance_ratio_upper(50, 50), grid[0], 0.05, 4000, 1201, Hypothesis.lower_half_line(1.0)
        )
        assert [r.hits for r in power_curve(base, grid)] == self._CURVE


@pytest.mark.parametrize("problem", [mean_t(10), variance(10)], ids=["mean-t", "var"])
def test_overflowing_draws_are_a_named_error(problem):
    # Draws of mu + z sigma, |z| <= 8.2095, that cannot all be finite are
    # refused when the plan is built, naming the state.
    for bad in (State(0.0, 1e308), State(-1.7e308, 1e307)):
        with pytest.raises(ValueError, match=re.escape(f"draws of {bad} overflow float64")):
            ExperimentPlan(problem, bad, 0.05, 100, 1, _hypothesis(problem, State(0.0, 1.0)))
    base = ExperimentPlan(problem, State(0.0, 1.0), 0.05, 100, 1, _hypothesis(problem, State(0.0, 1.0)))
    with pytest.raises(ValueError, match="overflow float64"):
        power_curve(base, [State(0.0, 1.0), State(0.0, 1e308)])
    # Finite draws whose sum overflows still raise the sum's own error.
    truth = State(1e308, 1.0)
    plan = ExperimentPlan(problem, truth, 0.05, 100, 1, _hypothesis(problem, truth))
    message = "^sum of the sample values overflows float64$"
    with pytest.raises(ValueError, match=message):
        size_experiment(plan)
    with pytest.raises(ValueError, match=message):
        coverage_experiment(replace(plan, level=0.95, hypothesis=None))
