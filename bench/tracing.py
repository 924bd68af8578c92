"""Traced run: spans around calls into each layer's public functions.

The benchmark cannot see inside ``montecarlo`` or ``cli.main``.  For a
sample of each workload's operations it therefore replays the calls the
layer above makes, in the same order, through the public functions:

* Monte Carlo: ``stream`` -> ``sample`` -> ``confidence_region`` /
  ``rejection_region`` -> ``.contains``;
* CLI: ``read_columns`` -> ``Sample`` -> catalog constructor ->
  ``run_test`` / ``confidence_region``.

Each call gets a span (name, start, end, parent, operation id).  The
replayed operations also run through the program untraced and through
the same replay without spans; all three must reach the same decisions.
Fixed probes time the calls no workload makes on
its own at the sizes the per-layer table names (estimators at n = 10^4,
cold radius solves, quantiles at 10^6 degrees of freedom).

Every per-layer metric is measured on every workload; the workload picks
which operation the tracing-overhead pair compares.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import replace

from semidist import cli, distributions as dist, framework as fw, montecarlo as mc
from semidist.measurement import Sample, mu_bar, sample, ss_bar, stream

import workloads as wl

DIST_DOFS = (1, 10, 1000, 10**6)
REL_ERR_ALPHAS = (1e-8, 1e-10, 1e-12)


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id, calls).

    ``calls`` > 1 marks a probe span around a batch of identical calls.
    Durations are reported net of ``floor``, the median span length of a
    call that does nothing, measured when the tracer is made.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._by_name = defaultdict(list)
        self._children = defaultdict(list)
        self._open: list[int] = []
        self.floor = 0.0
        for _ in range(2001):
            self.call("tracer.floor", None, int)
        self.floor = statistics.median(self.per_call("tracer.floor"))

    def call(self, name, op, fn, *args, calls=1, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, op, calls)
            self.counts[name] += calls
            self._by_name[name].append(index)
            if parent is not None:
                self._children[parent].append(index)

    def seconds(self, index: int) -> float:
        _, start, end, *_ = self.spans[index]
        return end - start - self.floor

    def per_call(self, name, where=lambda op: True) -> list[float]:
        """Seconds per call of every span ``name`` whose op passes ``where``."""
        return [self.seconds(i) / self.spans[i][5] for i in self._by_name[name] if where(self.spans[i][4])]

    def last(self, name: str) -> int:
        return self._by_name[name][-1]

    def children_seconds(self, index: int) -> float:
        return sum(self.seconds(c) for c in self._children[index])

    def self_us_per_call(self) -> dict[str, float]:
        """Mean self time of each span name: duration minus the time its
        children cover, per call."""
        out = {}
        for name, indices in self._by_name.items():
            own = sum(self.seconds(i) - self.children_seconds(i) for i in indices)
            out[name] = own / self.counts[name] * 1e6
        return out

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "calls"],
                    "floor_s": self.floor,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


class NullTracer:
    """Runs a replay with no spans: the untraced side of the overhead pair."""

    @staticmethod
    def call(name, op, fn, *args, calls=1, **kwargs):
        return fn(*args, **kwargs)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _median_us(values) -> float:
    return statistics.median(values) * 1e6


def _probe(tr, name, fn, calls, repeats, op="probe"):
    """Time ``repeats`` batches of ``calls`` calls of ``fn``; µs per call."""

    def batch():
        for _ in range(calls):
            fn()

    for _ in range(repeats):
        tr.call(name, op, batch, calls=calls)
    return _median_us(tr.per_call(name, lambda o: o == op))


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b))


def _finite(x):
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# Monte Carlo replay
# ---------------------------------------------------------------------------


def replay_coverage(tr, op, plan) -> int:
    problem, truth = plan.problem, plan.truth
    target = fw.quantity_value(problem, truth)
    hits = 0
    for j in range(plan.replications):
        rng = tr.call("measurement.stream", op, stream, plan.seed, j)
        x = tr.call("measurement.sample", op, sample, truth, problem.n, problem.m, rng=rng)
        region = tr.call("framework.confidence_region", op, fw.confidence_region, problem, x, plan.level)
        hits += tr.call("framework.ci_contains", op, region.contains, target)
    return hits


def replay_rejection(tr, op, plan) -> int:
    problem, truth = plan.problem, plan.truth
    region = tr.call("framework.rejection_region", op, fw.rejection_region, problem, plan.hypothesis, plan.level)
    hits = 0
    for j in range(plan.replications):
        rng = tr.call("measurement.stream", op, stream, plan.seed, j)
        x = tr.call("measurement.sample", op, sample, truth, problem.n, problem.m, rng=rng)
        hits += tr.call("framework.region_contains", op, region.contains, x)
    return hits


def trace_mc(tr, plans, failures):
    """Run each mc_sweep experiment untraced, replayed without spans and
    replayed with spans; returns metrics, the overhead pair and the op count."""
    runners = {"coverage": (mc.coverage_experiment, replay_coverage), "size": (mc.size_experiment, replay_rejection)}
    program, bare, reps = defaultdict(float), defaultdict(float), defaultdict(int)
    traced = 0.0
    for kind, entry, plan in plans:
        run, replay = runners[kind]
        op = f"{kind}:{entry}"
        report, elapsed = _timed(run, plan, workers=1)
        plain_hits, plain = _timed(replay, NullTracer, op, plan)
        hits = tr.call("montecarlo.replay", op, replay, tr, op, plan)
        program[kind] += elapsed
        bare[kind] += plain
        reps[kind] += plan.replications
        traced += tr.seconds(tr.last("montecarlo.replay"))
        if not hits == plain_hits == report.hits:
            failures.append(f"replays of {op} give {hits} and {plain_hits} hits, untraced {report.hits}")
    # Self time is taken against the replay without spans: the calls it
    # makes are the children, and spans would slow them (about 1 µs each
    # on a 2-core Intel Xeon host, more than the layer's own cost).
    metrics = {
        f"montecarlo.self_us_per_rep.{kind}": ((program[kind] - bare[kind]) / reps[kind] * 1e6, "us")
        for kind in ("coverage", "size")
    }
    metrics["measurement.stream_us"] = (_median_us(tr.per_call("measurement.stream")), "us")
    mc_op = lambda op: op.startswith(("coverage:", "size:"))  # noqa: E731
    metrics["measurement.sample_us.n10"] = (_median_us(tr.per_call("measurement.sample", mc_op)), "us")
    for entry in wl.ENTRIES:
        cov = lambda op, e=entry: op == f"coverage:{e}"  # noqa: E731
        size = lambda op, e=entry: op == f"size:{e}"  # noqa: E731
        metrics[f"framework.confidence_region_us.{entry}"] = (
            _median_us(tr.per_call("framework.confidence_region", cov)),
            "us",
        )
        metrics[f"framework.ci_contains_us.{entry}"] = (_median_us(tr.per_call("framework.ci_contains", cov)), "us")
        metrics[f"framework.region_contains_us.{entry}"] = (
            _median_us(tr.per_call("framework.region_contains", size)),
            "us",
        )
    total = sum(reps.values())
    return metrics, (sum(bare.values()) / total * 1e6, traced / total * 1e6), len(plans)


# ---------------------------------------------------------------------------
# CLI replay
# ---------------------------------------------------------------------------


def replay_cli(tr, op, call: wl.Call) -> dict:
    col1, col2 = tr.call("cli.read_columns", op, cli.read_columns, call.data.path)
    x = tr.call("measurement.Sample", op, Sample, tuple(col1), tuple(col2) if col2 else None)
    problem = tr.call("framework.problem", op, wl.make_problem, call.entry, x.n, x.m, call.data.sd1, call.data.sd2)
    if call.command == "test":
        hypothesis = wl.make_hypothesis(call.entry, wl.null_value(call.entry))
        result = tr.call("framework.run_test", op, fw.run_test, problem, hypothesis, call.alpha, x)
        return {"reject": result.reject, "statistic": _finite(result.statistic), "eta": _finite(result.eta)}
    region = tr.call("framework.confidence_region", op, fw.confidence_region, problem, x, call.gamma)
    return {"lo": _finite(region.lo), "hi": _finite(region.hi), "estimator": _finite(region.estimate)}


def _cli_sample(calls, seed):
    """One test and one ci call per (entry, row count), at a seeded alpha."""
    groups = defaultdict(list)
    for call in calls:
        groups[call.entry, call.n, call.command].append(call)
    rng = wl.rng_for(seed, 4)
    return [group[int(rng.integers(len(group)))] for _, group in sorted(groups.items())]


def _agrees(payload: dict, got: dict) -> bool:
    return all(
        payload.get(key) == value if isinstance(value, bool) else _same(payload.get(key), value)
        for key, value in got.items()
    )


def trace_cli(tr, calls, seed, failures):
    """Run sampled oneshot calls through ``cli.main`` and replay them without
    and with spans, each from an empty cache."""
    self_times, bare = [], []
    sampled = _cli_sample(calls, seed)
    wl.clear_caches()
    wl.run_cli(sampled[0].argv)  # first-call imports and lazy set-up
    for k, call in enumerate(sampled):
        op = f"cli:{call.n}:{k}"
        wl.clear_caches()
        code, out, elapsed = wl.run_cli(call.argv)
        wl.clear_caches()
        plain_got, plain = _timed(replay_cli, NullTracer, op, call)
        bare.append(plain)
        self_times.append(elapsed - plain)
        wl.clear_caches()
        got = tr.call("cli.replay", op, replay_cli, tr, op, call)
        payload = json.loads(out) if code == 0 else {}
        if not (_agrees(payload, got) and _agrees(payload, plain_got)):
            failures.append(f"replays of {call.argv} give {got} and {plain_got}, untraced {out!r}")
    metrics = {"cli.self_us": (_median_us(self_times), "us")}
    for n in sorted({call.n for call in sampled}):
        at_n = lambda op, n=n: op.startswith(f"cli:{n}:")  # noqa: E731
        metrics[f"cli.read_columns_us.n{n}"] = (_median_us(tr.per_call("cli.read_columns", at_n)), "us")
    return metrics, (_median_us(bare), _median_us(tr.per_call("cli.replay"))), len(sampled)


# ---------------------------------------------------------------------------
# Power grid: replay of one point, pool start and parallel efficiency
# ---------------------------------------------------------------------------


def trace_power(tr, inputs: wl.PowerInputs, reps, repeats, failures):
    plan, grid = inputs.plan, inputs.grid
    point = replace(plan, truth=grid[inputs.rerun], replications=reps)
    (report,) = mc.power_curve(point, [point.truth], workers=1)
    plain_hits, plain = _timed(replay_rejection, NullTracer, "power", point)
    hits = tr.call("montecarlo.replay", "power", replay_rejection, tr, "power", point)
    if not hits == plain_hits == report.hits:
        failures.append(f"replays of power point {inputs.rerun} give {hits} and {plain_hits}, untraced {report.hits}")
    metrics = {
        "measurement.sample_us.n50": (
            _median_us(tr.per_call("measurement.sample", lambda op: op == "power")),
            "us",
        )
    }
    smallest = replace(plan, replications=2 * wl.POWER_WORKERS)
    for _ in range(repeats):
        tr.call("montecarlo.power_curve_min_pool", "probe", mc.power_curve, smallest, grid[:1], workers=wl.POWER_WORKERS)
    metrics["montecarlo.pool_s"] = (statistics.median(tr.per_call("montecarlo.power_curve_min_pool")), "s")
    for _ in range(2):  # the faster of two curves per worker count
        one = tr.call("montecarlo.power_curve_w1", "probe", mc.power_curve, plan, grid, workers=1)
        two = tr.call("montecarlo.power_curve_w2", "probe", mc.power_curve, plan, grid, workers=wl.POWER_WORKERS)
        if [r.hits for r in one] != [r.hits for r in two]:
            failures.append("power curve hits depend on the worker count")
    t1 = min(tr.per_call("montecarlo.power_curve_w1"))
    t2 = min(tr.per_call("montecarlo.power_curve_w2"))
    metrics["montecarlo.parallel_efficiency"] = (t1 / (wl.POWER_WORKERS * t2), "ratio")
    traced = tr.seconds(tr.last("montecarlo.replay"))
    return metrics, (plain / reps * 1e6, traced / reps * 1e6), 1


# ---------------------------------------------------------------------------
# Fixed probes
# ---------------------------------------------------------------------------


def probe_measurement(tr, seed, repeats):
    rng = wl.rng_for(seed, 5)
    metrics = {}
    for n in (10, 50, 10000):
        values = tuple(rng.normal(size=n).tolist())
        calls = max(2, 20000 // n)
        for name, fn in (("mu_bar", mu_bar), ("ss_bar", ss_bar)):
            us = _probe(tr, f"measurement.{name}", lambda: fn(values), calls, repeats, op=f"n{n}")
            metrics[f"measurement.{name}_us.n{n}"] = (us, "us")
    return metrics


def probe_framework(tr, plans, seed, solve_repeats, repeats):
    rng = wl.rng_for(seed, 6)
    metrics = {}
    for kind, entry, plan in plans:
        if kind != "coverage":
            continue
        problem = plan.problem
        xs = [sample(plan.truth, problem.n, problem.m, rng=rng) for _ in range(50)]
        cycle = itertools.cycle(xs)
        us = _probe(tr, "framework.estimate", lambda: fw.estimate(problem, next(cycle)), 500, repeats, op=entry)
        metrics[f"framework.estimate_us.{entry}"] = (us, "us")
    cached = wl.make_problem("mean-z", 10)
    fw.eta_alpha(cached, None, 0.05)
    us = _probe(tr, "framework.eta_alpha_cached", lambda: fw.eta_alpha(cached, None, 0.05), 5000, repeats)
    metrics["framework.eta_alpha_cached_us"] = (us, "us")
    for entry in wl.ENTRIES:
        for n in (10, 10000):
            problem = wl.make_problem(entry, n, n if wl.two_sample(entry) else None)
            per_alpha = []
            for alpha in wl.ONESHOT_ALPHAS:
                op = f"{entry}.n{n}.a{alpha!r}"
                for _ in range(solve_repeats):
                    wl.clear_caches()
                    tr.call("framework.eta_alpha_cold", op, fw.eta_alpha, problem, None, alpha)
                per_alpha.append(_median_us(tr.per_call("framework.eta_alpha_cold", lambda o, op=op: o == op)))
            metrics[f"framework.eta_alpha_cold_us.{entry}.n{n}"] = (statistics.fmean(per_alpha), "us")
    return metrics


def _dist_specs():
    specs = {"normal": dist.normal()}
    for family, make in (("t", dist.student_t), ("chi2", dist.chi_squared), ("f", lambda k: dist.fisher_f(k, k))):
        for k in DIST_DOFS:
            specs[f"{family}.dof{k}"] = make(k)
    return specs


def probe_distributions(tr, solve_repeats, repeats):
    from scipy import stats

    metrics = {}
    for label, spec in _dist_specs().items():
        q_us, c_us = [], []
        for alpha in wl.ONESHOT_ALPHAS:
            op = f"{label}.a{alpha!r}"
            for _ in range(solve_repeats):
                wl.clear_caches()
                q = tr.call("distributions.quantile", op, dist.quantile, spec, 1.0 - alpha)
            q_us.append(_median_us(tr.per_call("distributions.quantile", lambda o, op=op: o == op)))
            c_us.append(_probe(tr, "distributions.cdf", lambda: dist.cdf(spec, q), 20, repeats, op=op))
        metrics[f"distributions.quantile_us.{label}"] = (statistics.fmean(q_us), "us")
        metrics[f"distributions.cdf_us.{label}"] = (statistics.fmean(c_us), "us")
    references = (("normal", dist.normal(), stats.norm), ("t3", dist.student_t(3), stats.t(3)), ("chi2_5", dist.chi_squared(5), stats.chi2(5)))
    for label, spec, law in references:
        for alpha in REL_ERR_ALPHAS:
            want = law.isf(alpha)
            got = dist.quantile(spec, 1.0 - alpha)
            metrics[f"distributions.quantile_rel_err.{label}.a{alpha:.0e}".replace("e-0", "e-")] = (
                abs(got - want) / abs(want),
                "ratio",
            )
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload, seed, inputs, workdir, sizes, dump_path) -> dict:
    """The traced run: replays, probes, and the overhead pair of ``workload``."""
    mc_plans = inputs if workload == "mc_sweep" else wl.mc_inputs(seed, sizes["mc_reps"])
    mc_plans = [(kind, entry, replace(plan, replications=sizes["trace_mc_reps"])) for kind, entry, plan in mc_plans]
    calls = inputs if workload == "oneshot" else wl.oneshot_inputs(seed, workdir, sizes["oneshot_ns"])
    power = inputs if workload == "power_grid" else wl.power_inputs(seed, sizes["power_reps"])

    tr = Tracer()
    failures: list[str] = []
    started = time.perf_counter()
    metrics, mc_pair, mc_ops = trace_mc(tr, mc_plans, failures)
    cli_metrics, cli_pair, cli_ops = trace_cli(tr, calls, seed, failures)
    repeats, solves = sizes["trace_probe_repeats"], sizes["trace_solve_repeats"]
    power_metrics, power_pair, power_ops = trace_power(tr, power, sizes["trace_power_reps"], repeats, failures)
    metrics.update(cli_metrics)
    metrics.update(power_metrics)
    metrics.update(probe_measurement(tr, seed, repeats))
    metrics.update(probe_framework(tr, mc_plans, seed, solves, repeats))
    metrics.update(probe_distributions(tr, solves, repeats))
    pairs = {"mc_sweep": mc_pair, "oneshot": cli_pair, "power_grid": power_pair}
    metrics["trace.replay_untraced_us_per_op"] = (pairs[workload][0], "us")
    metrics["trace.replay_traced_us_per_op"] = (pairs[workload][1], "us")
    elapsed = time.perf_counter() - started
    tr.dump(dump_path)
    return {
        "attempted": mc_ops + cli_ops + power_ops,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "detail": {
            "traced_seconds": elapsed,
            "spans": len(tr.spans),
            "span_counts": dict(tr.counts),
            "span_self_us_per_call": tr.self_us_per_call(),
            "overhead_us_per_op": {k: {"untraced": a, "traced": b} for k, (a, b) in pairs.items()},
            "trace_file": dump_path,
        },
    }
