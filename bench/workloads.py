"""Workload inputs, untraced measurement loops and output checks.

Every input is derived from the run seed; the program under test only
ever sees the generated plans, data files and argument lists.  The
benchmark talks to ``semidist`` through its public functions, so the
workloads survive internal refactors of the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from semidist import cli, framework as fw, montecarlo as mc
from semidist.framework import Hypothesis
from semidist.measurement import State, TwoSampleState

ENTRIES = (
    "mean-z",
    "mean-z-upper",
    "var",
    "var-upper",
    "diff-means",
    "diff-means-upper",
    "var-ratio",
    "var-ratio-upper",
    "mean-t",
    "mean-t-upper",
)
ONESHOT_ALPHAS = (0.1, 0.05, 0.01, 1e-4, 1e-8)
POWER_RATIOS = tuple(1.0 + 0.8 * i / 7 for i in range(8))
POWER_ALPHA = 0.05
POWER_WORKERS = 2
WORKERS = {"mc_sweep": 1, "oneshot": 1, "power_grid": POWER_WORKERS}

# Sizes of one run.  A pass is one sweep over a workload's operations; a
# run repeats passes until its time is up, and never stops before
# ``min_passes``.  The trace_* sizes are those of the traced run's replays
# and probes.
FULL = {
    "mc_reps": 2000,
    "oneshot_ns": (5, 30, 1000, 10000),
    "power_reps": 4000,
    "min_passes": 3,
    "trace_mc_reps": 2000,
    "trace_power_reps": 1000,
    "trace_probe_repeats": 5,
    "trace_solve_repeats": 3,
}
TINY = {
    "mc_reps": 200,
    "oneshot_ns": FULL["oneshot_ns"],
    "power_reps": 40,
    "min_passes": 1,
    "trace_mc_reps": 50,
    "trace_power_reps": 40,
    "trace_probe_repeats": 2,
    "trace_solve_repeats": 1,
}


def base(entry: str) -> str:
    return entry.removesuffix("-upper")


def is_upper(entry: str) -> bool:
    return entry.endswith("-upper")


def two_sample(entry: str) -> bool:
    return base(entry) in ("diff-means", "var-ratio")


def null_value(entry: str) -> float:
    return 1.0 if base(entry) in ("var", "var-ratio") else 0.0


def make_problem(entry, n, m=None, sigma1=1.0, sigma2=1.0):
    """The catalog problem for ``entry``, built through the public constructors."""
    up = is_upper(entry)
    b = base(entry)
    if b == "mean-z":
        return (fw.mean_z_upper if up else fw.mean_z)(n, sigma1)
    if b == "var":
        return (fw.variance_upper if up else fw.variance)(n)
    if b == "diff-means":
        return (fw.mean_diff_z_upper if up else fw.mean_diff_z)(n, m, sigma1, sigma2)
    if b == "var-ratio":
        return (fw.variance_ratio_upper if up else fw.variance_ratio)(n, m)
    return (fw.mean_t_upper if up else fw.mean_t)(n)


def make_hypothesis(entry: str, value: float) -> Hypothesis:
    return Hypothesis.lower_half_line(value) if is_upper(entry) else Hypothesis.point(value)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def size_band_upper(alpha: float, reps: int) -> float:
    """Upper edge of the harness's 4-sigma size band."""
    return alpha + 4.0 * math.sqrt(alpha * (1.0 - alpha) / reps)


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("semidist"):
            continue
        for obj in vars(module).values():
            holders = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            for holder in holders:
                clear = getattr(holder, "cache_clear", None)
                if callable(clear) and id(holder) not in seen:
                    seen.add(id(holder))
                    clear()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def mc_inputs(seed: int, reps: int) -> list[tuple[str, str, mc.ExperimentPlan]]:
    """Coverage (gamma 0.95) and size (alpha 0.05, truth on the null
    boundary) plans for every entry at n = m = 10, truth N(0, 1)."""
    first = int(rng_for(seed, 1).integers(1, 2**31))
    one = State(0.0, 1.0)
    two = TwoSampleState(one, one)
    plans = []
    for k, entry in enumerate(ENTRIES):
        pair = two_sample(entry)
        problem = make_problem(entry, 10, 10 if pair else None)
        truth = two if pair else one
        hyp = make_hypothesis(entry, null_value(entry))
        plans.append(("coverage", entry, mc.ExperimentPlan(problem, truth, 0.95, reps, first + 2 * k)))
        plans.append(("size", entry, mc.ExperimentPlan(problem, truth, 0.05, reps, first + 2 * k + 1, hyp)))
    return plans


@dataclass(frozen=True)
class Dataset:
    path: str
    x: np.ndarray
    y: np.ndarray | None
    sd1: float
    sd2: float


@dataclass(frozen=True)
class Call:
    """One ``semidist test|ci <entry> <file> ... --json`` invocation."""

    command: str
    entry: str
    n: int
    alpha: float  # for ci, the alpha that 1 - gamma evaluates to
    gamma: float | None  # ci only
    argv: tuple[str, ...]
    data: Dataset


def _write_columns(path: str, x: np.ndarray, y: np.ndarray | None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        if y is None:
            handle.write("x\n")
            handle.writelines(f"{v!r}\n" for v in x.tolist())
        else:
            handle.write("x,y\n")
            handle.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def oneshot_inputs(seed: int, workdir: str, ns) -> list[Call]:
    """Data files and the shuffled grid of CLI calls: ten entries x five
    alphas x the row counts ``ns`` x {test, ci}."""
    rng = rng_for(seed, 2)
    datasets = {}
    for n in ns:
        mu1, mu2 = rng.uniform(-0.3, 0.3, 2).tolist()
        sd1, sd2 = rng.uniform(0.7, 1.4, 2).tolist()
        x = rng.normal(mu1, sd1, n)
        y = rng.normal(mu2, sd2, n)
        for pair in (False, True):
            path = os.path.join(workdir, f"{'two' if pair else 'one'}_n{n}.csv")
            _write_columns(path, x, y if pair else None)
            datasets[n, pair] = Dataset(path, x, y if pair else None, sd1, sd2)
    calls = []
    for entry in ENTRIES:
        for n in ns:
            data = datasets[n, two_sample(entry)]
            flags = []
            if base(entry) == "mean-z":
                flags = ["--sigma", repr(data.sd1)]
            elif base(entry) == "diff-means":
                flags = ["--sigma1", repr(data.sd1), "--sigma2", repr(data.sd2)]
            for alpha in ONESHOT_ALPHAS:
                head = [entry, data.path, *flags, "--json"]
                test = ["test", *head, "--null", repr(null_value(entry)), "--alpha", repr(alpha)]
                gamma = repr(1.0 - alpha)
                ci = ["ci", *head, "--gamma", gamma]
                calls.append(Call("test", entry, n, alpha, None, tuple(test), data))
                calls.append(Call("ci", entry, n, 1.0 - float(gamma), float(gamma), tuple(ci), data))
    order = rng.permutation(len(calls)).tolist()
    return [calls[k] for k in order]


@dataclass(frozen=True)
class PowerInputs:
    plan: mc.ExperimentPlan
    grid: tuple[TwoSampleState, ...]
    rerun: int  # grid point rerun with one worker to check partition invariance


def power_inputs(seed: int, reps: int) -> PowerInputs:
    rng = rng_for(seed, 3)
    one = State(0.0, 1.0)
    grid = tuple(TwoSampleState(State(0.0, r), one) for r in POWER_RATIOS)
    plan = mc.ExperimentPlan(
        fw.variance_ratio_upper(50, 50),
        grid[0],
        POWER_ALPHA,
        reps,
        int(rng.integers(1, 2**31)),
        Hypothesis.lower_half_line(1.0),
    )
    return PowerInputs(plan, grid, int(rng.integers(len(grid))))


def build_inputs(workload: str, seed: int, workdir: str, sizes: dict):
    if workload == "mc_sweep":
        return mc_inputs(seed, sizes["mc_reps"])
    if workload == "oneshot":
        return oneshot_inputs(seed, workdir, sizes["oneshot_ns"])
    if workload == "power_grid":
        return power_inputs(seed, sizes["power_reps"])
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(workload: str, inputs) -> str:
    """A fingerprint of the generated inputs, for the seed self-test."""
    h = hashlib.sha256()
    if workload == "oneshot":
        for call in inputs:
            h.update(repr(call.argv[:2]).encode())
            h.update(call.data.x.tobytes())
    else:
        h.update(repr(inputs).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Untraced measurement
# ---------------------------------------------------------------------------


def _loop(seconds: float, min_passes: int):
    """Yield pass indices until the time is up and enough passes ran."""
    end = time.perf_counter() + seconds
    k = 0
    while k < min_passes or time.perf_counter() < end:
        yield k
        k += 1


def run_cli(argv) -> tuple[int, str, float]:
    """One in-process ``cli.main`` call: exit code, stdout, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def measure_mc_sweep(plans, seconds, min_passes, gauge):
    runners = {"coverage": mc.coverage_experiment, "size": mc.size_experiment}
    ops, hits, failures = [], None, []
    for k in _loop(seconds, min_passes):
        got = []
        for kind, entry, plan in plans:
            gauge.tick()
            start = time.perf_counter()
            report = runners[kind](plan, workers=1)
            ops.append((start, time.perf_counter(), plan.replications, k))
            got.append(report.hits)
            if not report.passed:
                failures.append(f"{kind} {entry}: rate {report.rate} outside {report.band}")
            elif hits is not None and report.hits != hits[len(got) - 1]:
                failures.append(f"{kind} {entry}: pass {k} hits {report.hits} != {hits[len(got) - 1]}")
        hits = hits or got
    return {
        "ops": ops,
        "attempted": len(ops),
        "failures": failures,
        "detail": {"hits": dict(zip((f"{k}.{e}" for k, e, _ in plans), hits))},
    }


def measure_oneshot(calls, seconds, min_passes, gauge):
    import reference  # scipy is imported only after the timed loop

    clear_caches()
    run_cli(calls[0].argv)  # first-call imports and lazy set-up
    ops, records = [], []
    for p in _loop(seconds, min_passes):
        for k, call in enumerate(calls):
            clear_caches()
            gauge.tick()
            start = time.perf_counter()
            code, out, elapsed = run_cli(call.argv)
            ops.append((start, start + elapsed, 1, p))
            records.append((k, code, out))
    rss = peak_rss_mb()
    failures, errors = [], []
    first = {}
    for k, code, out in records:
        if k not in first:
            first[k] = out
            problem, err = reference.check_call(calls[k], code, out)
            if err is not None:
                errors.append(err)
        else:
            problem = None if out == first[k] else f"{calls[k].argv}: output changed to {out!r}"
        if problem is not None:
            failures.append(problem)
    detail = {"max_eta_rel_err": max(errors, default=None)}
    return {"ops": ops, "attempted": len(records), "failures": failures, "rss": rss, "detail": detail}


def measure_power_grid(inputs: PowerInputs, seconds, min_passes, gauge):
    plan, grid = inputs.plan, inputs.grid
    band = size_band_upper(plan.level, plan.replications)
    ops, hits, failures = [], None, []
    for k in _loop(seconds, min_passes):
        # A curve outlasts the gauge interval: sample right before each,
        # enough to fill the gauge's window on both sides of a curve.
        for _ in range(3):
            gauge.sample()
        start = time.perf_counter()
        reports = mc.power_curve(plan, grid, workers=POWER_WORKERS)
        ops.append((start, time.perf_counter(), plan.replications * len(grid), k))
        got = [r.hits for r in reports]
        if reports[0].rate > band:
            failures.append(f"pass {k}: null rate {reports[0].rate} above {band}")
        if hits is not None and got != hits:
            failures.extend(f"pass {k} point {i}: hits {a} != {b}" for i, (a, b) in enumerate(zip(got, hits)) if a != b)
        hits = hits or got
    gauge.sample()
    rss = peak_rss_mb()
    point = grid[inputs.rerun]
    single = mc.power_curve(plan, [point], workers=1)[0]
    if single.hits != hits[inputs.rerun]:
        failures.append(f"point {inputs.rerun}: one worker gives {single.hits}, {POWER_WORKERS} give {hits[inputs.rerun]}")
    return {
        "ops": ops,
        "attempted": len(ops) * len(grid) + 1,
        "failures": failures,
        "rss": rss,
        "detail": {"hits": hits, "rerun_point": inputs.rerun},
    }


MEASURE = {
    "mc_sweep": measure_mc_sweep,
    "oneshot": measure_oneshot,
    "power_grid": measure_power_grid,
}


def measure(workload, inputs, seconds, sizes, gauge) -> dict:
    """Run ``workload`` untraced for ``seconds`` and return its end-to-end
    figures, with times rescaled by the speed gauge (setup time is added
    by the caller)."""
    out = MEASURE[workload](inputs, seconds, sizes["min_passes"], gauge)
    gauge.sample()
    ops = out["ops"]
    work = sum(units for _, _, units, _ in ops)
    raw = [end - start for start, end, *_ in ops]
    scaled = [(end - start) * gauge.scale(start, end) for start, end, *_ in ops]
    ordered = sorted(scaled)
    beyond = len(ordered) - 1 - int(0.99 * len(ordered))
    return {
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "failures": out["failures"][:20],
        "metrics": {
            "throughput_per_s": work / sum(scaled),
            "latency_ms_p50": statistics.median(scaled) * 1e3,
            "peak_rss_mb": out.get("rss") or peak_rss_mb(),
        },
        "detail": {
            "passes": ops[-1][3] + 1,
            "operations": len(ops),
            # reported only when at least ten operations lie beyond it
            "latency_ms_p99": ordered[-1 - beyond] * 1e3 if beyond >= 10 else None,
            "operations_beyond_p99": beyond,
            "unscaled": {"throughput_per_s": work / sum(raw), "latency_ms_p50": statistics.median(raw) * 1e3},
            "gauge_samples": len(gauge.took),
            "gauge_median_s": statistics.median(gauge.took),
            **out["detail"],
        },
    }
