"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced on two seeds with ``--tiny`` and
checks that:

* the result line has exactly the keys correct, attempted, failed and
  metrics, is correct and has no failed operation (for a traced run that
  includes the check that every replay reaches the untraced decisions);
* every metric named in BENCHMARK.json is emitted, with its unit and a
  finite value, and no other; metric names match ``[A-Za-z0-9_.-]+``;
* another seed changes the inputs but not the metric names, and the
  same seed gives the same inputs in the untraced and the traced run;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits non-zero and lists the problems if any check fails.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEEDS = (1, 2)


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload, seed, trace, expected, problems):
    """Run once; return the inputs digest and the metric names."""
    where = f"{workload} seed {seed} trace {trace}"
    proc = run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}")
        return None, set()
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct {result['correct']}, {result['failed']} of {result['attempted']} failed: {info.get('failures')}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name, entry.get("unit")):
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, BENCHMARK.json says {expected[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} has value {value!r}")
    if trace:
        counts = info["detail"]["span_counts"]
        if not (counts.get("montecarlo.replay") and counts.get("cli.replay")):
            problems.append(f"{where}: no replay spans recorded: {counts}")
    return info["provenance"]["inputs_digest"], set(metrics)


def check_bare_directory(problems):
    """The benchmark alone, without the package, must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "mc_sweep", 1, 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for metrics in groups.values():
        problems.extend(f"bad metric name {m['name']!r}" for m in metrics if not NAME.match(m["name"]))
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, metrics in groups.items():
            expected = {m["name"]: m["unit"] for m in metrics}
            names = {}
            for seed in SEEDS:
                digests[trace, seed], names[seed] = check_run(workload, seed, trace, expected, problems)
                print(f"ran {workload} seed {seed} trace {trace}", flush=True)
            if names[SEEDS[0]] != names[SEEDS[1]]:
                problems.append(f"{workload} trace {trace}: metric names depend on the seed")
        for seed in SEEDS:
            if digests[0, seed] != digests[1, seed]:
                problems.append(f"{workload} seed {seed}: untraced and traced runs got different inputs")
        if digests[0, SEEDS[0]] == digests[0, SEEDS[1]]:
            problems.append(f"{workload}: seeds {SEEDS} give the same inputs")
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
