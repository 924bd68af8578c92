"""Benchmark of ``semidist``: Monte Carlo sweeps, one-shot CLI calls and
pooled power curves, end to end and (with ``--trace 1``) layer by layer.

    python3 bench/run.py --workload {mc_sweep,oneshot,power_grid} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The package is imported from the
checkout's ``src/``; without it the benchmark exits with code 2.

With ``--trace 0`` the set-up (``import semidist`` plus building the
workload's inputs) is timed in five fresh interpreters; the last of them
then runs the workload untraced for ``--seconds`` seconds.  With
``--trace 1`` one fresh interpreter makes the traced run.  Output: a
JSON line with provenance and details, then the result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
WORKLOADS = ("mc_sweep", "oneshot", "power_grid")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def run_child(mode, args, workdir, deadline) -> dict:
    """Run one fresh interpreter and return its JSON line."""
    cmd = [sys.executable, CHILD, mode, args.workload, str(args.seed), str(args.seconds), workdir]
    if args.tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} child exceeded the deadline") from None
    finally:
        # Pool workers belong to the child's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed with code {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, child: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "workers": child["workers"],
        "attempted": child["attempted"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **child["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "inputs_digest": child["inputs_digest"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "semidist", "__init__.py")):
        print(f"error: no semidist package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # Turn SIGTERM into an exit, so the children are killed and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            child = run_child("trace", args, workdir, deadline)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in child["metrics"].items()}
        else:
            setups = [run_child("setup", args, workdir, deadline) for _ in range(SETUP_SAMPLES - 1)]
            child = run_child("measure", args, workdir, deadline)
            setups.append(child)
            values = {"setup_s": statistics.median(c["setup_s"] for c in setups), **child["metrics"]}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
            child["detail"]["setup_s_samples"] = [c["setup_s"] for c in setups]
            child["detail"]["unscaled"]["setup_s"] = statistics.median(c["setup_s_unscaled"] for c in setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"provenance": provenance(args, child), "detail": child["detail"]}
    if child["failures"]:
        info["failures"] = child["failures"]
    print(json.dumps(info))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
