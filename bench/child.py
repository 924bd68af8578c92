"""One fresh interpreter of the benchmark.

Imports ``semidist`` from the checkout's ``src/`` (never from an installed
copy), builds the workload's inputs from the seed and times both; that
is one set-up sample.  With ``measure`` it then runs the workload
untraced, with ``trace`` it makes the traced run.  Prints one JSON line.

    python3 bench/child.py {setup|measure|trace} <workload> <seed> <seconds> <workdir> [--tiny]
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("workdir")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import gauge

    speed = gauge.SpeedGauge()
    speed.sample()
    start = time.perf_counter()
    import semidist

    if os.path.dirname(os.path.dirname(os.path.abspath(semidist.__file__))) != SRC:
        raise SystemExit(f"semidist imported from {semidist.__file__}, not from {SRC}")
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    inputs = workloads.build_inputs(args.workload, args.seed, args.workdir, sizes)
    end = time.perf_counter()
    speed.sample()
    speed.sample()

    import numpy
    import scipy

    result = {
        "setup_s": (end - start) * speed.scale(start, end),
        "setup_s_unscaled": end - start,
        "inputs_digest": workloads.inputs_digest(args.workload, inputs),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__, "semidist": semidist.__version__},
        "workers": workloads.WORKERS[args.workload],
    }
    if args.mode == "measure":
        cores = workloads.WORKERS[args.workload]
        if cores > 1:
            speed = gauge.SpeedGauge(cores=cores)
        try:
            result.update(workloads.measure(args.workload, inputs, args.seconds, sizes, speed))
        finally:
            speed.close()
    elif args.mode == "trace":
        import tracing

        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        dump = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json.gz")
        result.update(tracing.run(args.workload, args.seed, inputs, args.workdir, sizes, dump))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
