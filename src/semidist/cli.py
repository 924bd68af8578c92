"""Batch command-line interface.

Three subcommands: ``test`` runs a catalog hypothesis test on a data
file, ``ci`` prints the matching confidence interval, and
``experiment`` drives the Monte Carlo coverage/size/power harness.
The test names, and what each test needs (one or two data columns,
known sigmas, a positive null), come from ``framework.CATALOG``.
Decisions always live in the payload; the exit code only distinguishes
"ran" (0) from "could not run" (2).

Data files (``test`` and ``ci``) are UTF-8 text, with or without a byte
order mark, holding one or two columns of reals.  A row with a comma is
split at its commas, and spaces around them do not matter; any other row
is split at whitespace.  A row of one value adds to the first column
only, so in a comma-separated file the second column may end early.
Blank lines are skipped, and every line break ``str.splitlines`` knows
ends a row.  The first non-blank line is a header if it does not parse
and has no empty field.  Any other line that does not parse, an empty
comma-separated field, a row of more than two values and a non-finite
value each stop the command (exit 2) with a message naming the line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import textwrap
from itertools import repeat
from typing import Sequence

from . import framework, montecarlo
from .framework import CATALOG, Hypothesis, TestProblem
from .measurement import Sample, State, TwoSampleState

__all__ = ["main"]

SEED_ENV_VAR = "SEMIDIST_SEED"


class CliError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _json_number(x: float):
    if not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def read_columns(path: str) -> tuple[list[float], list[float]]:
    """Parse a data file in the format of the module docstring into its two
    columns (the second empty for a one-column file).

    A bulk pass of C-level operations over all rows at once reads files
    whose data rows all hold one value or all hold two comma-separated
    values: one-column files and comma-separated files (header or none,
    blank lines, any line break, spaces around commas).  Anything it cannot
    read, which is every bad file, a comma-separated file whose second
    column ends early and the whitespace-separated two-column shapes, goes
    through the per-line scan: it reads those shapes and names the first
    bad line in a ``CliError``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read data file {path!r}: {exc}") from exc
    try:
        col1, col2 = _bulk_columns(lines)
    except ValueError:
        col1, col2 = _scan_columns(lines, path)
    if not col1:
        raise CliError(f"no data rows in {path!r}")
    # A finite sum proves every value finite; only a non-finite value (or
    # an overflowing sum) pays for the check, and only a non-finite value
    # for the search for its line.
    if not math.isfinite(sum(col1) + sum(col2)) and not all(
        map(math.isfinite, col1 + col2)
    ):
        for number, raw in enumerate(lines, 1):
            try:
                values = _row_values(raw)
            except ValueError:
                continue
            if not all(map(math.isfinite, values)):
                raise CliError(f"non-finite value on line {number} of {path!r}: {raw.strip()!r}")
    return col1, col2


def _bulk_columns(lines: list[str]) -> tuple[list[float], list[float]]:
    """The columns when every data row holds one value, or every one holds
    two comma-separated ones; raises ValueError on anything else.  No list
    is built per row."""
    rows = list(filter(str.strip, lines))
    if rows and _is_header(rows[0]):
        del rows[0]
    try:
        return list(map(float, rows)), []
    except ValueError:
        pass  # a row with a comma, or a bad row
    if list(map(str.count, rows, repeat(","))).count(1) != len(rows):
        raise ValueError("not one comma on every row")
    values = list(map(float, ",".join(rows).split(",")))
    return values[0::2], values[1::2]


def _scan_columns(lines: list[str], path: str) -> tuple[list[float], list[float]]:
    """The columns, line by line; a line with an empty field, a line that
    does not parse (after the header) and a row of more than two values each
    raise a ``CliError`` naming the line."""
    col1: list[float] = []
    col2: list[float] = []
    allow_header = True
    for number, raw in enumerate(lines, 1):
        try:
            values = _row_values(raw)
        except ValueError:
            if _has_empty_field(raw):
                raise CliError(f"empty field on line {number} of {path!r}: {raw!r}") from None
            if allow_header:
                allow_header = False
                continue
            raise CliError(f"unparseable line {number} of {path!r}: {raw!r}") from None
        if not values:
            continue
        allow_header = False
        if len(values) > 2:
            raise CliError(f"expected one or two columns in {path!r}, got {len(values)}")
        col1.append(values[0])
        if len(values) == 2:
            col2.append(values[1])
    return col1, col2


def _row_values(line: str) -> list[float]:
    """The numbers on a line: its comma-separated fields if it has a comma,
    else its whitespace-separated ones; an empty field raises ValueError."""
    return [float(p) for p in (line.split(",") if "," in line else line.split())]


def _has_empty_field(line: str) -> bool:
    return "," in line and not all(map(str.strip, line.split(",")))


def _is_header(line: str) -> bool:
    """Whether a first non-blank line is a header: one that does not parse
    and has no empty field."""
    try:
        _row_values(line)
    except ValueError:
        return not _has_empty_field(line)
    return False


def _build_problem(name: str, n: int, m: int | None, args: argparse.Namespace) -> TestProblem:
    entry = CATALOG[name]
    sigmas = {flag: getattr(args, flag) for flag in entry.estimator.known_sigmas}
    if None in sigmas.values():
        flags = " and ".join(f"--{flag}" for flag in sigmas)
        studentized = next(
            other for other, e in CATALOG.items()
            if e.kind.studentized and e.kind.half_line == entry.kind.half_line
        )
        raise CliError(
            f"{name} needs the known population sd ({flags}); "
            f"with sigma unknown, use {studentized}"
        )
    return TestProblem(*entry, n, m, **sigmas)


def _refuse_unused_flags(name: str, args: argparse.Namespace) -> None:
    """Refuse a nuisance flag the test has no use for, rather than drop it."""
    entry = CATALOG[name]
    unused = [
        flag for flag in ("sigma", "sigma1", "sigma2")
        if getattr(args, flag) is not None and flag not in entry.estimator.known_sigmas
    ]
    if not entry.quantity.two_sample:
        unused += [flag for flag in ("m", "mu2", "sd2") if getattr(args, flag, None) is not None]
    if unused:
        flags = " and ".join(f"--{flag}" for flag in unused)
        raise CliError(f"{name} does not use {flags}")


def _build_hypothesis(name: str, null_value: float) -> Hypothesis:
    entry = CATALOG[name]
    if entry.quantity.positive and null_value <= 0.0:
        raise CliError(f"--null must be positive for {name}, got {null_value}")
    if entry.kind.half_line:
        return Hypothesis.lower_half_line(null_value)
    return Hypothesis.point(null_value)


def _load_sample(name: str, path: str) -> Sample:
    col1, col2 = read_columns(path)
    if CATALOG[name].quantity.two_sample:
        if not col2:
            raise CliError(f"{name} needs two data columns in {path!r}")
        return Sample(tuple(col1), tuple(col2))
    if col2:
        raise CliError(f"{name} takes a single data column, {path!r} has two")
    return Sample(tuple(col1))


def _cmd_test(args: argparse.Namespace) -> int:
    _refuse_unused_flags(args.name, args)
    x = _load_sample(args.name, args.data)
    problem = _build_problem(args.name, x.n, x.m, args)
    hypothesis = _build_hypothesis(args.name, args.null)
    result = framework.run_test(problem, hypothesis, args.alpha, x)
    if args.json:
        _emit_json(
            {
                "test": args.name,
                "statistic": _json_number(result.statistic),
                "eta": _json_number(result.eta),
                "alpha": _json_number(result.alpha),
                "reject": result.reject,
            }
        )
    else:
        print(f"test: {args.name}")
        print(f"n: {x.n}" + (f"  m: {x.m}" if x.m is not None else ""))
        print(f"null: {_fmt(args.null)}")
        print(f"estimate: {_fmt(framework.estimate(problem, x))}")
        print(f"statistic: {_fmt(result.statistic)}")
        print(f"eta: {_fmt(result.eta)}")
        print(f"alpha: {_fmt(result.alpha)}")
        print(f"reject: {'yes' if result.reject else 'no'}")
    return 0


def _cmd_ci(args: argparse.Namespace) -> int:
    _refuse_unused_flags(args.name, args)
    x = _load_sample(args.name, args.data)
    problem = _build_problem(args.name, x.n, x.m, args)
    region = framework.confidence_region(problem, x, args.gamma)
    if args.json:
        _emit_json(
            {
                "lo": _json_number(region.lo),
                "hi": _json_number(region.hi),
                "gamma": _json_number(region.gamma),
                "estimator": _json_number(region.estimate),
            }
        )
    else:
        hi = _fmt(region.hi) if math.isfinite(region.hi) else "inf"
        print(f"test: {args.name}")
        print(f"n: {x.n}" + (f"  m: {x.m}" if x.m is not None else ""))
        print(f"estimate: {_fmt(region.estimate)}")
        print(f"gamma: {_fmt(region.gamma)}")
        print(f"interval: ({_fmt(region.lo)}, {hi})")
    return 0


def _report_payload(report: montecarlo.ExperimentReport) -> dict:
    return {
        "rate": _json_number(report.rate),
        "hits": report.hits,
        "J": report.replications,
        "band": [_json_number(report.band[0]), _json_number(report.band[1])],
        "pass": report.passed,
        "seed": report.seed,
    }


def _print_report(report: montecarlo.ExperimentReport, prefix: str = "") -> None:
    print(
        f"{prefix}rate: {_fmt(report.rate)}  hits: {report.hits}/{report.replications}"
        f"  band: ({_fmt(report.band[0])}, {_fmt(report.band[1])})"
        f"  pass: {'yes' if report.passed else 'no'}  seed: {report.seed}"
    )


def _experiment_truth(name: str, args: argparse.Namespace) -> State | TwoSampleState:
    first = State(args.mu, args.sd)
    if CATALOG[name].quantity.two_sample:
        return TwoSampleState(first, State(args.mu2, args.sd2))
    return first


def _experiment_problem(name: str, args: argparse.Namespace) -> TestProblem:
    # In an experiment the truth's sigma is available, so the known-sigma
    # tests default their nuisance values to it.
    for flag, sd in (("sigma", args.sd), ("sigma1", args.sd), ("sigma2", args.sd2)):
        if getattr(args, flag) is None:
            setattr(args, flag, sd)
    m = args.m if CATALOG[name].quantity.two_sample else None
    return _build_problem(name, args.n, m, args)


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.test
    _refuse_unused_flags(name, args)
    if CATALOG[name].quantity.two_sample:
        # The second sample defaults to the first one's size and to N(0, 1).
        for flag, default in (("m", args.n), ("mu2", 0.0), ("sd2", 1.0)):
            if getattr(args, flag) is None:
                setattr(args, flag, default)
    problem = _experiment_problem(name, args)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    if args.kind == "coverage":
        plan = montecarlo.ExperimentPlan(
            problem, _experiment_truth(name, args), args.gamma, args.reps, seed
        )
        report = montecarlo.coverage_experiment(plan, workers=args.workers)
        if args.json:
            _emit_json(_report_payload(report))
        else:
            print(f"coverage experiment: {name}  gamma: {_fmt(args.gamma)}")
            _print_report(report)
        return 0
    if args.null is None:
        raise CliError(f"--null is required for {args.kind} experiments")
    hypothesis = _build_hypothesis(name, args.null)
    if args.kind == "size":
        plan = montecarlo.ExperimentPlan(
            problem,
            _experiment_truth(name, args),
            args.alpha,
            args.reps,
            seed,
            hypothesis,
        )
        report = montecarlo.size_experiment(plan, workers=args.workers)
        if args.json:
            _emit_json(_report_payload(report))
        else:
            print(f"size experiment: {name}  alpha: {_fmt(args.alpha)}")
            _print_report(report)
        return 0
    if not args.grid:
        raise CliError("--grid is required for power experiments")
    try:
        thetas = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"--grid must be a comma-separated list of reals, got {args.grid!r}")
    if not thetas:
        raise CliError("--grid is empty")
    if problem.quantity.positive and any(theta <= 0.0 for theta in thetas):
        raise CliError(f"--grid values must be positive for {name}")
    truth = _experiment_truth(name, args)
    truths = [framework.state_with_quantity(problem, truth, theta) for theta in thetas]
    plan = montecarlo.ExperimentPlan(
        problem, truths[0], args.alpha, args.reps, seed, hypothesis
    )
    reports = montecarlo.power_curve(plan, truths, workers=args.workers)
    if args.json:
        print(json.dumps([_report_payload(r) for r in reports]))
    else:
        print(f"power experiment: {name}  alpha: {_fmt(args.alpha)}")
        for theta, report in zip(thetas, reports):
            _print_report(report, prefix=f"theta: {_fmt(theta)}  ")
    return 0


def _add_nuisance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, help="known population sd (known-sigma mean tests)")
    parser.add_argument("--sigma1", type=float, help="known sd of the first sample")
    parser.add_argument("--sigma2", type=float, help="known sd of the second sample")


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, except that help text never breaks a line
    inside a hyphenated word such as a test name."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a formatter, and so a terminal-size lookup, for every
    # add_argument; one lookup gives each of them the width it would compute.
    formatter = functools.partial(_HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="semidist",
        description="Catalog hypothesis tests, confidence intervals, and "
        "Monte Carlo coverage/size experiments for the normal model.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A metavar lets argparse wrap the names, which it never breaks in a
    # {choice,...} list.
    names = dict(
        choices=tuple(CATALOG), metavar="NAME", help=f"catalog test: {', '.join(CATALOG)}"
    )

    p_test = sub.add_parser(
        "test", help="run a hypothesis test on a data file", formatter_class=formatter
    )
    p_test.add_argument("name", **names)
    p_test.add_argument("data", help="data file (1 or 2 columns, CSV or whitespace)")
    p_test.add_argument("--null", type=float, required=True, help="null value")
    p_test.add_argument("--alpha", type=float, default=0.05, help="significance level")
    _add_nuisance_flags(p_test)
    p_test.add_argument("--json", action="store_true", help="emit JSON")
    p_test.set_defaults(func=_cmd_test)

    p_ci = sub.add_parser(
        "ci", help="confidence interval from a data file", formatter_class=formatter
    )
    p_ci.add_argument("name", **names)
    p_ci.add_argument("data", help="data file (1 or 2 columns, CSV or whitespace)")
    p_ci.add_argument("--gamma", type=float, default=0.95, help="confidence level")
    _add_nuisance_flags(p_ci)
    p_ci.add_argument("--json", action="store_true", help="emit JSON")
    p_ci.set_defaults(func=_cmd_ci)

    p_exp = sub.add_parser(
        "experiment", help="Monte Carlo coverage/size/power", formatter_class=formatter
    )
    p_exp.add_argument("kind", choices=("coverage", "size", "power"))
    p_exp.add_argument("--test", required=True, **names)
    p_exp.add_argument("--n", type=int, default=10, help="first sample size")
    p_exp.add_argument("--m", type=int, help="second sample size (two-sample tests)")
    p_exp.add_argument("--mu", type=float, default=0.0, help="true mean")
    p_exp.add_argument("--sd", type=float, default=1.0, help="true sd")
    p_exp.add_argument("--mu2", type=float, help="true mean, second sample")
    p_exp.add_argument("--sd2", type=float, help="true sd, second sample")
    p_exp.add_argument("--gamma", type=float, default=0.95, help="confidence level (coverage)")
    p_exp.add_argument("--alpha", type=float, default=0.05, help="significance level (size/power)")
    p_exp.add_argument("--null", type=float, help="null value (size/power)")
    p_exp.add_argument("--grid", help="comma-separated quantity values (power)")
    p_exp.add_argument("--reps", type=int, default=10000, help="replications")
    p_exp.add_argument(
        "--seed", type=int, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)"
    )
    p_exp.add_argument("--workers", type=int, default=1, help="parallel workers")
    _add_nuisance_flags(p_exp)
    p_exp.add_argument("--json", action="store_true", help="emit JSON")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
