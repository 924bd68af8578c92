"""Batch command-line interface.

Three subcommands: ``test`` runs a catalog hypothesis test on a data
file, ``ci`` prints the matching confidence interval, and
``experiment`` drives the Monte Carlo coverage/size/power harness.
The test names and their data columns come from ``framework.CATALOG``.
The library refuses what an entry does not accept (a sigma, a null or a
grid value), naming it as the CLI does, and the CLI prints the refusal:
the CLI owns only the flags, files and defaults.  Decisions always live
in the payload; the exit code only distinguishes "ran" (0) from "could
not run" (2).  One table lists each subcommand's arguments.  A plain
call is read from it without building argparse; any other call, and so
every help text, usage line and parse error, goes through the full
argparse parser built from it (see ``main``).

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
``_data_rows`` reads lines by these rules and refuses the first three; a
non-finite value is refused by ``Sample`` (``measurement._finite_row``),
the one check of every measured value, and ``_load_sample`` then finds
its line in ``_data_rows``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from itertools import repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence

from . import framework
from .framework import CATALOG, Hypothesis, TestProblem
from .measurement import Sample, State, TwoSampleState

if TYPE_CHECKING:
    import argparse

    from .montecarlo import ExperimentReport

__all__ = ["main"]

SEED_ENV_VAR = "SEMIDIST_SEED"


class CliError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _json_number(x: float):
    """``x`` as --json prints it: its shortest round-trip repr, null if not finite."""
    return float(x) if math.isfinite(x) else None


def read_columns(path: str) -> tuple[list[float], list[float]]:
    """Parse a data file in the format of the module docstring into its two
    columns (the second empty for a one-column file).  Values are not
    checked for finiteness here: ``Sample`` does that, and ``_load_sample``
    names the line of a value it refuses.

    A bulk pass of C-level operations over all rows at once reads files
    whose data rows all hold one value or all hold two comma-separated
    values: one-column files and comma-separated files (header or none,
    empty lines, any line break, spaces around commas).  Anything it cannot
    read, which is every bad file, a file with a line of whitespace alone,
    a comma-separated file whose second column ends early and the
    whitespace-separated two-column shapes, goes through the per-line scan
    of ``_data_rows``: it reads those shapes and names the first bad line
    in a ``CliError``."""
    lines = _read_lines(path)
    try:
        col1, col2 = _bulk_columns(lines)
    except ValueError:
        col1, col2 = _scan_columns(lines, path)
    if not col1:
        raise CliError(f"no data rows in {path!r}")
    return col1, col2


def _read_lines(path: str) -> list[str]:
    """The lines of a data file, decoded from its bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8-sig").splitlines()
    except OSError as exc:
        raise CliError(f"cannot read data file {path!r}: {exc}") from exc


def _bulk_columns(lines: list[str]) -> tuple[list[float], list[float]]:
    """The columns when every data row holds one value, or every one holds
    two comma-separated ones; raises ValueError on anything else, a line of
    whitespace alone included.  Empty lines are dropped, and no list is
    built per row."""
    rows = list(filter(None, lines))
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
    """The columns of the data rows of ``_data_rows``."""
    rows = [values for _, _, values in _data_rows(lines, path)]
    return [row[0] for row in rows], [row[1] for row in rows if len(row) == 2]


def _data_rows(lines: list[str], path: str) -> Iterator[tuple[int, str, list[float]]]:
    """(line number, line, values) of each data row: blank lines are skipped
    and the first non-blank one is dropped if it is a header.  A line with
    an empty field, a line that does not parse and a row of more than two
    values each raise a ``CliError`` naming the line."""
    rows = [(number, raw) for number, raw in enumerate(lines, 1) if raw.split()]
    if rows and _is_header(rows[0][1]):
        del rows[0]
    for number, raw in rows:
        try:
            values = _row_values(raw)
        except ValueError:
            if _has_empty_field(raw):
                raise CliError(f"empty field on line {number} of {path!r}: {raw!r}") from None
            raise CliError(f"unparseable line {number} of {path!r}: {raw!r}") from None
        if len(values) > 2:
            raise CliError(f"expected one or two columns in {path!r}, got {len(values)}")
        yield number, raw, values


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


def _build_hypothesis(name: str, null_value: float) -> Hypothesis:
    if CATALOG[name].kind.half_line:
        return Hypothesis.lower_half_line(null_value)
    return Hypothesis.point(null_value)


def _load_sample(name: str, path: str) -> Sample:
    """The measured value in a data file for test ``name``.  ``Sample``
    refuses a non-finite value; only then are the data rows searched, for
    the first one holding such a value."""
    col1, col2 = read_columns(path)
    two_sample = CATALOG[name].quantity.two_sample
    if two_sample and not col2:
        raise CliError(f"{name} needs two data columns in {path!r}")
    if col2 and not two_sample:
        raise CliError(f"{name} takes a single data column, {path!r} has two")
    try:
        return Sample(tuple(col1), tuple(col2) if two_sample else None)
    except ValueError:
        for number, raw, values in _data_rows(_read_lines(path), path):
            if not all(map(math.isfinite, values)):
                raise CliError(f"non-finite value on line {number} of {path!r}: {raw.strip()!r}")
        raise


def _cmd_test(args: argparse.Namespace) -> int:
    x = _load_sample(args.name, args.data)
    problem = TestProblem(*CATALOG[args.name], x.n, x.m, args.sigma, args.sigma1, args.sigma2)
    hypothesis = _build_hypothesis(args.name, args.null)
    result = framework.run_test(problem, hypothesis, args.alpha, x)
    if args.json:
        print(json.dumps({
            "test": args.name,
            "statistic": _json_number(result.statistic),
            "eta": _json_number(result.eta),
            "alpha": _json_number(result.alpha),
            "reject": result.reject,
        }))
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
    x = _load_sample(args.name, args.data)
    problem = TestProblem(*CATALOG[args.name], x.n, x.m, args.sigma, args.sigma1, args.sigma2)
    region = framework.confidence_region(problem, x, args.gamma)
    if args.json:
        print(json.dumps({
            "lo": _json_number(region.lo),
            "hi": _json_number(region.hi),
            "gamma": _json_number(region.gamma),
            "estimator": _json_number(region.estimate),
        }))
    else:
        hi = _fmt(region.hi) if math.isfinite(region.hi) else "inf"
        print(f"test: {args.name}")
        print(f"n: {x.n}" + (f"  m: {x.m}" if x.m is not None else ""))
        print(f"estimate: {_fmt(region.estimate)}")
        print(f"gamma: {_fmt(region.gamma)}")
        print(f"interval: ({_fmt(region.lo)}, {hi})")
    return 0


def _report_payload(report: ExperimentReport) -> dict:
    return {
        "rate": _json_number(report.rate),
        "hits": report.hits,
        "J": report.replications,
        "band": [_json_number(report.band[0]), _json_number(report.band[1])],
        "pass": report.passed,
        "seed": report.seed,
        "stream_contract": report.stream_contract,
    }


def _grid_values(grid: str | None) -> list[float]:
    """The quantity values of ``--grid``: finite reals."""
    if not grid:
        raise CliError("--grid is required for power experiments")
    try:
        thetas = [float(v) for v in grid.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"--grid must be a comma-separated list of reals, got {grid!r}") from None
    if not thetas:
        raise CliError("--grid is empty")
    for theta in thetas:
        if not math.isfinite(theta):
            raise CliError(f"--grid values must be finite, got {theta!r}")
    return thetas


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import montecarlo

    name, kind = args.test, args.kind
    entry = CATALOG[name]
    two_sample = entry.quantity.two_sample
    if not two_sample:
        unused = [f"--{flag}" for flag in ("mu2", "sd2") if getattr(args, flag) is not None]
        if unused:
            raise CliError(f"{name} does not use {' and '.join(unused)}")
    # The second sample defaults to the first one's size and to N(0, 1).  The
    # truth's sigmas are known, so a known sigma left out defaults to them.
    m = args.n if two_sample and args.m is None else args.m
    sd2 = 1.0 if args.sd2 is None else args.sd2
    defaults = {"sigma": args.sd, "sigma1": args.sd, "sigma2": sd2}
    given = {flag: getattr(args, flag) for flag in defaults}
    given.update({flag: defaults[flag] for flag in entry.known_sigmas if given[flag] is None})
    problem = TestProblem(*entry, args.n, m, **given)
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise CliError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    level_name = "gamma" if kind == "coverage" else "alpha"
    level = getattr(args, level_name)
    hypothesis = None
    if kind != "coverage":
        if args.null is None:
            raise CliError(f"--null is required for {kind} experiments")
        hypothesis = _build_hypothesis(name, args.null)
    # Power runs one point per grid value; coverage and size, the truth alone.
    thetas = _grid_values(args.grid) if kind == "power" else [None]
    truth = State(args.mu, args.sd)
    if two_sample:
        truth = TwoSampleState(truth, State(0.0 if args.mu2 is None else args.mu2, sd2))
    truths = [
        truth if theta is None else framework.state_with_quantity(problem, truth, theta)
        for theta in thetas
    ]
    plan = montecarlo.ExperimentPlan(problem, truths[0], level, args.reps, seed, hypothesis)
    if kind == "power":
        reports = montecarlo.power_curve(plan, truths, workers=args.workers)
    else:
        run = montecarlo.coverage_experiment if kind == "coverage" else montecarlo.size_experiment
        reports = [run(plan, workers=args.workers)]
    if args.json:
        payloads = [_report_payload(report) for report in reports]
        print(json.dumps(payloads if kind == "power" else payloads[0]))
        return 0
    print(f"{kind} experiment: {name}  {level_name}: {_fmt(level)}")
    for theta, report in zip(thetas, reports):
        print(
            ("" if theta is None else f"theta: {_fmt(theta)}  ")
            + f"rate: {_fmt(report.rate)}  hits: {report.hits}/{report.replications}"
            f"  band: ({_fmt(report.band[0])}, {_fmt(report.band[1])})"
            f"  pass: {'yes' if report.passed else 'no'}  seed: {report.seed}"
        )
    return 0


# The keywords of argparse's add_argument for each argument a subcommand
# takes, in the order of its help; the one list of them that both parsers read.
# A metavar lets argparse wrap the test names, which it never breaks in a
# {choice,...} list.
_NAMES = dict(choices=tuple(CATALOG), metavar="NAME", help=f"catalog test: {', '.join(CATALOG)}")
_FILE_POSITIONALS = ("name", _NAMES), ("data", dict(help="data file (1 or 2 columns, CSV or whitespace)"))
_NUISANCE = (
    ("--sigma", dict(type=float, help="known population sd (known-sigma mean tests)")),
    ("--sigma1", dict(type=float, help="known sd of the first sample")),
    ("--sigma2", dict(type=float, help="known sd of the second sample")),
    ("--json", dict(action="store_true", default=False, help="emit JSON")),
)

# Each subcommand: its help line, its handler and its arguments.
_COMMANDS = {
    "test": ("run a hypothesis test on a data file", _cmd_test, (
        *_FILE_POSITIONALS,
        ("--null", dict(type=float, required=True, help="null value")),
        ("--alpha", dict(type=float, default=0.05, help="significance level")),
        *_NUISANCE,
    )),
    "ci": ("confidence interval from a data file", _cmd_ci, (
        *_FILE_POSITIONALS,
        ("--gamma", dict(type=float, default=0.95, help="confidence level")),
        *_NUISANCE,
    )),
    "experiment": ("Monte Carlo coverage/size/power", _cmd_experiment, (
        ("kind", dict(choices=("coverage", "size", "power"))),
        ("--test", dict(required=True, **_NAMES)),
        ("--n", dict(type=int, default=10, help="first sample size")),
        ("--m", dict(type=int, help="second sample size (two-sample tests)")),
        ("--mu", dict(type=float, default=0.0, help="true mean")),
        ("--sd", dict(type=float, default=1.0, help="true sd")),
        ("--mu2", dict(type=float, help="true mean, second sample")),
        ("--sd2", dict(type=float, help="true sd, second sample")),
        ("--gamma", dict(type=float, default=0.95, help="confidence level (coverage)")),
        ("--alpha", dict(type=float, default=0.05, help="significance level (size/power)")),
        ("--null", dict(type=float, help="null value (size/power)")),
        ("--grid", dict(help="comma-separated quantity values (power); write a grid "
                             "that starts with a negative value as --grid=-0.5,0,1")),
        ("--reps", dict(type=int, default=10000, help="replications")),
        ("--seed", dict(type=int, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")),
        ("--workers", dict(type=int, default=1, help="parallel workers")),
        *_NUISANCE,
    )),
}


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes of the namespace the full parser returns for a plain
    call, read from the command's arguments without importing argparse;
    None for any other call.

    A plain call is a command, then exactly its positionals, then only its
    flags, spelled out; every value passes its type and choices, none starts
    with '-' (argparse versions read those differently), and no required
    flag is missing.  Help, abbreviations, '=' forms and '--' are not plain."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    table = dict(arguments)
    values = {name.lstrip("-"): kw.get("default") for name, kw in arguments}
    words = iter(argv[1:])
    try:
        # A missing positional or value reads as "-", which is refused.
        for name in [name for name in table if name[0] != "-"]:
            values[name] = _plain_value(table[name], next(words, "-"))
        for word in words:
            if word not in table or word[0] != "-":
                return None
            values[word[2:]] = "action" in table[word] or _plain_value(table[word], next(words, "-"))
    except ValueError:
        return None
    if any(kw.get("required") and values[name[2:]] is None for name, kw in arguments):
        return None
    return SimpleNamespace(**values, func=handler, command=argv[0])


def _plain_value(keywords: dict, word: str):
    """``word`` as argparse converts it; ValueError where a plain call refuses it."""
    value = keywords.get("type", str)(word)
    if word[:1] == "-" or value not in keywords.get("choices", (value,)):
        raise ValueError(word)
    return value


def build_parser() -> argparse.ArgumentParser:
    """The full parser: ``semidist`` with its three subcommands."""
    import argparse
    import shutil
    import textwrap

    class _HelpFormatter(argparse.HelpFormatter):
        """argparse's formatter, except that help text never breaks a line
        inside a hyphenated word such as a test name."""

        def _split_lines(self, text: str, width: int) -> list[str]:
            return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)

    # argparse's default width, looked up once, not once per formatter it makes.
    formatter = functools.partial(_HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="semidist",
        description="Catalog hypothesis tests, confidence intervals, and "
        "Monte Carlo coverage/size experiments for the normal model.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (line, handler, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=line, formatter_class=formatter)
        for name, keywords in arguments:
            command_parser.add_argument(name, **keywords)
        command_parser.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); return its exit code.

    A plain call (see ``_plain_args``) is read from its command's table
    without argparse.  The full parser parses any other call, and so prints
    every help text, usage and parse error."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
