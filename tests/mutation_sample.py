"""A sampled mutation check of the test suite (not collected by pytest).

Each site is one arithmetic or comparison operator in ``src/semidist``
(every module but ``__init__.py``): a binary ``+ - * /`` or a comparison
with a single ``< <= > >= == !=``, outside f-strings.  A mutant flips one of them
(``+``<->``-``, ``*``<->``/``, ``<``<->``<=``, ``>``<->``>=``,
``==``<->``!=``) in a copy of the repository and runs the tests there
with ``-x``; a mutant the tests pass on survives.  Sites are named
``module:line:column`` by the operator's own position, and ``--sample``
draws them with ``random.Random(seed).sample`` over the sites in module
order, then ``ast.walk`` order within a module.

    python tests/mutation_sample.py WORKDIR --sample 40 --seed 20261020
    python tests/mutation_sample.py WORKDIR --sites distributions.py:145 \\
        inference.py:190:35 -- tests/test_distributions.py tests/test_inference.py
    python tests/mutation_sample.py WORKDIR --control

A site given as ``module:line`` takes every operator on that line.
Arguments after ``--`` go to pytest (default: the whole suite).  WORKDIR
holds the copies and must lie outside the repository; the repository
itself is never written.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "semidist"
FLIPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}


@dataclass(frozen=True)
class Site:
    module: str
    line: int
    col: int
    old: str
    new: str

    @property
    def name(self) -> str:
        return f"{self.module}:{self.line}:{self.col}"


def _operator_token(tokens, start, end, text):
    """The position of the ``text`` operator token between two positions,
    or None inside an f-string, which tokenizes as one string."""
    for tok in tokens:
        if tok.type == tokenize.OP and tok.string == text and start <= tok.start < end:
            return tok.start
    return None


def sites(root: Path = REPO) -> list[Site]:
    """Every site, in module order and then ``ast.walk`` order."""
    out = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.BinOp) and type(node.op) in FLIPS:
                left, right, op = node.left, node.right, node.op
            elif isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in FLIPS:
                left, right, op = node.left, node.comparators[0], node.ops[0]
            else:
                continue
            old, new = FLIPS[type(op)]
            start = (left.end_lineno, left.end_col_offset)
            where = _operator_token(tokens, start, (right.lineno, right.col_offset), old)
            if where is not None:
                out.append(Site(path.name, *where, old, new))
    return out


def _mutant_copy(workdir: Path, site: Site | None) -> Path:
    """A fresh copy of the repository's sources and tests under
    ``workdir``, with ``site`` flipped."""
    copy = workdir / "tree"
    if copy.exists():
        shutil.rmtree(copy)
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "pyproject.toml", copy / "pyproject.toml")
    if site is not None:
        path = copy / PACKAGE / site.module
        lines = path.read_text().splitlines(keepends=True)
        text = lines[site.line - 1]
        assert text[site.col : site.col + len(site.old)] == site.old, site
        lines[site.line - 1] = text[: site.col] + site.new + text[site.col + len(site.old) :]
        path.write_text("".join(lines))
    return copy


def _run(copy: Path, pytest_args: list[str], timeout: float) -> str:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    try:
        done = subprocess.run(command, cwd=copy, capture_output=True, timeout=timeout,
                              env={**os.environ, "PYTHONPATH": str(copy / "src")})
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def _select(all_sites: list[Site], names: list[str]) -> list[Site]:
    chosen = []
    for name in names:
        module, line, *col = name.split(":")
        found = [s for s in all_sites
                 if s.module == module and s.line == int(line) and (not col or s.col == int(col[0]))]
        if not found:
            raise SystemExit(f"no site {name}")
        chosen += sorted(found, key=lambda s: s.col)
    return chosen


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = argv[argv.index("--") + 1 :] if "--" in argv else []
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--sample", type=int, help="draw this many sites")
    parser.add_argument("--seed", type=int, default=20261020)
    parser.add_argument("--sites", nargs="+", default=[], help="module:line[:column]")
    parser.add_argument("--control", action="store_true", help="run the unmutated copy")
    parser.add_argument("--list", action="store_true", help="print the chosen sites only")
    parser.add_argument("--timeout", type=float, default=900.0)
    args = parser.parse_args(argv[: argv.index("--")] if "--" in argv else argv)
    workdir = args.workdir.resolve()
    if workdir == REPO or REPO in workdir.parents:
        raise SystemExit("WORKDIR must lie outside the repository")
    all_sites = sites()
    chosen = _select(all_sites, args.sites)
    if args.sample:
        chosen += random.Random(args.seed).sample(all_sites, args.sample)
    print(f"{len(all_sites)} sites, {len(chosen)} chosen", flush=True)
    if args.control:
        print("control", _run(_mutant_copy(workdir, None), pytest_args, args.timeout), flush=True)
    for site in chosen:
        result = "listed" if args.list else _run(_mutant_copy(workdir, site), pytest_args, args.timeout)
        print(f"{site.name} {site.old} -> {site.new} {result}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
