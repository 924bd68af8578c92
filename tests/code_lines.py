"""Code lines of each module of ``src/semidist`` (not collected by pytest).

A code line holds a token that is neither a comment nor a docstring; blank
lines do not count.  A docstring is a string that stands alone as a
statement.  Each module's count is printed beside its ``wc -l`` line
count, then the totals:

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semidist"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total_code = total_all = 0
    print(f"{'code':>6} {'wc -l':>6} module")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        code, every = code_lines(source), len(source.splitlines())
        total_code, total_all = total_code + code, total_all + every
        print(f"{code:6d} {every:6d} {path.relative_to(PACKAGE.parent.parent)}")
    print(f"{total_code:6d} {total_all:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
