"""The per-line data-file parser that ``cli.read_columns`` replaced, kept
as the reference for the differential tests of the bulk parser: a Python
loop that parses every line with ``float`` and appends to the columns.
Neither checks that a value is finite: ``Sample`` does."""

from semidist.cli import CliError


def read_columns(path: str) -> tuple[list[float], list[float]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read data file {path!r}: {exc}") from exc
    col1: list[float] = []
    col2: list[float] = []
    allow_header = True
    for number, raw in enumerate(lines, 1):
        try:
            values = _row_values(raw)
        except ValueError:
            if "," in raw and not all(field.strip() for field in raw.split(",")):
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
    if not col1:
        raise CliError(f"no data rows in {path!r}")
    return col1, col2


def _row_values(line: str) -> list[float]:
    return [float(p) for p in (line.split(",") if "," in line else line.split())]
