"""Differential tests of ``cli.read_columns`` against the per-line parser it
replaced (``per_line_columns``): on every file, both give bit-equal columns
or the identical ``CliError`` text."""

import pytest
from hypothesis import given, strategies as st

import per_line_columns
from semidist import cli

EMPTY_FIELD_ROWS = [",", " , ", ",,", ",5", "5,", " ,5"]

CORPUS = {
    "header": "x\n1\n2.5\n",
    "no header": "1\n2.5\n-3\n",
    "header, two columns": "x,y\n1,2\n3,4\n",
    "no header, two columns": "1,2\n3,4\n",
    "header after blank lines": "\n  \nx\n1\n2\n",
    "blank and whitespace-only lines": "\n1\n\n  \n2\n\t\n\xa0\n3\n\n",
    "blank lines, two columns": "x,y\n\n1,2\n \n3,4\n\n",
    # A line of whitespace alone sends the file to the per-line scan.  \x0b
    # ends a line, as \n does.
    "whitespace line before a header": " \t \nx\n1\n2\n",
    "whitespace line before a comma header": "\t\nx,y\n1,2\n3,4\n",
    "tab line before data": "\t\n1\n2\n",
    "whitespace lines between rows": "1\n \t\n2\n\x0b\n3\n\t\t\n4\n",
    "whitespace lines between rows, two columns": "x,y\n1,2\n\t\n3,4\n \x0b \n5,6\n",
    "trailing whitespace lines": "x\n1\n2\n \n\t\n",
    "trailing whitespace lines, two columns": "1,2\n3,4\n\t \n\x0b\n",
    "vertical tab lines, two columns": "\x0b1,2\x0b\x0b3,4\x0b",
    "two headers, whitespace line after them": "x\ny\n \n1\n",
    "header, whitespace line, bad line": "x\n1\n \nq\n",
    "crlf": "x,y\r\n1,2\r\n3,4\r\n",
    "cr": "1\r2\r3",
    "form feed and line separator": "1\x0c2\u20283\x1e4\x855\n",
    "tabs and nbsp": "\t1.5\t\n\xa02\xa0\n 3 \n",
    "tabs and nbsp around commas": "1\t,\xa02\n3 ,4\n",
    "spaces around commas": "x, y\n1 , 2\n3,4 \n",
    "second column ends early": "x,y\n1,2\n3,4\n5\n6\n",
    "one-value rows interleaved": "1,2\n3\n4,5\n6\n7,8\n",
    "comma header, one column": "x,y\n1\n2\n",
    "whitespace two columns": "1.0 2.0\n2.0 4.0\n3.0 6.0\n",
    "whitespace two columns, header": "x y\n1 2\n3\t4\n",
    "mixed separators": "1,2\n3 4\n",
    "mixed separators, whitespace first": "1 2\n3,4\n5\n",
    "three columns, commas": "1,2,3\n4,5,6\n",
    "three columns, whitespace": "1 2 3\n",
    "three columns after data": "x\n1,2\n3,4,5\n",
    "three columns after a bad line": "x\n1\nbad\n1,2,3\n",
    "underscores": "1_000\n2_5.0_1\n",
    "non-ascii digits": "١٢\n３.5\n१\n",
    "nan": "x\n1.0\n\n2.5\nnan\n3.0\n",
    "inf in second column": "1,2\n3,inf\n4,5\n",
    "minus inf": "-inf\n1\n",
    "NaN header": "NaN\n1\n",
    "overflowing sum": "1e308\n1.5e308\n-3e307\n",
    "overflowing sum, two columns": "1e308,1e308\n1e308,-1\n",
    "repr floats": "".join(
        f"{v!r}\n" for v in (0.1, 1 / 3, -2.718281828459045, 5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, -0.0, 123456789.12345679)
    ),
    "repr floats, two columns": "0.1,0.30000000000000004\n1e-300,-1.0000000000000002\n",
    "long, second column ends early": "x,y\n" + "".join(
        f"{k / 7!r},{-k / 3!r}\n" if k < 4500 else f"{k / 7!r}\n" for k in range(5000)
    ),
    "long, one-value rows interleaved": "".join(
        f"{k},{k + 0.5}\n" if k % 3 else f"{k}\n" for k in range(5000)
    ),
    "long, three columns late": "".join(f"{k},{k}\n" for k in range(4500)) + "1,2,3\n",
    "long, bad line late": "".join(f"{k}\n" for k in range(4500)) + "q\n",
    "header only": "x\n",
    "comma header only": "x,y\n",
    "empty file": "",
    "blank file": "\n \n\t\n",
    "two headers": "x\ny\n1\n",
    "unparseable line": "header\n1.0\nnot-a-number\n",
    "unparseable data first": "1\nx\n",
    "bad two-column line": "x,y\n1,2\n3,z\n",
    "whitespace pair with a bad token": "1 2\n3 q\n",
    **{f"empty field {row!r}": f"x,y\n1,2\n{row}\n3,4\n" for row in EMPTY_FIELD_ROWS},
    "empty field first ',5'": ",5\n1,2\n3,4\n",
    "empty field first ',y'": ",y\n1,2\n3,4\n",
}


def _outcome(read, path):
    try:
        col1, col2 = read(path)
    except cli.CliError as exc:
        return "error", str(exc)
    return [v.hex() for v in col1], [v.hex() for v in col2]


def _assert_same(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(cli.read_columns, str(path)) == _outcome(
        per_line_columns.read_columns, str(path)
    )


@pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS.keys())
def test_corpus_matches_the_per_line_parser(tmp_path, text):
    _assert_same(tmp_path / "data.csv", text)


VALUES = st.one_of(
    st.sampled_from(["1", "-2.5", "1e308", "-1e308", "0.1", "nan", "inf", "-inf", "1_000",
                     "١٢", "5e-324", "-0.0"]),
    st.floats(allow_nan=False).map(repr),
)
JUNK = st.sampled_from(["x", "y", "", " ", "\t", "\xa0", "1 2", "a,b"])
SEPARATORS = st.sampled_from([",", " , ", ", ", " ", "\t", "\xa0", ",,", "\t,"])
PADS = st.sampled_from(["", "", " ", "\t", "\xa0"])
BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028", "\n\n"])


@st.composite
def _lines(draw, tokens):
    parts = draw(st.lists(tokens, min_size=0, max_size=3))
    line = draw(PADS) + (parts[0] if parts else "")
    for part in parts[1:]:
        line += draw(SEPARATORS) + part
    return line + draw(PADS)


@st.composite
def _files(draw):
    tokens = draw(st.sampled_from([VALUES, st.one_of(VALUES, JUNK)]))
    header = draw(st.sampled_from(["", "", "x\n", "x,y\n", "x y\n"]))
    lines = draw(st.lists(_lines(tokens), max_size=10))
    return header + "".join(line + draw(BREAKS) for line in lines)


@st.composite
def _well_formed_files(draw):
    """Well-formed files: one value or two comma-separated values per row,
    with blank lines mixed in, and one-value rows that end a second column
    early, which the per-line scan reads."""
    one = st.tuples(PADS, VALUES, PADS).map("".join)
    two = st.tuples(one, st.sampled_from([",", " , ", "\t,"]), one).map("".join)
    width = draw(st.sampled_from([one, two, st.one_of(two, one), st.one_of(two, st.just(" "))]))
    header = draw(st.sampled_from(["", "x\n", "x,y\n", "\n x, y \n"]))
    lines = draw(st.lists(width, min_size=1, max_size=12))
    return header + "".join(line + draw(BREAKS) for line in lines)


@given(text=st.one_of(_files(), _well_formed_files()))
def test_generated_files_match_the_per_line_parser(tmp_path_factory, text):
    _assert_same(tmp_path_factory.mktemp("generated") / "data.csv", text)
