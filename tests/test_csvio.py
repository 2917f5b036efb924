import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab._csvio import csv_text, read_numeric_csv, write_csv
from marginlab.errors import ConfigError


def _old_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _old_csv_text(header, rows) -> str:
    """The per-cell formatter every ``mw`` table was written with before
    the row-at-a-time writer; kept here as the writer's oracle."""
    lines = [",".join(header)]
    lines.extend(",".join(_old_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


_CELL = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(), st.text(max_size=5),
                  st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 1, 0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(header=st.lists(st.text(max_size=4), min_size=1, max_size=4),
       rows=st.lists(st.lists(_CELL, max_size=6).map(tuple), max_size=6))
def test_csv_text_matches_per_cell_formatter(header, rows):
    assert csv_text(header, rows) == _old_csv_text(header, rows)


def test_write_csv_leaves_no_file_when_a_row_fails(tmp_path):
    class Unprintable:
        def __str__(self):
            raise ValueError("no text")

    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [(1.5,), (Unprintable(),)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, header", [
    ("a,b\n1,2\n3,4\n", ["a", "b"]),
    ("1,2\n3,4\n", None),
    ("1_0,2\n1,2\n3,4\n", ["1_0", "2"]),   # not numeric, so a header
    ("\n\n a,b\r\n1,2\r\n\r\n3,4", ["a", "b"]),
])
def test_reader_header_rule(tmp_path, text, header):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    got_header, values = read_numeric_csv(path)
    assert got_header == header
    assert values.dtype == np.float64
    assert values[-2:].tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV"),
    (" \n\t\n", "empty CSV"),
    ("a,b\n1,2\n3,x\n", "data row 2: 'x' is not a number"),
    ("a,b\n1,2\n\n3\n", "data row 2 has 1 cells, the header 2"),
    ("1,2\n3,4,5\n", "data row 2 has 3 cells, data row 1 has 2"),
    ("a,b,c\n1,2\n", "data row 1 has 2 cells, the header 3"),
])
def test_reader_names_the_file_and_bad_row(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as info:
        read_numeric_csv(path)
    assert str(path) in str(info.value)


def test_reader_header_only_gives_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n\n")
    header, values = read_numeric_csv(path)
    assert header == ["a", "b", "c"]
    assert values.shape == (0, 3)
