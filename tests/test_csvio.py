import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab._atomic import write_file
from marginlab._csvio import csv_text, read_numeric_csv
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
    the column writer; kept here as the writer's oracle."""
    lines = [",".join(header)]
    lines.extend(",".join(_old_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(st.floats(),
                    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5]))
# each kind of column: its cell values and how the writer is given them
_COLUMN_KINDS = {
    "float": (_FLOATS, lambda v: np.array(v, dtype=np.float64)),
    "int": (st.integers(-2 ** 63, 2 ** 63 - 1),
            lambda v: np.array(v, dtype=np.int64)),
    "bool": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "object": (st.integers() | st.text(max_size=5),
               lambda v: np.array(v, dtype=object)),
    # a numpy str array drops trailing NULs, so these strings have none
    "str": (st.text(st.characters(blacklist_characters="\x00"), max_size=5),
            lambda v: np.array(v, dtype=str)),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 200))  # past one block of rows
    header, columns, cells = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(_COLUMN_KINDS)))
        values_of, as_column = _COLUMN_KINDS[kind]
        values = draw(st.lists(values_of, min_size=n, max_size=n))
        column = as_column(values)
        if draw(st.booleans()):
            missing = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            column = (column, np.array(missing, dtype=bool))
            values = [None if m else v for v, m in zip(values, missing)]
        header.append(draw(st.text(max_size=4)))
        columns.append(column)
        cells.append(values)
    return header, columns, list(zip(*cells)) if n else []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_tables())
def test_csv_text_matches_per_cell_formatter(table):
    header, columns, rows = table
    assert csv_text(header, columns) == _old_csv_text(header, rows)


def test_csv_columns_of_different_lengths_are_refused(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_file(tmp_path / "t.csv", csv_text(
            ["a", "b"], [np.arange(3), np.arange(2.0)]))
    assert list(tmp_path.iterdir()) == []


def test_a_csv_row_that_fails_to_format_leaves_no_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise ValueError("no text")

    # the bad cell lies past the first block of rows, so part of the table
    # has been formatted when it fails
    cells = np.array([1.5] * 1000 + [Unprintable()], dtype=object)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="no text"):
        write_file(path, csv_text(["a"], [cells]))
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
