import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import _csvio
from marginlab._atomic import write_file
from marginlab._csvio import _float_slots, csv_text, read_numeric_csv
from marginlab.errors import ConfigError


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes a field under QUOTE_MINIMAL."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, "x"])
    return buf.getvalue()[:-len(",x\r\n")]


def _old_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return _csv_field(value)
    return str(value)


def _old_csv_text(header, rows) -> str:
    """The per-cell formatter every ``mw`` table was written with before
    the column writer, with text cells quoted as the csv module quotes
    them; kept here as the writer's oracle."""
    lines = [",".join(map(_csv_field, header))]
    lines.extend(",".join(_old_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _texts(values) -> list[str]:
    """The kernel's text for each of ``values``."""
    slots = _float_slots(np.asarray(values, dtype=np.float64))
    lines = np.column_stack([slots, np.full(len(slots), ord("\n"),
                                            dtype=np.uint8)])
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    expected = list(map(repr, values.tolist()))
    got = _texts(values)
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not bad, bad[:5]


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


# ---------------------------------------------------------------------------
# the float kernel against repr


def _fixed_range_bits(rng, n):
    """Random doubles whose exponents lie where repr writes fixed
    notation, 2^-14 to 2^54, with either sign."""
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 54, size=n, dtype=np.uint64)
    bits &= np.uint64(2 ** 63 + 2 ** 52 - 1)
    return bits | (exponent << np.uint64(52))


def test_float_kernel_matches_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    _assert_matches_repr(rng.integers(0, 2 ** 64, size=100_000,
                                      dtype=np.uint64).view(np.float64))
    _assert_matches_repr(_fixed_range_bits(rng, 100_000).view(np.float64))


def test_float_kernel_matches_repr_on_short_decimals():
    # values with few significant digits, where the shortest candidate is
    # far shorter than 17 digits
    rng = np.random.default_rng(7)
    digits = rng.integers(1, 10 ** 6, size=50_000)
    scale = 10.0 ** rng.integers(-10, 16, size=50_000)
    _assert_matches_repr(digits * scale)
    _assert_matches_repr([float(f"{d}e{e}") for d, e in zip(
        digits.tolist(), rng.integers(-10, 12, size=50_000).tolist())])


def _edge_values() -> list[float]:
    two53 = 2.0 ** 53
    values = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1.7976931348623157e308,
              two53 - 1, two53, two53 + 2, 9007199254740993.0,
              1e16, 1e-4, 1e-5, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.5,
              4503599627370495.5, 4503599627370496.5, 123456789012345680.0,
              math.pi, math.e, math.inf, math.nan]
    values += [2.0 ** e for e in range(-1074, 1024)]
    values += [float(f"1e{e}") for e in range(-323, 309)]
    values += [float(d * 10 ** z) for d in (1, 7, 12, 999, 123456789)
               for z in range(16)]
    for edge in (1e16, 1e-4, 1e-5, two53, 1.0, 0.1):
        below = edge
        for _ in range(3):
            below = np.nextafter(below, 0.0)
            values.append(float(below))
        above = edge
        for _ in range(3):
            above = np.nextafter(above, np.inf)
            values.append(float(above))
    return values + [-v for v in values]


def test_float_kernel_matches_repr_on_edge_values():
    _assert_matches_repr(_edge_values())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=50))
def test_float_kernel_matches_repr_on_any_floats(values):
    _assert_matches_repr(values)


def test_float_kernel_formats_the_fixed_range_itself(monkeypatch):
    # the oracle tests would pass if every value fell back to repr, so
    # count the fallbacks on values inside the kernel's range: only a
    # non-integer with a power-of-two significand, or an exact tie between
    # two shortest candidates, goes to repr
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(_csvio, "repr", counting_repr, raising=False)
    rng = np.random.default_rng(3)
    values = np.concatenate([
        _fixed_range_bits(rng, 20_000).view(np.float64),
        np.arange(-500, 500, dtype=np.float64),
        [0.5, 0.25, -1.5, 3.0]])
    values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
    _assert_matches_repr(values)
    for value in calls:
        exact, text = Fraction(value), repr(value)
        unit = Fraction(1, 10 ** len(text.partition(".")[2]))
        power_of_two = exact.numerator in (1, -1)
        assert power_of_two or 2 * abs(exact - Fraction(text)) == unit, text
    assert 0.5 in calls and 0.25 in calls and len(calls) < len(values) / 20


# ---------------------------------------------------------------------------
# tables on the array path


def test_a_table_past_the_crossover_matches_the_per_cell_formatter():
    rng = np.random.default_rng(11)
    n = 2500  # two blocks of the array path
    floats = np.concatenate([
        rng.normal(size=n - 8) * 10.0 ** rng.integers(-6, 18, size=n - 8),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5]])
    halves = rng.normal(size=n).astype(np.float32)
    big_ints = rng.integers(-2 ** 63, 2 ** 63, size=n)
    unsigned = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    small_ints = rng.integers(-10 ** 8 + 1, 10 ** 8, size=n)
    flags = rng.random(n) < 0.5
    names = np.array(rng.choice(["converged", "max-iters", 'a,"b"',
                                 "x\ny", "é"], size=n))
    objects = np.array([int(v) if k % 3 else f"t{v}"
                        for k, v in enumerate(small_ints)], dtype=object)
    missing = rng.random(n) < 0.2
    columns = [np.arange(n), (floats, missing), halves, big_ints,
               (small_ints, ~missing), flags, (names, missing), objects,
               unsigned]
    cells = [np.arange(n).tolist(), floats.tolist(), halves.tolist(),
             big_ints.tolist(), small_ints.tolist(), flags.tolist(),
             names.tolist(), objects.tolist(), unsigned.tolist()]
    for k, mask in ((1, missing), (4, ~missing), (6, missing)):
        cells[k] = [None if m else v for v, m in zip(cells[k], mask)]
    header = ["i", "f,64", "f32", "big", "small", "flag", 'na"me', "obj",
              "u64"]
    assert 2 * n >= max(_csvio._ARRAY_FLOATS, _csvio._BLOCK_FLOATS + 1)
    text = csv_text(header, columns)
    assert text == _old_csv_text(header, list(zip(*cells)))
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == header
    assert [r[6] for r in rows[1:]] == ["" if m else v for v, m in
                                        zip(names.tolist(), missing)]


def test_a_nul_in_a_text_cell_survives_the_array_path():
    n = _csvio._ARRAY_FLOATS
    names = np.array(["a\0b"] + ["c"] * (n - 1), dtype=object)
    text = csv_text(["x", "name"], [np.full(n, 0.5), names])
    assert text.splitlines()[1] == "0.5,a\0b"
    assert text == _old_csv_text(["x", "name"],
                                 list(zip([0.5] * n, names.tolist())))


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
