"""CSV tables: the one numeric reader and the one writer behind every CSV
file the package reads or writes.

The reader parses a whole file body in one numpy call, whose parser rounds
each cell exactly as ``float()`` does; the writer joins a row's cells in
one pass, a float as its ``repr``, so a table written here reads back into
the same bits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .errors import ConfigError


def _parse(lines) -> np.ndarray:
    """The comma-separated numeric ``lines`` as a float64 matrix, empty
    lines skipped; ValueError on a cell that is not a number or on a line
    whose cell count differs from the first's."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                      dtype=np.float64)


def _is_number(cell: str) -> bool:
    try:
        return bool(cell.strip()) and _parse([cell]).size == 1
    except ValueError:
        return False


def _scan(path, lines: list[str], header: list[str] | None) -> np.ndarray:
    """``lines`` parsed one at a time, run only when the one-call parse
    failed or disagreed with the header: it names the first bad data row,
    or returns the matrix when the only fault was a whitespace-only line,
    which it skips."""
    rows: list[np.ndarray] = []
    for line in lines:
        if not line.strip():
            continue
        k = len(rows) + 1
        try:
            row = _parse([line])[0]
        except ValueError:
            bad = next((c for c in line.split(",") if not _is_number(c)),
                       line)
            raise ConfigError(f"{path}: data row {k}: {bad.strip()!r} is "
                              f"not a number") from None
        if header is not None and row.size != len(header):
            raise ConfigError(f"{path}: data row {k} has {row.size} cells, "
                              f"the header {len(header)}")
        if rows and row.size != rows[0].size:
            raise ConfigError(f"{path}: data row {k} has {row.size} cells, "
                              f"data row 1 has {rows[0].size}")
        rows.append(row)
    return np.array(rows)


def read_numeric_csv(path) -> tuple[list[str] | None, np.ndarray]:
    """The header (None when there is none) and the data rows of a numeric
    CSV file, as a float64 matrix.

    The file is UTF-8 text, and blank lines are skipped. The first other
    line is the header unless every cell of it is a number. A cell is a
    number when numpy's text parser reads it: decimal or exponent notation
    with an optional sign, ``nan`` or ``inf``, surrounding spaces allowed;
    not quoted, not with ``_`` digit separators and not with non-ASCII
    digits. Every data row holds as many cells as the header, or as the
    first data row when there is no header. ConfigError names the file
    and, for a bad row, its number among the data rows, counting from 1.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    body = text.lstrip()
    first, _, rest = body.partition("\n")
    if not first:
        raise ConfigError(f"{path}: empty CSV")
    header = None
    try:
        _parse([first])
    except ValueError:
        header, body = first.split(","), rest
        if not body.strip():
            return header, np.empty((0, len(header)))
    lines = body.split("\n")
    try:
        values = _parse(lines)
        if header is None or values.shape[1] == len(header):
            return header, values
    except ValueError:
        pass
    return header, _scan(path, lines, header)


# how a cell is written when its str() is not what the reader takes back;
# the str() of a float is its repr
_SPECIAL = {type(None): lambda _: "",
            bool: lambda value: "true" if value else "false"}


def csv_text(header, rows) -> str:
    """The table as CSV text: a one-line header, then one line per row,
    with a bool written ``true``/``false`` and None as an empty cell."""
    lines = [",".join(header)]
    lines += [",".join([_SPECIAL.get(type(c), str)(c) for c in row])
              for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    """Write the table atomically; a row that fails to format leaves the
    file at ``path`` as it was."""
    text = csv_text(header, rows)
    with atomic_open(path) as fh:
        fh.write(text)
