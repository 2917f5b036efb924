"""CSV tables: the one numeric reader and the one formatter behind every
CSV file the package reads or writes.

The reader parses a whole file body in one numpy call, whose parser rounds
each cell exactly as ``float()`` does. The formatter takes a table as columns
and formats each column once by its dtype, a float as its ``repr``, so a
table written here reads back into the same bits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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


# rows formatted per step: only one block's cell strings are held at once
_BLOCK_ROWS = 128


def _cells(values: np.ndarray, missing: np.ndarray | None) -> list[str]:
    """One column's cells as text, formatted once for the whole column by
    its dtype: a float as its ``repr``, a bool as ``true``/``false``,
    anything else (int, str, object) by ``str``; a missing cell is empty."""
    kind = values.dtype.kind
    if kind == "b":
        cells = np.where(values, "true", "false").tolist()
    else:
        cells = list(map(repr if kind == "f" else str, values.tolist()))
    if missing is not None:
        for k in np.flatnonzero(missing).tolist():
            cells[k] = ""
    return cells


def _optional(values, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as one table column, a None among them a missing cell."""
    return (np.array([0 if v is None else v for v in values], dtype=dtype),
            np.array([v is None for v in values], dtype=bool))


def _texts(values) -> np.ndarray:
    """``values`` as a table column written by ``str``: an object array,
    which keeps every Python int and every string as it is."""
    return np.array(values, dtype=object)


def csv_text(header, columns) -> str:
    """The table as CSV text: a one-line header, then one line per row.

    Each column is a NumPy array, or a ``(values, missing)`` pair of arrays
    whose boolean ``missing`` marks the cells written empty; see ``_cells``
    for how a cell is written.
    """
    pairs = [c if isinstance(c, tuple) else (c, None) for c in columns]
    rows = {len(values) for values, _ in pairs}
    if len(rows) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(rows)}")
    blocks = [",".join(header) + "\n"]
    for i in range(0, rows.pop() if rows else 0, _BLOCK_ROWS):
        j = i + _BLOCK_ROWS
        cells = [_cells(values[i:j], None if missing is None else missing[i:j])
                 for values, missing in pairs]
        blocks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(blocks)
