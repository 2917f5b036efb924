"""CSV tables: the one numeric reader and the one formatter behind every
CSV file the package reads or writes.

The reader parses a whole file body in one numpy call, whose parser rounds
each cell exactly as ``float()`` does. The formatter takes a table as columns
and formats each column once by its dtype, a float as the text of its
``repr``, so a table written here reads back into the same bits; a text
cell or header name holding CSV syntax is quoted as the csv module quotes
it. A table with few float cells is joined from per-cell strings. A larger
one is laid out a block of rows at a time as one byte matrix of NUL-padded
cells, commas and newlines, from which one pass drops the padding; its
float cells come from ``_float_slots``, a numpy kernel that computes
repr's shortest round-trip digits (Schubfach) on whole arrays and writes
repr's bytes without a Python call per cell.
"""

from __future__ import annotations

import functools
import re
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


# ---------------------------------------------------------------------------
# float64 values as the bytes of their repr, computed on whole arrays

_U = np.uint64
_M32, _M63 = _U(2 ** 32 - 1), _U(2 ** 63 - 1)
_MANTISSA, _HIDDEN = _U(2 ** 52 - 1), _U(2 ** 52)
_POW10 = 10 ** np.arange(20, dtype=_U)
_E4, _E8 = _U(10 ** 4), _U(10 ** 8)
# a slot holds 11 four-byte words: the sign, 16 integer digits as four
# 4-digit groups, the point, 20 fraction digits as five groups. A word is
# its index into the table of ``_slot_words``: a group's value plus the
# offset of the section that writes it, or one of the single words
_SLOT = 44
_LEAD, _TRAIL = 10000, 20000
_DOT, _MINUS, _NUL = 30000, 30001, 30002     # a NUL word follows "-"
_UNITS, _TENTHS = 30003, 30004              # "0" alone, as units or tenths


@functools.cache
def _slot_words() -> np.ndarray:
    """The four bytes of every slot word, built on first use. Sections of
    10000 write the groups "0000" to "9999": in full; with leading zeros
    as NULs (``_LEAD``, a group before which the integer part has only
    zeros); with trailing zeros as NULs (``_TRAIL``, a group after which
    the fraction has only zeros). Both write group 0 as four NULs. Then
    the point and the minus sign, each after three NULs, four NULs, and
    the zero group that keeps its units digit (``_UNITS``) and the one
    that keeps its tenths digit (``_TENTHS``)."""
    words = np.zeros((30005, 4), dtype=np.uint8)
    group = np.arange(10000, dtype=np.uint16)
    for place, scale in enumerate((1000, 100, 10, 1)):
        text = group // scale % 10 + ord("0")
        words[:_LEAD, place] = text
        # shown after a nonzero digit before it, or before one after it
        words[_LEAD:_TRAIL, place] = text * (group >= scale)
        words[_TRAIL:_DOT, place] = text * (group % (10 * scale) != 0)
    words[_DOT, 3], words[_MINUS, 3] = ord("."), ord("-")
    words[_UNITS, 3] = words[_TENTHS, 0] = ord("0")
    return words.view(np.uint32).ravel()


@functools.cache
def _exponent_entry(e: int) -> tuple[int, ...]:
    """Schubfach's constants for the binary exponent q = e - 1075 of a
    double with biased exponent ``e``, for -66 <= q <= -1: -k, where
    k = floor(q log10 2) is the decimal exponent, the shift h, and g, the
    126-bit estimate of 10^-k from above (Giulietti 2020, sections 9.8 and
    9.9), as the 32-bit halves of its two 63-bit words and its top word."""
    q = e - 1075
    k = (q * 661971961083) >> 41            # floor(q log10 2)
    p = 10 ** -k                            # k < 0: an exact integer
    h = q + p.bit_length() - 1 + 2          # q + floor(-k log2 10) + 2
    g = (p << (126 - p.bit_length())) + 1   # floor(10^-k 2^-r) + 1
    g1, g0 = g >> 63, g & (2 ** 63 - 1)
    return -k, h, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF, g1


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of the 128-bit products (a1 2^32 + a0) *
    (b1 2^32 + b0), from the 32-bit halves, for a1 < 2^31 and b1 < 2^27,
    where the middle sum cannot overflow."""
    return a1 * b1 + ((a1 * b0 + a0 * b1 + ((a0 * b0) >> _U(32))) >> _U(32))


def _shortest_digits(bits):
    """The shortest decimal digits f, and the count fd of them after the
    point (the value is f 10^-fd), of the doubles whose bit patterns are
    ``bits``: Schubfach's search of the rounding interval, which picks the
    candidate closer to the value when two of one length round to it.
    Every value must be normal, not an integer and without a power-of-two
    significand, with a binary exponent q in [-66, -1]. ``tie`` marks the
    values midway between two shortest candidates; their digits are
    undefined.

    Schubfach counts the interval's ends in it only when the significand
    is even. No candidate here can be an end: an end's denominator 2^(1-q)
    does not divide a candidate's, 10^-k with k > q - 1. So the ends are
    taken as closed for every value."""
    e = (bits >> _U(52)).astype(np.intp) & 0x7FF
    lo = int(e.min())
    table = np.array([_exponent_entry(x)
                      for x in range(lo, int(e.max()) + 1)], dtype=_U)
    fd, h, g1h, g1l, g0h, g0l, g1 = np.ascontiguousarray(table.T).take(
        e - lo, axis=1)
    cb = ((bits & _MANTISSA) | _HIDDEN) << _U(2)
    # the interval's left end, the value and its right end, times 4 10^-k
    # and rounded to odd: Schubfach's rop(g, cp) on cb - 2, cb and cb + 2
    cp, d = cb << h, _U(2) << h
    cp = np.stack([cp - d, cp, cp + d])     # below 2^59
    cp1, cp0 = cp >> _U(32), cp & _M32
    x1 = _mulhi(g0h, g0l, cp1, cp0)
    z = ((g1 * cp) >> _U(1)) + x1
    vbl, vb, vbr = ((_mulhi(g1h, g1l, cp1, cp0) + (z >> _U(63)))
                    | (((z & _M63) + _M63) >> _U(63)))
    s = vb >> _U(2)
    # a candidate one digit shorter: at most one lies in the interval
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    f = np.where(upin != wpin, sp10 + wpin * _U(10),
                 s + (~uin | win & (vb > mid)))
    tie = (upin == wpin) & uin & win & (vb == mid)
    return f, fd.astype(np.intp), tie


def _float_slots(values: np.ndarray) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for each of ``values``, one
    NUL-padded slot of ``_SLOT`` bytes per value.

    Values from 1e-4 up to 1e16 in magnitude, the range that repr writes
    in fixed notation, are formatted here: an integer from its exact
    digits, any other value from its shortest round-trip digits. repr
    itself writes zero, subnormals, infinities and nan, the values it
    writes in exponent notation, non-integers with a power-of-two
    significand, and values midway between two shortest candidates.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e16)
    whole = fixed & (np.floor(a, out=np.zeros(n), where=fixed) == a)
    bits = v.view(_U)
    part = fixed & ~whole & ((bits & _MANTISSA) != 0)
    by_repr = ~(whole | part)
    f = np.where(whole, a, 0).astype(_U)
    fd = np.zeros(n, dtype=np.intp)         # digits after the point
    rows = np.flatnonzero(part)
    if rows.size:
        f[rows], fd[rows], tie = _shortest_digits(bits.take(rows))
        by_repr[rows[tie]] = True
    # f 10^-fd as its integer part and a 20-digit fraction: the first 8
    # digits of the fraction and the 12 after them
    point = _POW10.take(np.minimum(fd, 19))
    ipart = f // point
    rem = f - ipart * point
    cut = _POW10.take(np.maximum(fd - 8, 0))
    head = rem // cut * _POW10.take(np.maximum(8 - fd, 0))
    tail = rem % cut * _POW10.take(np.minimum(20 - fd, 19))
    slots = _slot_bytes([_NUL - np.signbit(v), *_integer_words(ipart, 4),
                         _DOT, *_fraction_words(head, tail)], n)
    rest = np.flatnonzero(by_repr)
    if rest.size:
        slots[rest] = np.array(list(map(repr, v.take(rest).tolist())),
                               dtype=f"S{_SLOT}").view(np.uint8).reshape(
                                   rest.size, _SLOT)
    return slots


def _integer_words(mag, count: int) -> list:
    """The slot words that write the integers ``mag`` (uint64, below
    10^(4 count)) as ``count`` digit groups: from the first nonzero digit,
    the units digit at least; the NULs before it drop out with the rest of
    the padding."""
    words = []
    for j in range(count):
        scale = 10 ** (4 * (count - 1 - j))
        group = (mag // _U(scale) % _E4).astype(np.intp)
        words.append(group + (_LEAD if j == 0 else
                              _LEAD * (mag < _U(10 ** 4 * scale))))
    words[-1] += (_UNITS - _LEAD) * (mag == 0)
    return words


def _fraction_words(head, tail) -> list:
    """The slot words that write 20 fraction digits, the first 8 of them
    in ``head`` and the other 12 in ``tail``: up to the last nonzero
    digit, the tenths digit at least."""
    low = head % _E4
    rest = tail == 0
    return [(head // _E4).astype(np.intp) + _TRAIL * ((low == 0) & rest)
            + (_TENTHS - _TRAIL) * ((head == 0) & rest),
            low.astype(np.intp) + _TRAIL * rest,
            (tail // _E8).astype(np.intp) + _TRAIL * (tail % _E8 == 0),
            (tail // _E4 % _E4).astype(np.intp) + _TRAIL * (tail % _E4 == 0),
            (tail % _E4).astype(np.intp) + _TRAIL]


def _slot_bytes(words, n: int) -> np.ndarray:
    """The slots whose k-th words are ``words[k]`` (a word index per row,
    or one for every row), as an (n, 4 len(words)) byte matrix."""
    text = _slot_words()
    slots = np.empty((n, len(words)), dtype=np.uint32)
    for k, index in enumerate(words):
        slots[:, k] = text.take(index)
    return slots.view(np.uint8)


def _int_slots(values: np.ndarray) -> np.ndarray:
    """The bytes of ``str(v)`` for each of the integers ``values``, one
    NUL-padded slot per value, as wide as the widest one needs."""
    if values.dtype.kind == "u":
        mag, sign = values.astype(_U), _NUL
    else:
        a = values.astype(np.int64)
        mag, sign = np.abs(a).view(_U), _NUL - (a < 0)  # |-2^63| wraps to 2^63
    count = -(-len(str(int(mag.max()))) // 4)
    return _slot_bytes([sign, *_integer_words(mag, count)], values.size)


# a text cell or header name holding one of these is quoted, as the csv
# module quotes under QUOTE_MINIMAL
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# rows formatted per step by the per-cell path: only one block's cell
# strings are held at once
_BLOCK_ROWS = 128
# float cells per block of the array path: a float takes some 150 bytes of
# scratch, so a block's arrays stay near 600 KiB
_BLOCK_FLOATS = 4096
# tables with at least this many float cells take the array path, below
# which the per-cell path is faster
_ARRAY_FLOATS = 400
_BOOL_SLOTS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, 5)


def _quoted(cell: str) -> str:
    """``cell`` as a CSV field: in double quotes, each ``"`` doubled, when
    it holds a comma, a double quote, CR or LF; otherwise as it is."""
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _text_cells(values: np.ndarray) -> list[str]:
    """A text column's cells: each value by ``str``, quoted as
    ``_quoted`` says."""
    cells = list(map(str, values.tolist()))
    if _NEEDS_QUOTES.search("".join(cells)):
        cells = list(map(_quoted, cells))
    return cells


def _cells(values: np.ndarray, missing: np.ndarray | None) -> list[str]:
    """One column's cells as text, formatted once for the whole column by
    its dtype: a float as its ``repr``, a bool as ``true``/``false``, an
    int by ``str``, anything else (str, object) as ``_text_cells`` says; a
    missing cell is empty."""
    kind = values.dtype.kind
    if kind == "b":
        cells = np.where(values, "true", "false").tolist()
    elif kind in "fiu":
        cells = list(map(repr if kind == "f" else str, values.tolist()))
    else:
        cells = _text_cells(values)
    if missing is not None:
        for k in np.flatnonzero(missing).tolist():
            cells[k] = ""
    return cells


def _slots(values: np.ndarray) -> np.ndarray | None:
    """One column's non-float cells as the rows of a NUL-padded byte
    matrix, formatted as ``_cells`` formats them; None when a text cell
    holds a NUL, which the padding would swallow."""
    kind = values.dtype.kind
    if kind == "b":
        return _BOOL_SLOTS.take(values.view(np.uint8), 0)
    if kind in "iu":
        return _int_slots(values)
    cells = _text_cells(values)
    joined = "".join(cells)
    if "\0" in joined:
        return None
    raw = (np.array(cells, dtype="S") if joined.isascii()
           else np.array([c.encode() for c in cells], dtype=bytes))
    return raw.view(np.uint8).reshape(values.size, raw.itemsize)


def _array_block(pairs) -> str | None:
    """One block of rows as CSV lines, laid out as one byte matrix of
    NUL-padded cells, commas and newlines from which one compaction drops
    the padding; every float cell of the block comes from one
    ``_float_slots`` call. None when a column cannot be laid out so."""
    n = len(pairs[0][0])
    floats = [v for v, _ in pairs if v.dtype.kind == "f"]
    if floats:
        float_slots = iter(_float_slots(np.concatenate(floats)).reshape(
            len(floats), n, _SLOT))
    slots = []
    for values, missing in pairs:
        s = (next(float_slots) if values.dtype.kind == "f"
             else _slots(values))
        if s is None:
            return None
        if missing is not None:
            s[missing] = 0
        slots.append(s)
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    line = np.concatenate([x for s in slots for x in (s, comma)], axis=1)
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0").decode()


def _cell_block(pairs) -> str:
    """One block of rows as CSV lines, joined from per-cell strings."""
    cells = [_cells(values, missing) for values, missing in pairs]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


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
    for how a cell is written. A table with ``_ARRAY_FLOATS`` float cells
    or more is laid out by ``_array_block``, which writes the same bytes.
    """
    pairs = [c if isinstance(c, tuple) else (c, None) for c in columns]
    rows = {len(values) for values, _ in pairs}
    if len(rows) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(rows)}")
    n = rows.pop() if rows else 0
    floats = n * sum(v.dtype.kind == "f" for v, _ in pairs)
    arrays = floats >= _ARRAY_FLOATS
    step = _BLOCK_ROWS
    if arrays:  # blocks of equal size, each at most _BLOCK_FLOATS floats
        blocks = -(-floats // _BLOCK_FLOATS)
        step = -(-n // blocks)
    texts = [",".join(map(_quoted, header)) + "\n"]
    for i in range(0, n, step):
        block = [(values[i:i + step],
                  None if missing is None else missing[i:i + step])
                 for values, missing in pairs]
        text = _array_block(block) if arrays else None
        texts.append(_cell_block(block) if text is None else text)
    return "".join(texts)
