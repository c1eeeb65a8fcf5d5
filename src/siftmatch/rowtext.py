"""Text rows written column by column, with no Python call per row.

A row template is a sequence of pieces: text that every row repeats, or a
column holding one value per row.  :class:`RowText` writes the rows of a
template as ASCII bytes, some rows at a time:

- a column of non-negative integers becomes its decimal
  digits, computed arithmetically into a (rows, width) byte grid whose
  leading zeros are NUL;
- a float column becomes ``repr`` of each value.  ``repr`` runs once per
  distinct 64-bit pattern over all float columns of the template, not once
  per row, and each row gathers its text from that table.  Keying on the bit
  pattern, not on float equality, keeps ``-0.0`` apart from ``0.0``;
- a bool column becomes one of two texts, NUL-padded to one width.

The pieces of the rows are laid side by side in one byte grid, each in a
span as wide as its longest text, and the NUL padding is deleted in one pass
over the grid's bytes.  Every text written is ASCII without NUL (digits, the
``repr`` of a float, the template's own text), so that pass removes padding
only, and the bytes equal the rows formatted one at a time with ``str`` of
each int and ``repr`` of each float.  (A numpy boolean mask would do the same
with two more grid-sized arrays alive: the mask and the kept bytes.)

Memory: the table holds one text per distinct float value (and its 8-byte
key).  One grid serves a whole call of :meth:`RowText.pieces`: it is a
``bytearray`` that a numpy view writes into, the template's text is written
into it once, and each fill of its rows overwrites only the column spans.
The filled rows go out as pieces of text, each cut from a slice of at most
:data:`_PIECE_BYTES` of the grid, so while a piece is made the grid, that
slice and its text are alive, and never a copy of the whole grid.  Many
rows per fill keep numpy's per-call cost low; small pieces keep the text
alive small.  The text goes to the caller as bytes: nothing decodes it to
``str`` and nothing encodes it back.  A fresh grid per fill would be handed
back to the operating system and faulted in again each time.

The match report lives here whole, writers and reader.  A report's rows go
from the columns of a :class:`~siftmatch.search.MatchColumns` through one
:class:`RowText`, and no row object is ever built.  Its bytes equal
``json.dumps(indent=2)`` over one dict of the report keys per row, in
:func:`_json_row`'s order, and a per-row ``csv.writer`` loop, as both write
ints with ``str``, floats with ``repr`` and bools and ``None`` as fixed
text.  The head is a piece of its own and the first row's comma is cut by a
``memoryview``, so no piece is copied.  A report also holds an 8-byte
``query_index`` per row.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from .search import MatchColumns

__all__ = ["ReportFormatError", "RowText", "report_columns",
           "report_csv_chunks", "report_json_chunks"]

# Rows laid out per fill of the reused byte grid (about 0.7 MB of a JSON
# report at 2048 rows).  Each fill costs a few hundred numpy calls whatever
# its rows, while the grid is alive for the whole text.  Measured on a 40000
# x 64 pipeline report (medians of 12 `match` processes on a 2-core host):
# 1024 rows wrote in 77 ms, 2048 in 67 and 4096 in 66, at a peak RSS of
# 44.9, 45.0 and 46.2 MiB.
CHUNK_ROWS = 2048

# The longest repr of a float64, as in "-2.2250738585072014e-308".
_REPR_WIDTH = 24

# Distinct values given to repr at a time while the table is built: bounds
# the Python strings alive at once.
_REPR_BATCH = 4096

# Grid bytes per piece of text.  A piece is cut from a slice of the grid, and
# that slice and the piece are all a piece allocates, so they stay small
# however many rows the grid holds.
_PIECE_BYTES = 1 << 16


def _padded(texts: Sequence[str], width: int) -> np.ndarray:
    """ASCII ``texts`` as a (len, width) byte grid, NUL-padded."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(
        len(texts), width)


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Decimal digits of non-negative integers into ``out``, one row each,
    right-aligned, with NUL for the leading zeros."""
    width = out.shape[1]
    # Division by a scalar is far cheaper than by an array of powers of ten.
    rest = values.astype(np.uint32 if width < 10 else np.uint64)
    for j in range(width - 1, -1, -1):
        higher = rest // 10
        out[:, j] = rest - higher * 10 + ord("0")
        rest = higher
    for j in range(width - 1):
        out[:, j][values < 10 ** (width - 1 - j)] = 0


def _repr_table(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of the float64 ``columns``, sorted, and the
    NUL-padded ``repr`` of each, one grid row per pattern."""
    keys = np.concatenate([c.view(np.uint64) for c in columns]
                          or [np.empty(0, dtype=np.uint64)])
    keys.sort()  # in place: np.unique would copy all keys once more
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    table = np.zeros((len(keys), _REPR_WIDTH), dtype=np.uint8)
    width = 0
    values = keys.view(np.float64)
    for start in range(0, len(keys), _REPR_BATCH):
        texts = list(map(repr, values[start:start + _REPR_BATCH].tolist()))
        width = max(width, *map(len, texts))
        table[start:start + len(texts)] = _padded(texts, _REPR_WIDTH)
    return keys, table[:, :width]


class RowText:
    """The rows of ``template`` as text; ``booleans`` are the texts of False
    and True (by default their ``str``).

    Each piece of the template is a ``str`` or a 1-D column of bools,
    non-negative integers or float64s, all columns of one length.  The
    float table is built once, here.
    """

    def __init__(self, template: Sequence,
                 booleans: tuple[str, str] = ("False", "True")):
        self._keys, self._reprs = _repr_table(
            [p for p in template if not isinstance(p, str)
             and p.dtype.kind == "f"])
        self._booleans = _padded(booleans, max(map(len, booleans)))
        row, self._columns = bytearray(), []
        for piece in template:
            if isinstance(piece, str):
                row += piece.encode("ascii")
                continue
            if piece.dtype.kind == "f":
                width = self._reprs.shape[1]
            elif piece.dtype.kind == "b":
                width = self._booleans.shape[1]
            elif piece.min(initial=0) < 0:
                raise ValueError("integer column has a negative value")
            else:
                width = len(str(piece.max(initial=0)))
            self._columns.append((slice(len(row), len(row) + width), piece))
            row += bytes(width)
        self._row = np.frombuffer(bytes(row), dtype=np.uint8)

    def _fill(self, out: np.ndarray, column, start: int) -> None:
        """Write the text of ``column`` from row ``start`` into ``out``."""
        values = column[start:start + len(out)]
        if values.dtype.kind == "b":
            out[:] = self._booleans[values.view(np.uint8)]
        elif values.dtype.kind == "f":
            out[:] = self._reprs[np.searchsorted(self._keys,
                                                 values.view(np.uint64))]
        else:
            _digits(values, out)

    def pieces(self, count: int) -> Iterator[bytearray]:
        """The ASCII text of rows ``0:count``, laid out :data:`CHUNK_ROWS`
        rows at a time and handed out in pieces of at most
        :data:`_PIECE_BYTES` of the grid."""
        rows = min(CHUNK_ROWS, count)
        if not rows:
            return
        width = len(self._row)
        buffer = bytearray(rows * width)
        grid = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, width)
        grid[:] = self._row  # every column span is overwritten per piece
        for start in range(0, count, rows):
            size = min(rows, count - start)
            for cut, column in self._columns:
                self._fill(grid[:size, cut], column, start)
            end = size * width
            for at in range(0, end, _PIECE_BYTES):
                yield buffer[at:min(at + _PIECE_BYTES, end)].replace(
                    b"\0", b"")


class ReportFormatError(ValueError):
    """Raised for a saved match report that is not a JSON match report."""


def _json_row(matches: MatchColumns) -> list:
    """The template of one report row as json.dumps(indent=2) writes it
    inside "matches", led by the comma and newline that part it from the row
    before: every report key in the order of ``columns``, an (x, y) pair as
    a two-line list."""
    columns = {
        "query_index": np.arange(len(matches)),
        "matched": matches.matched,
        "best_index": matches.best,
        "min_angle": matches.min_angle,
        "second_min_angle": matches.second_min_angle,
        "query_xy": matches.query_xy,
        "best_xy": matches.best_xy,
        "min_raw": matches.min_raw,
        "second_min_raw": matches.second_min_raw,
    }
    row = [",\n    {"]
    for key, value in columns.items():
        row.append(f"\n      {json.dumps(key)}: ")
        if value is None:
            row.append("null")
        elif key.endswith("_xy"):
            row += ["[\n        ", value[:, 0], ",\n        ", value[:, 1],
                    "\n      ]"]
        else:
            row.append(value)
        row.append(",")
    row[-1] = "\n    }"
    return row


def report_json_chunks(header: dict, matches: MatchColumns
                       ) -> Iterator[bytes | bytearray | memoryview]:
    """The ASCII bytes of ``json.dumps({**header, "matches": rows},
    indent=2, allow_nan=False)``, where ``rows`` holds a dict of the report
    keys per query, in pieces: the head, the rows' text and the tail.  A
    report has at least one row, as both engines reject an empty set.

    Raises ``ValueError`` for a non-finite angle or header value before any
    text is produced, so a caller never writes part of a report.
    """
    for angles in (matches.min_angle, matches.second_min_angle):
        if not np.isfinite(angles).all():
            raise ValueError("Out of range float values are not JSON compliant")
    head = json.dumps({**header, "matches": []}, indent=2,
                      allow_nan=False).encode("ascii")
    rows = RowText(_json_row(matches), ("false", "true")).pieces(len(matches))
    first = memoryview(next(rows))[1:]  # the first row has no "," before it
    return chain([head[:-len(b"]\n}")]], [first], rows, [b"\n  ]\n}"])


def report_csv_chunks(matches: MatchColumns
                      ) -> Iterator[bytes | bytearray]:
    """The verdicts as CSV rows ``k, matched, best_index, qx, qy, bx, by,
    min_raw, secmin_raw`` (``0``/``1`` for matched, an empty field for a
    missing raw), each ended by ``\\r\\n`` as ``csv.writer`` ends it, in
    ASCII pieces: the header line, then the rows' text."""
    yield b"k,matched,best_index,qx,qy,bx,by,min_raw,secmin_raw\r\n"
    row = RowText([
        np.arange(len(matches)), ",", matches.matched, ",", matches.best,
        ",", matches.query_xy[:, 0], ",", matches.query_xy[:, 1],
        ",", matches.best_xy[:, 0], ",", matches.best_xy[:, 1],
        ",", "" if matches.min_raw is None else matches.min_raw,
        ",", "" if matches.second_min_raw is None
        else matches.second_min_raw, "\r\n"], ("0", "1"))
    yield from row.pieces(len(matches))


def report_columns(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``query_index`` and ``matched`` columns of a saved
    ``siftmatch match`` JSON report."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            report = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, or nesting too deep
            raise ReportFormatError(f"{path}: not a JSON report: {exc}") from None
    rows = report.get("matches") if isinstance(report, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and "query_index" in row and "matched" in row
            for row in rows):
        raise ReportFormatError(f"{path}: no \"matches\" list of match rows")
    for k, row in enumerate(rows):
        if not isinstance(row["matched"], bool):
            raise ReportFormatError(
                f"{path}: match row {k}: \"matched\" is not true or false")
        if type(row["query_index"]) is not int:  # bool is an int subclass
            raise ReportFormatError(
                f"{path}: match row {k}: \"query_index\" is not an integer")
    return (np.fromiter((row["query_index"] for row in rows), object, len(rows)),
            np.fromiter((row["matched"] for row in rows), bool, len(rows)))
