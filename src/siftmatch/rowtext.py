"""Text rows written column by column, with no Python call per row.

A row template is a sequence of pieces: text that every row repeats, or a
column holding one value per row.  :class:`RowText` writes the rows of a
template as ASCII bytes, some rows at a time:

- a column of non-negative integers becomes its decimal
  digits, computed arithmetically into a (rows, width) byte grid whose
  leading zeros are NUL;
- a float column becomes ``repr`` of each value.  A column whose every
  value is k * 2**-16, with integer 0 <= k < 2**18 (every UQ2.14 and UQ1.15
  value, as the pipeline's angles), and none ``-0.0``, is written by integer
  arithmetic: the exact decimal of each value, trailing zeros dropped but
  one fraction place kept, which is ``repr``'s text of every such value but
  the six below 1e-4, given to ``repr`` for its exponent form.  Any other
  float column is given to ``repr`` a fill at a time, each value in a span
  of :data:`_REPR_WIDTH` bytes, the longest ``repr`` of a float64;
- a bool column becomes one of two texts, NUL-padded to one width.

The pieces of the rows are laid side by side in one byte grid, each in a
span as wide as its longest text (an integer's digits, a grid value's
places, 24 bytes for a float off the grid), and the NUL padding is deleted
in one pass over the grid's bytes.  Every text written is ASCII without NUL
(digits, the ``repr`` of a float, the template's own text), so that pass
removes padding only, and the bytes equal the rows formatted one at a time
with ``str`` of each int and ``repr`` of each float.  (A numpy boolean mask
would do the same with two more grid-sized arrays alive: the mask and the
kept bytes.)

Memory: a fill keeps nothing for the next but the grid.  One grid
serves a whole call of :meth:`RowText.pieces`: it is a ``bytearray`` that a
numpy view writes into, the template's text is written into it once, and
each fill of its rows overwrites only the column spans.  The filled rows go
out as pieces of text, each cut from a slice of at most
:data:`_PIECE_BYTES` of the grid, so while a piece is made the grid, that
slice and its text are alive, and never a copy of the whole grid.  Many rows
per fill keep numpy's per-call cost low; small pieces keep the text alive
small.  The text goes to the caller as bytes: nothing decodes it to ``str``
and nothing encodes it back.  A fresh grid per fill would be handed back to
the operating system and faulted in again each time.  The grid and the
template's columns are let go with the last piece, so neither is alive
while the next band of a report is searched: a grid kept across bands
raised the peak RSS of a 40000 x 64 pipeline match from 33.1 to 33.9 MiB.

The match report lives here whole, writers and reader.
:class:`MatchReport` writes a report band by band, in query order, and
holds nothing of a band once its text is out.  A band's rows go from the
columns of a :class:`~siftmatch.search.MatchColumns` through a
:class:`RowText` of their own, and no row object is ever built.  The bytes
equal ``json.dumps(indent=2)`` over one dict of the report keys per row, in
:func:`_json_row`'s order, and a per-row ``csv.writer`` loop, as both write
ints with ``str``, floats with ``repr`` and bools and ``None`` as fixed
text, whatever the bands.  The head is a piece of its own and the first
row's comma is cut by a ``memoryview``, so no piece is copied.  A band also
holds an 8-byte ``query_index`` per row, counted from its first query.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from .search import MatchColumns

__all__ = ["MatchReport", "ReportFormatError", "RowText", "report_columns"]

# Rows laid out per fill of the reused byte grid (about 0.7 MB of a JSON
# report at 2048 rows).  Each fill costs a few hundred numpy calls whatever
# its rows, while the grid is alive for a whole template's text.  Measured on a 40000
# x 64 pipeline report (medians of 12 `match` processes on a 2-core host):
# 1024 rows wrote in 77 ms, 2048 in 67 and 4096 in 66, at a peak RSS of
# 44.9, 45.0 and 46.2 MiB.
CHUNK_ROWS = 2048

# The longest repr of a float64, as in "-2.2250738585072014e-308".
_REPR_WIDTH = 24

# Grid bytes per piece of text.  A piece is cut from a slice of the grid, and
# that slice and the piece are all a piece allocates, so they stay small
# however many rows the grid holds.
_PIECE_BYTES = 1 << 16

# The grid of fixed-point floats: every value k * 2**-_GRID_BITS with integer
# 0 <= k < 2**18, which holds every UQ2.14 and UQ1.15 value.
_GRID_BITS = 16


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


def _grid_places(column: np.ndarray) -> int:
    """The fraction places that write every value of the float64 ``column``
    as its exact decimal, when each is on the fixed-point grid and none is
    ``-0.0``; 0 when the column is off the grid.

    A value k * 2**-16 is k * 5**16 / 10**16, so its exact decimal has at
    most 16 places, and only as many as the lowest set bit of k asks for:
    a column of UQ2.14 angles needs 14.  One fraction place is always kept,
    as ``repr`` keeps one.
    """
    # The range first: a huge value scaled below would overflow and warn.
    if not (column.min(initial=0) >= 0 and column.max(initial=0) < 4) \
            or np.signbit(column).any():
        return 0
    scaled = column * 2.0 ** _GRID_BITS
    k = scaled.astype(np.uint32)
    if not np.array_equal(k, scaled):
        return 0
    low = int(np.bitwise_or.reduce(k, initial=0)) | 1 << (_GRID_BITS - 1)
    return _GRID_BITS + 1 - (low & -low).bit_length()


def _decimals(values: np.ndarray, out: np.ndarray) -> None:
    """The text of grid values, as :func:`_grid_places` gave ``out``'s
    width for their column, into ``out``: one integer digit, the point and
    the fraction places, trailing zeros past the first place NUL.  That is
    ``repr``'s text of each value but those below 1e-4 (k = 1...6), which
    ``repr`` writes in exponent form and writes here too."""
    places = out.shape[1] - 2
    # values * 10**places, an integer below 4 * 10**places.
    rest = (values * 2.0 ** places).astype(
        np.uint32 if places < 10 else np.uint64) * 5 ** places
    blank = np.ones(len(values), dtype=bool)
    for j in range(places + 1, 1, -1):
        higher = rest // 10
        digit = rest - higher * 10
        out[:, j] = digit + ord("0")
        if j > 2:  # the first place is kept, zero or not
            blank &= digit == 0
            out[:, j][blank] = 0
        rest = higher
    out[:, 0] = rest + ord("0")
    out[:, 1] = ord(".")
    tiny = np.flatnonzero((values > 0) & (values < 1e-4))
    if len(tiny):
        out[tiny] = _padded(list(map(repr, values[tiny].tolist())),
                            out.shape[1])


class RowText:
    """The rows of ``template`` as text; ``booleans`` are the texts of False
    and True (by default their ``str``).

    Each piece of the template is a ``str`` or a 1-D column of bools,
    non-negative integers or float64s, all columns of one length.  Whether
    a float column is written by :func:`_decimals` or by ``repr`` is chosen
    here, from the column's own values.
    """

    def __init__(self, template: Sequence,
                 booleans: tuple[str, str] = ("False", "True")):
        self._booleans = _padded(booleans, max(map(len, booleans)))
        row, columns = bytearray(), []
        for piece in template:
            if isinstance(piece, str):
                row += piece.encode("ascii")
                continue
            places = None  # a float column's from _grid_places, 0 off the grid
            if piece.dtype.kind == "f":
                places = _grid_places(piece)
                width = 2 + places if places else _REPR_WIDTH
            elif piece.dtype.kind == "b":
                width = self._booleans.shape[1]
            elif piece.min(initial=0) < 0:
                raise ValueError("integer column has a negative value")
            else:
                width = len(str(piece.max(initial=0)))
            columns.append((slice(len(row), len(row) + width), piece, places))
            row += bytes(width)
        self._layout = (np.frombuffer(bytes(row), dtype=np.uint8), columns)

    def _fill(self, out: np.ndarray, values: np.ndarray,
              places: int | None) -> None:
        """Write the text of ``values`` into ``out``; ``places`` is their
        column's from :func:`_grid_places`."""
        if values.dtype.kind == "b":
            out[:] = self._booleans[values.view(np.uint8)]
        elif places:
            _decimals(values, out)
        elif values.dtype.kind == "f":
            out[:] = _padded(list(map(repr, values.tolist())), out.shape[1])
        else:
            _digits(values, out)

    def pieces(self, count: int) -> Iterator[bytearray]:
        """The ASCII text of rows ``0:count`` of the template, laid out
        :data:`CHUNK_ROWS` rows at a time and handed out in pieces of at
        most :data:`_PIECE_BYTES` of the grid.  A template's rows are given
        once: its columns are let go here, so that they are freed with the
        last piece, not kept as long as this object."""
        (row, columns), self._layout = self._layout, None
        rows = min(CHUNK_ROWS, count)
        if not rows:
            return
        width = len(row)
        buffer = bytearray(rows * width)
        grid = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, width)
        grid[:] = row  # every column span is overwritten per piece
        for start in range(0, count, rows):
            size = min(rows, count - start)
            for cut, column, places in columns:
                self._fill(grid[:size, cut], column[start:start + size],
                           places)
            end = size * width
            for at in range(0, end, _PIECE_BYTES):
                yield buffer[at:min(at + _PIECE_BYTES, end)].replace(
                    b"\0", b"")


class ReportFormatError(ValueError):
    """Raised for a saved match report that is not a JSON match report."""


def _json_row(start: int, matches: MatchColumns) -> list:
    """The template of one report row, for the rows of ``matches`` from
    query ``start`` on, as json.dumps(indent=2) writes it inside "matches",
    led by the comma and newline that part it from the row before: every
    report key in the order of ``columns``, an (x, y) pair as a two-line
    list."""
    columns = {
        "query_index": np.arange(start, start + len(matches)),
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


def _csv_row(start: int, matches: MatchColumns) -> list:
    """The template of one CSV verdict row, for the rows of ``matches``
    from query ``start`` on."""
    return [
        np.arange(start, start + len(matches)), ",", matches.matched, ",",
        matches.best, ",", matches.query_xy[:, 0], ",", matches.query_xy[:, 1],
        ",", matches.best_xy[:, 0], ",", matches.best_xy[:, 1],
        ",", "" if matches.min_raw is None else matches.min_raw,
        ",", "" if matches.second_min_raw is None
        else matches.second_min_raw, "\r\n"]


class MatchReport:
    """A ``siftmatch match`` report written band by band, in query order:
    :meth:`band` gives the text of each band of rows, :meth:`end` the text
    after the last.  Each band is laid out by a :class:`RowText` of its own,
    so nothing is kept from one band to the next.

    ``header`` is the JSON report's head: the text joined is the ASCII
    bytes of ``json.dumps({**header, "matches": rows}, indent=2,
    allow_nan=False)``, where ``rows`` holds a dict of the report keys per
    query.  With ``header=None`` it is the CSV verdict rows ``k, matched,
    best_index, qx, qy, bx, by, min_raw, secmin_raw`` (``0``/``1`` for
    matched, an empty field for a missing raw) under a header line, each
    ended by ``\\r\\n`` as ``csv.writer`` ends it.  A report has at least
    one row, as both engines reject an empty set.
    """

    def __init__(self, header: dict | None):
        self._header = header

    def band(self, start: int, matches: MatchColumns
             ) -> Iterator[bytes | bytearray | memoryview]:
        """The text of the report rows of queries ``start:start +
        len(matches)``, in pieces; the band at ``start`` 0 comes first and
        leads with the head.  Take every piece of a band before asking for
        the next band.

        Raises ``ValueError`` for a non-finite angle or header value before
        any of the band's text is produced.
        """
        json_rows = self._header is not None
        if json_rows:
            for angles in (matches.min_angle, matches.second_min_angle):
                if not np.isfinite(angles).all():
                    raise ValueError(
                        "Out of range float values are not JSON compliant")
        rows = RowText((_json_row if json_rows else _csv_row)(start, matches),
                       ("false", "true") if json_rows else ("0", "1")
                       ).pieces(len(matches))
        if start:
            return rows
        if not json_rows:
            return chain(
                [b"k,matched,best_index,qx,qy,bx,by,min_raw,secmin_raw\r\n"],
                rows)
        text = json.dumps({**self._header, "matches": []}, indent=2,
                          allow_nan=False).encode("ascii")
        first = memoryview(next(rows))[1:]  # no "," before the first row
        return chain([text[:-len(b"]\n}")], first], rows)

    def end(self) -> list[bytes]:
        """The text after the last band."""
        return [] if self._header is None else [b"\n  ]\n}"]


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
