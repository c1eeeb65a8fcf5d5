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
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["RowText"]

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
