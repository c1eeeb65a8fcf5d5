"""Floating-point reference matcher: cosine angle distance plus ratio test.

For each query descriptor the matcher computes the angular distance
arccos(clamp(dot, 0, 1)) to every database descriptor, takes the two
smallest, and accepts the nearest neighbor only when
``min < threshold * second_min`` (threshold 0.6 by default).

Dot products equal a strict left-to-right sum over the 128 elements, so
results are bit-reproducible.  :func:`match_all` runs the tiled search of
:mod:`siftmatch.search`.  When both sets are ``raw_exact`` (every ``.siftdb``
load) it takes one BLAS GEMM per tile on the integer raws: every partial sum
is exact, and ``w * 2**-30`` is a power-of-two scaling, so the sums ``w``
give the left-to-right bits of the float elements ``raw * 2**-15``, and no
float copy of a set is made.  Other sets (text files, ``from_floats``) take
the strict-order :func:`dot_matrix` on the float elements, one tile at a
time, ranked by the negated angle: each such key is the smallest with its
angle, so they never take the search's follow-up pass.

On raw-exact sets the search ranks by the integer dot ``w`` and only the
two largest dots of a row are mapped to angles, ``arccos(min(w * 2**-30,
1))``.  That gives the two smallest angles because ``np.arccos`` is
strictly decreasing on the grid ``w * 2**-30``, ``0 <= w <= 2**30``.  On
``[0, 1)`` the true arccos has ``|arccos'(x)| = 1 / sqrt(1 - x**2) >= 1``,
so adjacent grid points have true angles at least ``2**-30`` (about
9.3e-10) apart, while libm's arccos is off by a few ulp, and an ulp of an
angle in ``[0, pi/2]`` is at most ``2**-52`` (2.2e-16): the computed angles
keep the true order.  The tests check the strict decrease exhaustively on
the two ends of the grid, ``[0, 2**22]`` and ``[2**30 - 2**22, 2**30]``:
the derivative bound is tightest at ``w = 0``, and the angles are nearest 0
at ``w = 2**30``.  Dots above ``2**30`` (rounding in the
raws can push a self-dot past 1) all clip to angle 0, so equal angles come
only from equal dots, where the earliest argmax is already right, or from
clipping, where the minimum's index is the earliest ``j`` with
``w_j >= 2**30``: that is the search's floor, ``min(w, 2**30)``.  Everything
here is stateless.

Results stay columnar from the search to the output file:
:func:`match_results` wraps the search's arrays in a :class:`MatchColumns`,
and no row object is ever built.  :func:`report_json_chunks` and
:func:`write_matches_csv` write the rows column by column through one row
formatter, :class:`~siftmatch.rowtext.RowText`, :data:`CHUNK_ROWS` rows at a
time, with no Python call per row.  The bytes equal those of
``json.dumps(indent=2)`` over each row as a dict of its report keys, and of
a per-row ``csv.writer`` loop, because each value is written as they write
it: non-negative ints as their decimal digits, finite floats as their ``repr``
(taken once per distinct 64-bit pattern, so ``-0.0`` stays ``-0.0``), bools
and ``None`` as fixed text.  The rows are laid out in a byte grid whose
padding is NUL; JSON and CSV text never contain NUL, so deleting it removes
the padding only.  The JSON row template is made from the report keys
:func:`_json_row` lists, in their order.  The pieces are ASCII bytes,
written as they are to a binary file.  The report's head is a piece of its
own, and the first row's leading comma is cut by a ``memoryview``, so no
piece is copied.  While writing, a report holds one grid reused for every
fill (about 0.7 MB of JSON at 2048 rows), one piece of text cut from at most
64 KiB of it, a ``query_index`` column of 8 bytes per row and, per distinct
angle, its text and 8-byte key.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .descriptors import DESCRIPTOR_LEN, Descriptor, DescriptorSet
from .fixedpoint import UQ1_15
from .rowtext import RowText
from .search import nearest_two

__all__ = [
    "CHUNK_ROWS",
    "MatchColumns",
    "SECOND_MIN_SURROGATE",
    "dot_matrix",
    "dot_product",
    "match_all",
    "match_results",
    "report_json_chunks",
    "write_matches_csv",
]

# Stand-in second minimum for a single-descriptor database: no real angle can
# reach pi, so the ratio test degenerates to "min < threshold * pi".
SECOND_MIN_SURROGATE = math.pi

DEFAULT_THRESHOLD = 0.6

# Report rows laid out per fill of the reused byte grid (about 0.7 MB of JSON
# at 2048 rows).  Each fill costs a few hundred numpy calls whatever its
# rows, while the grid is alive for the whole report.  Measured on a 40000 x
# 64 pipeline report (medians of 12 `match` processes on a 2-core host):
# 1024 rows wrote in 77 ms, 2048 in 67 and 4096 in 66, at a peak RSS of
# 44.9, 45.0 and 46.2 MiB.
CHUNK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class MatchColumns:
    """Verdicts for all queries as columns, one array entry per query.

    ``best`` holds best indices, ``query_xy``/``best_xy`` are (m, 2) and the
    raw columns are ``None`` for the reference engine.  Every row keeps
    ``min_angle <= second_min_angle``, and ``matched`` implies that
    ``best`` is set.  ``min_raw``/``second_min_raw`` are populated only by
    the fixed-point pipeline engine (UQ2.14 raws).
    """

    best: np.ndarray
    min_angle: np.ndarray
    second_min_angle: np.ndarray
    matched: np.ndarray
    query_xy: np.ndarray
    best_xy: np.ndarray
    min_raw: np.ndarray | None = None
    second_min_raw: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.best)


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
    return _json_pieces(head[:-len(b"]\n}")], matches)


def _json_pieces(head: bytes, matches: MatchColumns
                 ) -> Iterator[bytes | bytearray | memoryview]:
    pieces = RowText(_json_row(matches), ("false", "true")).pieces(
        len(matches), CHUNK_ROWS)
    yield head
    yield memoryview(next(pieces))[1:]  # the first row has no "," before it
    yield from pieces
    yield b"\n  ]\n}"


def write_matches_csv(matches: MatchColumns, fileobj) -> None:
    """Emit verdicts as ``k, matched, best_index, qx, qy, bx, by, min_raw,
    secmin_raw`` (``0``/``1`` for matched, an empty field for a missing raw),
    each row ended by ``\\r\\n`` as ``csv.writer`` ends it, as ASCII bytes
    to the binary file ``fileobj``."""
    fileobj.write(b"k,matched,best_index,qx,qy,bx,by,min_raw,secmin_raw\r\n")
    row = RowText([
        np.arange(len(matches)), ",", matches.matched, ",", matches.best,
        ",", matches.query_xy[:, 0], ",", matches.query_xy[:, 1],
        ",", matches.best_xy[:, 0], ",", matches.best_xy[:, 1],
        ",", "" if matches.min_raw is None else matches.min_raw,
        ",", "" if matches.second_min_raw is None
        else matches.second_min_raw, "\r\n"], ("0", "1"))
    fileobj.writelines(row.pieces(len(matches), CHUNK_ROWS))


def dot_matrix(queries: np.ndarray, database: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """All-pairs dot products, accumulated left-to-right over the elements.

    ``queries`` is (m, 128), ``database`` is (n, 128); returns (m, n),
    accumulated in ``out`` when it is given (a float64 (m, n) array).
    Each cell sees the identical float64 addition sequence as
    :func:`dot_product`, so the two agree bitwise.
    """
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    if out is None:
        out = np.empty((queries.shape[0], database.shape[0]))
    out.fill(0.0)
    for i in range(DESCRIPTOR_LEN):
        out += queries[:, i, None] * database[None, :, i]
    return out


def dot_product(a: Descriptor, b: Descriptor) -> float:
    """Dot product of two descriptors in float arithmetic (left-to-right sum)."""
    if a.elements.shape != (DESCRIPTOR_LEN,) or b.elements.shape != (DESCRIPTOR_LEN,):
        raise ValueError(f"descriptors must have {DESCRIPTOR_LEN} elements")
    return float(dot_matrix(a.elements[None, :], b.elements[None, :])[0, 0])


def _angles(dots: np.ndarray) -> np.ndarray:
    """arccos of the clamped dot products, in place."""
    return np.arccos(np.clip(dots, 0.0, 1.0, out=dots), out=dots)


def _strict_keys(queries: np.ndarray, database: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The negated angles of the strict-order dots, in ``out``: the largest
    key is the smallest angle, and negation is exact."""
    return np.negative(_angles(dot_matrix(queries, database, out)), out=out)


def _raw_angle(w: np.ndarray) -> np.ndarray:
    """The angle of integer raw dots ``w``, which are ``w * 2**-30``
    (exactly) in float elements."""
    return np.arccos(np.minimum(w * UQ1_15.lsb ** 2, 1.0))


def _raw_floor(w: np.ndarray) -> np.ndarray:
    """The smallest raw dot with the angle of ``w``: the angle is strictly
    decreasing up to ``2**30`` and 0 from there on."""
    return np.minimum(w, 2.0 ** 30)


def match_results(queries: DescriptorSet, db: DescriptorSet, best: np.ndarray,
                  min_angle: np.ndarray, second_angle: np.ndarray,
                  matched: np.ndarray, min_raw: np.ndarray | None = None,
                  second_raw: np.ndarray | None = None) -> MatchColumns:
    """The columnar result of a search: one entry per query."""
    return MatchColumns(best, min_angle, second_angle, matched, queries.xy,
                        db.xy[best], min_raw, second_raw)


def match_all(queries: DescriptorSet, db: DescriptorSet,
              threshold: float = DEFAULT_THRESHOLD) -> MatchColumns:
    """Match every query descriptor; output order equals query order."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if len(queries) == 0 or len(db) == 0:
        raise ValueError("query and database sets must be non-empty")
    if queries.raw_exact and db.raw_exact:
        best, low, high = nearest_two(queries.raw_rows, db.raw_rows,
                                      _raw_angle, _raw_floor,
                                      SECOND_MIN_SURROGATE)
    else:  # each key is the smallest with its angle: no follow-up pass
        best, low, high = nearest_two(queries.floats, db.floats, np.negative,
                                      np.positive, SECOND_MIN_SURROGATE,
                                      _strict_keys)
    return match_results(queries, db, best, low, high, low < threshold * high)
