"""Tiled top-2 search shared by the pipeline model and the reference matcher.

Both engines rank by a key whose angle never increases as the key grows:
the exact integer dot for raw-exact sets, and the negated angle for the
strict-order path.  :func:`top_two` is the one kernel: per query row, the
earliest index of the largest key and the two largest keys, counting
duplicates.  :func:`nearest_two` maps those two keys to angles and applies
the one tie rule.  An engine supplies only its ``angle`` map, key to angle,
and hands on its verdicts as one :class:`MatchColumns`.

:func:`top_two` tiles both axes: each tile is up to :data:`TILE_COLS`
database rows times :data:`TILE_ROWS` query rows, or more query rows when
that makes fewer than :data:`TILE_DOTS` dot products.  One call allocates
three float64 buffers, once: a query tile, a database block and the keys of
one tile.  Each tile's operands are cast into the first two in place (exact
on raws) and its keys are written into the third, so the working set is one
tile whatever the sizes, no float copy of a whole set is made, and no tile
allocates memory that the next must fault in again.

Both inputs are row sources: anything with ``len``, ``shape`` and
``source[rows]`` for a slice of consecutive rows or an array of row
indices.  An ndarray is one; so is the file reader of a streamed
``.siftdb`` set (:attr:`~siftmatch.descriptors.DescriptorSet.raw_rows`),
which reads the rows into a reused buffer that its next read overwrites.
Each tile's rows are cast into the float64 buffers as soon as they are
read, so neither input is ever held whole.

Per query, a running ``(best, first, second)`` starts at ``-inf`` and holds
the two largest keys of the database tiles seen so far and the earliest
index of the largest.  A tile at offset ``e``, with ``j`` its earliest
argmax and ``hi >= hi2`` its two largest keys (``hi2`` is ``-inf`` on a
one-column tile), is merged by::

    take   = hi > first
    second = where(take, max(first, hi2), max(second, hi))
    first  = where(take, hi, first);  best = where(take, j + e, best)

If ``hi > first``, every earlier key is below ``hi``, so ``hi`` is the new
maximum, its tile's earliest index is the earliest overall, and the
runner-up is the larger of the old maximum and the tile's second.
Otherwise the old maximum stays and the runner-up is the larger of the old
second and ``hi``.  Both cases give the two largest of the union, counting
duplicates.  The strict ``>`` keeps the earlier tile's index when
``hi == first``, exactly as the streaming two-minimum tracker (``min_find``)
keeps its incumbent, so the result does not depend on where the tile edges
fall.

Because the angle never increases with the key, the two smallest angles
are ``lo = angle(w1)`` and ``lo2 = angle(w2)`` of the two largest keys
``w1 >= w2``.  Distinct keys may share an angle (a narrowing that maps
several dots to one raw, a table that maps several raws to one angle, or a
dot clipped to 1), so the earliest index of ``lo`` is the earliest ``j``
with key ``>= f``, the smallest key with angle ``lo``, not always the
earliest argmax.  The two differ only when another key shares ``lo``, so
only rows with ``lo2 == lo`` and ``f < w1`` take a follow-up pass: over the
same tiles, reading only those query rows, and only the database rows up to
the largest of their ``best``, which already qualifies.  Other rows keep the
earliest argmax.  With one database row the second angle is the engine's
sentinel, and the kernel's ``-inf`` never reaches ``angle``.

Each tied row's floor ``f`` comes from ``angle`` alone (:func:`_floor`).
The angle never increases, so the integer keys ``k <= w1`` with
``angle(k) == lo`` are the run ``[f, w1]``: a bisection that keeps
``lo_k < f <= hi_k`` from ``lo_k = -1``, ``hi_k = w1`` ends at ``hi_k = f``
within 38 steps for keys up to 2**37, all integers exact in float64.  A key
of at most 0 takes no step and is its own floor, as each strict-order key is.

:func:`exact_dots` is one float64 BLAS GEMM.  On UQ1.15 raws (integers
below 2**16) each product is below 2**32 and a 128-term sum below
2**39 < 2**53, so every partial sum is exact: any summation order gives the
integer adder tree's sum ``w``, bit for bit.  Scaling by a power of two is
exact too, so ``w * 2**-30`` equals the GEMM of the float elements
``raw * 2**-15`` and the strict left-to-right float loop over them; the
engines scale the integer sums only where they map a key to an angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["MatchColumns", "TILE_COLS", "TILE_DOTS", "TILE_ROWS", "exact_dots",
           "nearest_two", "top_two"]

# Tile geometry, measured on a 2-core OpenBLAS host.  A tile is up to
# TILE_COLS database rows by at least TILE_ROWS query rows: the 4000 x 4000
# GEMM takes about 0.05 s in 128 x 1024 tiles against 0.10 s in 16 x 4000
# tiles.  A database smaller than TILE_COLS / 4 makes taller tiles of about
# TILE_DOTS dots, so many queries against few rows still take few tiles.
# Against 64 database rows, 2**15-dot tiles (a 512 KiB float64 query tile)
# searched 40000 queries in 26.5 ms against 25.0 ms for 2**16, at a traced
# peak of 1.96 against 2.66 MB; 2**18-dot tiles were no faster end to end
# and raised peak RSS by 5-15%.
TILE_DOTS = 1 << 15
TILE_ROWS = 1 << 7
TILE_COLS = 1 << 10

Dot = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
KeyMap = Callable[[np.ndarray], np.ndarray]


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


def exact_dots(queries: np.ndarray, database: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """(m, 128) x (n, 128) -> (m, n) float64 dot products; exact on raws and
    on raw-exact floats.  Written into ``out`` when it is given (a
    C-contiguous float64 (m, n) array)."""
    database = np.asarray(database, dtype=np.float64)
    return np.matmul(np.asarray(queries, dtype=np.float64), database.T,
                     out=out)


def _tiles(queries, database, dot: Dot, picked: np.ndarray | None = None,
           stop: int | None = None):
    """Yield ``(e, tile, keys)`` per tile: the database offset, the slice of
    query rows (of ``picked`` when given) and their keys against the tile,
    over database rows ``0:stop`` (all by default).  ``keys`` is a view of a
    buffer that the next tile overwrites."""
    m = len(queries if picked is None else picked)
    n = len(database) if stop is None else stop
    cols = min(n, TILE_COLS)
    rows = max(TILE_ROWS, TILE_DOTS // cols)
    query_tile = np.empty((min(m, rows), queries.shape[1]))
    database_block = np.empty((cols, database.shape[1]))
    flat_keys = np.empty(len(query_tile) * cols)
    for e in range(0, n, cols):
        block = database_block[:n - e]
        block[...] = database[e:e + len(block)]
        for start in range(0, m, rows):
            tile = slice(start, start + rows)
            part = query_tile[:m - start]
            part[...] = queries[tile] if picked is None \
                else queries[picked[tile]]
            # A contiguous prefix, not a strided slice: BLAS writes into it.
            keys = flat_keys[:len(part) * len(block)].reshape(len(part),
                                                              len(block))
            yield e, tile, dot(part, block, keys)


def top_two(queries, database, dot: Dot = exact_dots):
    """``(best, first, second)``: per query row, the earliest index of the
    largest key and the two largest keys, counting duplicates (``second``
    is ``-inf`` when the database has one row).  ``queries`` and
    ``database`` are row sources of raws or float elements;
    ``dot(part, block, out)`` maps a float64 query tile and database block
    to their (rows, cols) keys, written into the float64 buffer ``out``.
    This function overwrites keys in place, and the next tile overwrites
    the buffer."""
    m = len(queries)
    best = np.zeros(m, dtype=np.intp)
    first = np.full(m, -np.inf)
    second = np.full(m, -np.inf)
    for e, tile, keys in _tiles(queries, database, dot):
        rows = np.arange(len(keys))
        j = keys.argmax(axis=1)
        hi = keys[rows, j]
        keys[rows, j] = -np.inf  # the row's max is now its second largest
        hi2 = keys.max(axis=1)
        take = hi > first[tile]
        second[tile] = np.where(take, np.maximum(first[tile], hi2),
                                np.maximum(second[tile], hi))
        first[tile] = np.where(take, hi, first[tile])
        best[tile] = np.where(take, j + e, best[tile])
    return best, first, second


def _floor(angle: KeyMap, w: np.ndarray) -> np.ndarray:
    """Each key's floor, by the module docstring's bisection."""
    low, high, target = np.full_like(w, -1.0), w, angle(w)
    while (live := high - low > 1).any():
        mid = np.floor((low + high) / 2)
        same = angle(mid) == target
        high = np.where(live & same, mid, high)
        low = np.where(live & ~same, mid, low)
    return high


def nearest_two(queries, database, angle: KeyMap, sentinel,
                dot: Dot = exact_dots):
    """``(best, lo, lo2)``: per query row, the earliest index of the
    smallest angle and the two smallest angles (``lo2`` is ``sentinel``
    when the database has one row).  ``angle`` maps keys to angles and
    never increases.  The tie rule is the module docstring's."""
    best, w1, w2 = top_two(queries, database, dot)
    lo = angle(w1)
    if len(database) == 1:
        return best, lo, np.full_like(lo, sentinel)
    lo2 = angle(w2)
    tied = np.flatnonzero(lo2 == lo)
    low = _floor(angle, w1[tied])
    shared = low < w1[tied]
    tied, low = tied[shared], low[shared]
    if tied.size:
        stop = best[tied].max() + 1
        for e, tile, keys in _tiles(queries, database, dot, tied, stop):
            hits = keys >= low[tile, None]
            earliest = np.where(hits.any(axis=1), hits.argmax(axis=1) + e,
                                stop)
            best[tied[tile]] = np.minimum(best[tied[tile]], earliest)
    return best, lo, lo2
