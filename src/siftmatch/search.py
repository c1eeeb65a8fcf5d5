"""Tiled top-2 search shared by the pipeline model and the reference matcher.

:func:`top_two` tiles both axes: each tile is up to :data:`TILE_COLS`
database rows times :data:`TILE_ROWS` query rows, or more query rows when
that makes fewer than :data:`TILE_DOTS` dot products.  Both operands are
converted to float64 one tile at a time, so the working set is O(tile) and
no float copy of a whole set is made.  Each engine supplies the per-tile reduction: it maps a tile's dot products to,
per query row, ``(argmin, lo, lo2)``, the index of the smallest score within
the tile and the two smallest scores (``lo2`` is the engine's sentinel on a
one-column tile).  :func:`by_score` is the plain one: score every dot, then
``argmin`` (the earliest index wins an exact tie) and a ``kth=1`` partition.

Per query, a running ``(best, first, second)`` holds the two smallest scores
of the database tiles seen so far and the earliest index of the smallest.
A tile at offset ``e`` is merged by::

    take   = lo < first
    second = where(take, min(first, lo2), min(second, lo))
    first  = where(take, lo, first);  best = where(take, argmin + e, best)

If ``lo < first``, every earlier score is above ``lo``, so ``lo`` is the new
minimum, its tile's earliest index is the earliest overall, and the runner-up
is the smaller of the old minimum and the tile's second.  Otherwise the old
minimum stays and the runner-up is the smaller of the old second and ``lo``.
Both cases give the two smallest of the union, counting duplicates.  The
strict ``<`` keeps the earlier tile's index when ``lo == first``, exactly as
the streaming two-minimum tracker (``min_find``) keeps its incumbent, so the
result does not depend on where the tile edges fall.

:func:`exact_dots` is one float64 BLAS GEMM.  On UQ1.15 raws (integers
below 2**16) each product is below 2**32 and a 128-term sum below
2**39 < 2**53, so every partial sum is exact: any summation order gives the
integer adder tree's sum ``w``, bit for bit.  Scaling by a power of two is
exact too, so ``w * 2**-30`` equals the GEMM of the float elements
``raw * 2**-15`` and the strict left-to-right float loop over them; the
engines scale the integer sums per tile instead of holding a float copy of
a whole set.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["TILE_COLS", "TILE_DOTS", "TILE_ROWS", "by_score", "exact_dots",
           "top_two"]

# Tile geometry, measured on a 2-core OpenBLAS host.  A tile is up to
# TILE_COLS database rows by at least TILE_ROWS query rows: the 4000 x 4000
# GEMM takes about 0.05 s in 128 x 1024 tiles against 0.10 s in the 16 x 4000
# tiles that TILE_DOTS alone gives.  A database smaller than TILE_COLS makes
# taller tiles of about TILE_DOTS dots, so many queries against few rows
# still take few tiles.  Tiles of 2**18 dots were no faster end to end and
# raised peak RSS by 5-15% (a tile's dots, the reference's temporaries and,
# against 64 database rows, a 4 MiB float64 query tile).
TILE_DOTS = 1 << 16
TILE_ROWS = 1 << 7
TILE_COLS = 1 << 10

Reduction = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def exact_dots(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """(m, 128) x (n, 128) -> (m, n) float64 dot products; exact on raws and
    on raw-exact floats."""
    database = np.asarray(database, dtype=np.float64)
    return np.asarray(queries, dtype=np.float64) @ database.T


def by_score(score: Callable[[np.ndarray], np.ndarray], sentinel) -> Reduction:
    """The reduction that maps every dot to a score (in place or not) and
    keeps the earliest argmin and the two smallest scores of each row."""
    def reduce(dots):
        scores = score(dots)
        best = scores.argmin(axis=1)
        if scores.shape[1] == 1:
            return best, scores[:, 0], np.full(len(scores), sentinel,
                                               dtype=scores.dtype)
        scores.partition(1, axis=1)  # copies free the tile before the next
        return best, scores[:, 0].copy(), scores[:, 1].copy()
    return reduce


def top_two(queries: np.ndarray, database: np.ndarray, reduce: Reduction,
            dot: Callable[[np.ndarray, np.ndarray], np.ndarray] = exact_dots):
    """``(best, first, second)``: per query row, the index of the smallest
    score and the two smallest scores.  ``queries`` and ``database`` are raws
    or float elements; ``dot`` maps a float64 query tile and database tile to
    their (rows, cols) dot products, which ``reduce`` may overwrite.
    """
    m, n = len(queries), len(database)
    cols = min(n, TILE_COLS)
    rows = max(TILE_ROWS, TILE_DOTS // cols)
    best = first = second = None
    for e in range(0, n, cols):
        block = np.asarray(database[e:e + cols], dtype=np.float64)
        for start in range(0, m, rows):
            tile = slice(start, start + rows)
            j, lo, lo2 = reduce(
                dot(np.asarray(queries[tile], dtype=np.float64), block))
            if e == 0:
                if best is None:
                    best = np.empty(m, dtype=np.intp)
                    first = np.empty(m, dtype=lo.dtype)
                    second = np.empty(m, dtype=lo.dtype)
                best[tile], first[tile], second[tile] = j, lo, lo2
                continue
            take = lo < first[tile]
            second[tile] = np.where(take, np.minimum(first[tile], lo2),
                                    np.minimum(second[tile], lo))
            first[tile] = np.where(take, lo, first[tile])
            best[tile] = np.where(take, j + e, best[tile])
    return best, first, second
