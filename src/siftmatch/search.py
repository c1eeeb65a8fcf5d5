"""Tiled top-2 search shared by the pipeline model and the reference matcher.

:func:`top_two` walks the queries in row tiles of about :data:`TILE_DOTS`
dot products, so the working set is O(tile * n), not O(m * n).  An engine
scorer maps each tile's dot products to angles; ``argmin`` (the earliest
index wins an exact tie, as in the streaming two-minimum tracker) and a
``kth=1`` partition reduce them.

:func:`exact_dots` is one float64 BLAS GEMM.  On UQ1.15 raws (integers
below 2**16, converted to float64 one query tile at a time) each product is
below 2**32 and a 128-term sum below 2**39 < 2**53, so every partial sum is
exact: any summation order gives the integer adder tree's sum ``w``, bit for
bit.  Scaling by a power of two is exact too, so ``w * 2**-30`` equals the
GEMM of the float elements ``raw * 2**-15`` and the strict left-to-right
float loop over them; the engines scale the integer sums per tile instead
of holding a float copy of a whole set.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["TILE_DOTS", "exact_dots", "top_two"]

# Dot products per query tile: enough rows to keep BLAS busy, few enough that
# one tile's scores stay in cache (512 KiB at float64).
TILE_DOTS = 1 << 16


def exact_dots(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """(m, 128) x (n, 128) -> (m, n) float64 dot products; exact on raws and
    on raw-exact floats."""
    database = np.asarray(database, dtype=np.float64)
    return np.asarray(queries, dtype=np.float64) @ database.T


def top_two(queries: np.ndarray, database: np.ndarray,
            score: Callable[[np.ndarray], np.ndarray], sentinel,
            dot: Callable[[np.ndarray, np.ndarray], np.ndarray] = exact_dots):
    """``(best, first, second)``: per query row, the index of the smallest
    score and the two smallest scores; ``second`` is ``sentinel`` when the
    database has one row.  ``queries`` and ``database`` are raws or float
    elements; each query tile is converted to float64 inside the loop and the
    database once.  ``dot`` maps a query tile and the database to (rows, n)
    dot products and ``score`` maps those to angles, in place or not.
    """
    database = np.asarray(database, dtype=np.float64)
    m, n = len(queries), len(database)
    rows = max(1, TILE_DOTS // n)
    best = np.empty(m, dtype=np.intp)
    first = second = None
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        tile = np.asarray(queries[start:stop], dtype=np.float64)
        scores = score(dot(tile, database))
        if first is None:
            first = np.empty(m, dtype=scores.dtype)
            second = np.full(m, sentinel, dtype=scores.dtype)
        best[start:stop] = scores.argmin(axis=1)
        if n == 1:
            first[start:stop] = scores[:, 0]
        else:
            two = np.partition(scores, 1, axis=1)
            first[start:stop] = two[:, 0]
            second[start:stop] = two[:, 1]
    return best, first, second
