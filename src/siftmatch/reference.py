"""Floating-point reference matcher: cosine angle distance plus ratio test.

For each query descriptor the matcher computes the angular distance
arccos(clamp(dot, 0, 1)) to every database descriptor, takes the two
smallest, and accepts the nearest neighbor only when
``min < threshold * second_min`` (threshold 0.6 by default).

Dot products equal a strict left-to-right sum over the 128 elements, so
results are bit-reproducible.  :func:`match_all` runs the tiled search of
:mod:`siftmatch.search` with one BLAS GEMM per tile when both sets are
``raw_exact`` (every ``.siftdb`` load): every partial sum is exact there, so
any summation order gives the left-to-right bits.  Other sets (text files,
``from_floats``) take the strict-order :func:`dot_matrix`, one tile at a
time.  Everything here is stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .descriptors import DESCRIPTOR_LEN, Descriptor, DescriptorSet
from .search import exact_dots, top_two

__all__ = [
    "MatchResult",
    "SECOND_MIN_SURROGATE",
    "angular_distance",
    "dot_matrix",
    "dot_product",
    "match_all",
    "match_one",
    "match_results",
]

# Stand-in second minimum for a single-descriptor database: no real angle can
# reach pi, so the ratio test degenerates to "min < threshold * pi".
SECOND_MIN_SURROGATE = math.pi

DEFAULT_THRESHOLD = 0.6


@dataclass(frozen=True)
class MatchResult:
    """Verdict for one query descriptor.

    ``min_angle <= second_min_angle`` always; ``matched`` implies
    ``best_index`` is set.  ``min_raw``/``second_min_raw`` are populated only
    by the fixed-point pipeline engine (UQ2.14 raws).  Field order is the
    key order of a report row, which is ``vars(result)``.
    """

    query_index: int
    matched: bool
    best_index: int | None
    min_angle: float
    second_min_angle: float
    query_xy: tuple[int, int]
    best_xy: tuple[int, int] | None
    min_raw: int | None = None
    second_min_raw: int | None = None


def dot_matrix(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """All-pairs dot products, accumulated left-to-right over the elements.

    ``queries`` is (m, 128), ``database`` is (n, 128); returns (m, n).
    Each cell sees the identical float64 addition sequence as
    :func:`dot_product`, so the two agree bitwise.
    """
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    acc = np.zeros((queries.shape[0], database.shape[0]), dtype=np.float64)
    for i in range(DESCRIPTOR_LEN):
        acc += queries[:, i, None] * database[None, :, i]
    return acc


def dot_product(a: Descriptor, b: Descriptor) -> float:
    """Dot product of two descriptors in float arithmetic (left-to-right sum)."""
    if a.elements.shape != (DESCRIPTOR_LEN,) or b.elements.shape != (DESCRIPTOR_LEN,):
        raise ValueError(f"descriptors must have {DESCRIPTOR_LEN} elements")
    return float(dot_matrix(a.elements[None, :], b.elements[None, :])[0, 0])


def angular_distance(a: Descriptor, b: Descriptor) -> float:
    """arccos of the clamped dot product; range [0, pi/2] for unit vectors."""
    return float(np.arccos(np.clip(dot_product(a, b), 0.0, 1.0)))


def _angles(dots: np.ndarray) -> np.ndarray:
    """arccos of the clamped dot products, in place."""
    return np.arccos(np.clip(dots, 0.0, 1.0, out=dots), out=dots)


def match_results(queries: DescriptorSet, db: DescriptorSet, best: np.ndarray,
                  min_angle: np.ndarray, second_angle: np.ndarray,
                  matched: np.ndarray, min_raw: np.ndarray | None = None,
                  second_raw: np.ndarray | None = None) -> list[MatchResult]:
    """One :class:`MatchResult` per query from columnar search results."""
    no_raws = [None] * len(best)
    return [MatchResult(k, *row) for k, row in enumerate(zip(
        matched.tolist(), best.tolist(), min_angle.tolist(),
        second_angle.tolist(), map(tuple, queries.xy.tolist()),
        map(tuple, db.xy[best].tolist()),
        no_raws if min_raw is None else min_raw.tolist(),
        no_raws if second_raw is None else second_raw.tolist()))]


def match_one(query: Descriptor, db: DescriptorSet,
              threshold: float = DEFAULT_THRESHOLD,
              query_index: int = 0) -> MatchResult:
    """Match a single descriptor against a database.

    The database must be non-empty; with a single entry the second minimum
    is the pi surrogate (see :data:`SECOND_MIN_SURROGATE`).
    """
    single = DescriptorSet("query", query.elements[None, :], query.raws[None, :],
                           np.array([query.xy], dtype=np.uint16))
    return replace(match_all(single, db, threshold)[0], query_index=query_index)


def match_all(queries: DescriptorSet, db: DescriptorSet,
              threshold: float = DEFAULT_THRESHOLD) -> list[MatchResult]:
    """Match every query descriptor; output order equals query order."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if len(queries) == 0:
        return []
    if len(db) == 0:
        raise ValueError("database is empty")
    exact = queries.raw_exact and db.raw_exact
    best, low, high = top_two(queries.floats, db.floats, _angles,
                              SECOND_MIN_SURROGATE,
                              exact_dots if exact else dot_matrix)
    return match_results(queries, db, best, low, high, low < threshold * high)
