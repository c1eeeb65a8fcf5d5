"""Floating-point reference matcher: cosine angle distance plus ratio test.

For each query descriptor the matcher computes the angular distance
arccos(clamp(dot, 0, 1)) to every database descriptor, takes the two
smallest, and accepts the nearest neighbor only when
``min < threshold * second_min`` (threshold 0.6 by default).

Dot products equal a strict left-to-right sum over the 128 elements, so
results are bit-reproducible.  :func:`match_all` runs the tiled search of
:mod:`siftmatch.search`.  When both sets are ``raw_exact`` (a ``.siftdb`` load
with every norm in range, or a ``from_raws`` set) it takes one BLAS GEMM per
tile on the integer raws: every partial sum is exact, and ``w * 2**-30`` is a
power-of-two scaling, so the sums ``w`` give the left-to-right bits of the
float elements ``raw * 2**-15``, and no float copy of a set is made.  Other
pairs (with a ``.siftd`` or an off-norm ``.siftdb`` load) take the
strict-order :func:`dot_matrix` on the float elements, ranked by the negated
angle: each such key is the smallest with its angle, so they never take the
search's follow-up pass.  Both sides are read one tile at a time through
:attr:`~siftmatch.descriptors.DescriptorSet.float_rows`, so a streamed file
stays streamed.

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
``w_j >= 2**30``: ``2**30`` is the floor that the search's bisection finds.
Everything here is stateless.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .descriptors import DESCRIPTOR_LEN, Descriptor, DescriptorSet
from .fixedpoint import UQ1_15
from .search import MatchColumns, exact_dots, in_bands, nearest_two

__all__ = [
    "SECOND_MIN_SURROGATE",
    "dot_matrix",
    "dot_product",
    "match_all",
]

# Stand-in second minimum for a single-descriptor database: no real angle can
# reach pi, so the ratio test degenerates to "min < threshold * pi".
SECOND_MIN_SURROGATE = math.pi

DEFAULT_THRESHOLD = 0.6


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
    return _angles(w * UQ1_15.lsb ** 2)


def match_all(queries: DescriptorSet, db: DescriptorSet,
              threshold: float = DEFAULT_THRESHOLD,
              emit: Callable[[int, MatchColumns], None] | None = None
              ) -> MatchColumns | None:
    """Match every query descriptor; output order equals query order.

    Given ``emit``, the queries are searched in bands
    (:func:`~siftmatch.search.in_bands`): ``emit(start, matches)`` receives
    the verdicts of queries ``start:start + len(matches)``, after every
    argument is checked, and ``None`` is returned.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if len(queries) == 0 or len(db) == 0:
        raise ValueError("query and database sets must be non-empty")
    if queries.raw_exact and db.raw_exact:
        source, database, angle, dot = (queries.raw_rows, db.raw_rows,
                                        _raw_angle, exact_dots)
    else:  # each key is the smallest with its angle: no follow-up pass
        source, database, angle, dot = (queries.float_rows, db.float_rows,
                                        np.negative, _strict_keys)

    def band(rows: slice, window) -> MatchColumns:
        best, low, high = nearest_two(window, database, angle,
                                      SECOND_MIN_SURROGATE, dot)
        return MatchColumns(best, low, high, low < threshold * high,
                            queries.xy[rows], db.xy[best])

    return in_bands(source, band, emit)
