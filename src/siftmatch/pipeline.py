"""Cycle-timed, bit-faithful model of the pipelined matching accelerator.

The modeled core streams database descriptors past a cached block of query
descriptors:

* queries are split into blocks of ``block_size`` (33 by default: a 260-byte
  descriptor at 8 bytes per cycle takes 33 cycles to fetch, and the block
  cache holds exactly one descriptor per fetch-cycle so compute never
  starves);
* every database descriptor entering the datapath performs one dot product
  per cycle against each cached query slot;
* each dot product is narrowed to UQ1.15 and converted to an angle by the
  CORDIC arccos unit;
* a streaming two-minimum tracker per query slot (flushed to 0xFFFF
  sentinels at block start) replaces sorting;
* the final ratio check multiplies by shifted-add constants only:
  ``min * 32 < second_min * 19`` realizes a 0.59375 threshold without a
  multiplier (``exact_0_6`` mode instead applies the reference 0.6 rule on
  the dequantized angles).

The scalar ops (:func:`dot_product_core`, ``cordic_arccos``,
:func:`min_find`, :func:`match_check`) are the specification and the test
oracle.  :func:`run_pipeline` does not re-enact the block schedule: its
cycle count is analytic and equals :func:`predict_cycles`:

    block_size * fetch_cycles            (serial fill of the first block;
                                          later fetches overlap compute)
  + ceil(m / block_size) * n * block_size (one dot product slot per cycle;
                                          idle slots of a partial final
                                          block still burn their cycles)
  + dot + cosine + min_find + match_check stages (drain of the last result)

Its verdicts come from the tiled search of :mod:`siftmatch.search`: an
exact float64 GEMM gives the adder tree's integer sum ``w``, ``rint(w *
2**-15)`` is its nearest-even narrowing, and :func:`arccos_table` holds
``cordic_arccos`` of every UQ1.15 input.  A block flush only resets the
tracker, so the search equals the scalar composition bit for bit.

Each invocation is an independent, deterministic state machine.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .cordic import AngleSample, CordicConfig, DEFAULT_CONFIG, arccos_table
from .descriptors import Descriptor, DescriptorSet
from .fixedpoint import UQ1_15, UQ2_14, FxSample, QFormat, round_shift_even
from .reference import MatchResult, match_results
from .search import exact_dots, top_two

__all__ = [
    "MinPairEntry",
    "PipelineConfig",
    "RunReport",
    "dot_product_core",
    "dot_raw_matrix",
    "match_check",
    "min_find",
    "predict_cycles",
    "run_pipeline",
    "write_matches_csv",
]

THRESHOLD_MODES = ("exact_0_6", "binary_10011")
_SENTINEL_RAW = 0xFFFF
_ANGLE_LSB = UQ2_14.lsb


@dataclass(frozen=True)
class PipelineConfig:
    """Block geometry, per-core pipeline depths, clock, and threshold mode."""

    block_size: int = 33
    fetch_cycles_per_descriptor: int = 33
    dot_product_stages: int = 10
    cosine_stages: int = 52
    match_check_stages: int = 3
    min_find_stages: int = 1
    clock_hz: float = 100e6
    threshold_mode: str = "exact_0_6"
    cordic: CordicConfig = DEFAULT_CONFIG

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.fetch_cycles_per_descriptor < 1:
            raise ValueError("fetch_cycles_per_descriptor must be >= 1")
        for name in ("dot_product_stages", "cosine_stages",
                     "match_check_stages", "min_find_stages"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be positive and finite")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(f"threshold_mode must be one of {THRESHOLD_MODES}")

    @property
    def drain_cycles(self) -> int:
        return (self.dot_product_stages + self.cosine_stages
                + self.min_find_stages + self.match_check_stages)


@dataclass(frozen=True)
class MinPairEntry:
    """Per-query-slot running (min, second-min) pair from the minimum cache.

    Freshly flushed entries hold 0xFFFF sentinels in both fields with
    ``init_flag`` set; any real angle displaces them on first update.
    """

    min: AngleSample
    second_min: AngleSample
    min_index: int | None = None
    init_flag: bool = True

    def __post_init__(self) -> None:
        if self.min.raw > self.second_min.raw:
            raise ValueError("min must be <= second_min")

    @classmethod
    def sentinel(cls, fmt: QFormat = UQ2_14) -> "MinPairEntry":
        top = AngleSample(FxSample(_SENTINEL_RAW, fmt))
        return cls(min=top, second_min=top, min_index=None, init_flag=True)


def min_find(current: AngleSample, current_index: int,
             prev: MinPairEntry) -> MinPairEntry:
    """One streaming update of the two-minimum tracker (strict comparisons).

    The tracked index follows the minimum only; an equal value never
    displaces the incumbent, so the earliest index wins ties.
    """
    if current.raw < prev.min.raw:
        return MinPairEntry(min=current, second_min=prev.min,
                            min_index=current_index, init_flag=False)
    if current.raw < prev.second_min.raw:
        return MinPairEntry(min=prev.min, second_min=current,
                            min_index=prev.min_index, init_flag=False)
    return prev


def match_check(entry: MinPairEntry, mode: str = "exact_0_6") -> bool:
    """Ratio-test verdict for a finished slot.

    ``binary_10011`` is the multiplier-free hardware rule
    ``min << 5  <  (second << 1) + second + (second << 4)``
    (i.e. 32*min < 19*second, a 19/32 = 0.59375 threshold);
    ``exact_0_6`` applies ``min < 0.6 * second`` on the dequantized angles.
    A still-flushed sentinel entry is never a match.
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {mode!r}")
    if entry.init_flag:
        return False
    min_raw = entry.min.raw
    sec_raw = entry.second_min.raw
    if mode == "binary_10011":
        return (min_raw << 5) < (sec_raw << 1) + sec_raw + (sec_raw << 4)
    return min_raw * _ANGLE_LSB < 0.6 * (sec_raw * _ANGLE_LSB)


def dot_product_core(a: Descriptor, b: Descriptor) -> FxSample:
    """Fixed-point dot product: 128 exact UQ2.30 products, a seven-level
    widening adder tree (UQ9.30), then saturating narrowing to UQ1.15."""
    products = a.raws.astype(np.int64) * b.raws.astype(np.int64)
    level = products
    for _ in range(7):
        level = level[0::2] + level[1::2]
    total = int(level[0])
    raw = int(round_shift_even(total, 15))
    return FxSample(min(raw, UQ1_15.max_raw), UQ1_15)


def _exact_floats(s: DescriptorSet) -> np.ndarray:
    return s.floats if s.raw_exact else s.raws * UQ1_15.lsb


def _narrow(dots: np.ndarray) -> np.ndarray:
    """Saturated nearest-even UQ1.15 raws of exact dots ``w * 2**-30``, in place."""
    np.multiply(dots, 2.0 ** UQ1_15.fraction_bits, out=dots)
    np.rint(dots, out=dots)
    np.minimum(dots, UQ1_15.max_raw, out=dots)
    return dots.astype(np.intp)


def dot_raw_matrix(queries: DescriptorSet, db: DescriptorSet) -> np.ndarray:
    """All-pairs UQ1.15 dot raws, bit-identical to :func:`dot_product_core`."""
    return _narrow(exact_dots(_exact_floats(queries), _exact_floats(db)))


@dataclass(frozen=True)
class RunReport:
    """Outcome of one accelerator run: cycle count, timing, and verdicts."""

    total_cycles: int
    elapsed_seconds_at_clock: float
    clock_hz: float
    blocks_processed: int
    dot_products_executed: int
    matches: list[MatchResult]

    def to_json_dict(self) -> dict:
        return {**vars(self), "matches": [dict(vars(m)) for m in self.matches]}


def write_matches_csv(matches: list[MatchResult], fileobj) -> None:
    """Emit verdicts as ``k, matched, best_index, qx, qy, bx, by, min_raw, secmin_raw``."""
    writer = csv.writer(fileobj)
    writer.writerow(["k", "matched", "best_index", "qx", "qy", "bx", "by",
                     "min_raw", "secmin_raw"])
    for m in matches:  # csv writes None as an empty field
        writer.writerow([m.query_index, int(m.matched), m.best_index,
                         *m.query_xy, *(m.best_xy or (None, None)),
                         m.min_raw, m.second_min_raw])


def predict_cycles(m: int, n: int, cfg: PipelineConfig = PipelineConfig()) -> int:
    """Closed-form cycle count for matching m queries against n database rows."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    blocks = -(-m // cfg.block_size)
    fill = cfg.block_size * cfg.fetch_cycles_per_descriptor
    return fill + blocks * n * cfg.block_size + cfg.drain_cycles


def run_pipeline(queries: DescriptorSet, db: DescriptorSet,
                 cfg: PipelineConfig = PipelineConfig(), *,
                 collect_matches: bool = True) -> RunReport:
    """Run the modeled accelerator: verdicts plus an exact cycle count.

    No per-block loop: ``total_cycles`` is :func:`predict_cycles`,
    ``blocks_processed`` is ``ceil(m / block_size)``, and the verdicts come
    from one tiled search (see the module docstring).
    ``collect_matches=False`` skips the verdicts and reports timing only.
    """
    m, n = len(queries), len(db)
    if m == 0 or n == 0:
        raise ValueError("query and database sets must be non-empty")

    cycles = predict_cycles(m, n, cfg)
    matches: list[MatchResult] = []
    if collect_matches:
        table = arccos_table(cfg.cordic)
        best, amin, asec = top_two(_exact_floats(queries), _exact_floats(db),
                                   lambda dots: table[_narrow(dots)],
                                   _SENTINEL_RAW)
        amin = amin.astype(np.int64)
        asec = asec.astype(np.int64)
        min_angle = amin * _ANGLE_LSB
        second_angle = asec * _ANGLE_LSB
        if cfg.threshold_mode == "binary_10011":
            matched = (amin << 5) < (asec << 1) + asec + (asec << 4)
        else:
            matched = min_angle < 0.6 * second_angle
        matches = match_results(queries, db, best, min_angle, second_angle,
                                matched, amin, asec)

    return RunReport(
        total_cycles=cycles,
        elapsed_seconds_at_clock=cycles / cfg.clock_hz,
        clock_hz=cfg.clock_hz,
        blocks_processed=-(-m // cfg.block_size),
        dot_products_executed=m * n,
        matches=matches,
    )
