"""Cycle-timed, bit-faithful model of the pipelined matching accelerator,
with the roofline and blocking model that sizes its memory bandwidth.

The modeled core streams database descriptors past a cached block of query
descriptors:

* queries are split into blocks of ``block_size`` (by default
  :data:`FETCH_CYCLES` = 33, one query per cycle of a record's fetch, so
  compute never starves);
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
cycle count is the closed form :func:`predict_cycles`, fill + m * n + idle
slots + drain.

Its verdicts come from the tiled search of :mod:`siftmatch.search` on the
16-bit raws of both sets, whatever file they came from: a float64 GEMM on
one integer-valued tile gives the adder tree's integer sum ``w`` exactly,
``quantize_array(w * 2**-30)`` (exact scalings, round-half-even, saturated
at 0xFFFF) is its narrowing, and :func:`arccos_table` holds
``cordic_arccos`` of every UQ1.15 input.  A block flush only resets the
tracker, so the search equals the scalar composition bit for bit.

The search ranks by the dot, not by the angle.  The narrowing never
decreases as ``w`` grows and the table never increases over all 65536 raws
(both checked exhaustively by the tests), so the angle ``g(w) =
table[narrow(w)]`` never increases, and only the two largest dots of a row
are narrowed and looked up.  Distinct raws can share an angle (raws 10171
and 10172 both map to 20565), and the search's tie rule finds the smallest
dot with a tied angle from ``g`` alone.  Every value here is an integer
below 2**53, so all of it is exact in float64.

One rate rule, :func:`_rate` (the roofline of Williams, Waterman and
Patterson, 2009), gives both throughput figures: ``reuse`` dot products per
transfer of ``nbytes``, which holds the port for ``cycles = ceil(nbytes /
bytes_per_cycle)`` whole cycles (no fractional dispatch), run at the clock
when ``reuse >= cycles`` and at ``clock * reuse / cycles`` below.  The
roofline (:func:`attainable_throughput`) uses a transfer once and moves
``descriptor_bytes``, by default the 256-byte payload of 128 16-bit
elements that the paper's model counts: 25 M op/s at 64 bytes/cycle (4
cycles, not the 24 M sometimes quoted), 3.125 M on the core's 8-byte port
at 100 MHz (32 cycles).  Blocking (:func:`effective_throughput_with_blocking`)
uses a fetch ``block_size`` times and moves the whole 260-byte record over
that port in :data:`FETCH_CYCLES` = 33 cycles: 3.03 M op/s for a block of
one, the clock rate for a block of 33 or more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cordic import POLAR_ITERATIONS, SQRT_ITERATIONS, AngleSample, arccos_table
from .descriptors import DESCRIPTOR_LEN, RECORD_BYTES, Descriptor, DescriptorSet
from .fixedpoint import UQ1_15, UQ2_14, FxSample, quantize_array, round_shift_even
from .search import MatchColumns, exact_dots, in_bands, nearest_two

__all__ = [
    "DRAIN_CYCLES",
    "FETCH_CYCLES",
    "MinPairEntry",
    "PipelineConfig",
    "RooflinePoint",
    "RunReport",
    "attainable_throughput",
    "dot_product_core",
    "dot_raw_matrix",
    "effective_throughput_with_blocking",
    "match_check",
    "min_find",
    "modeled_run",
    "predict_cycles",
    "roofline_csv",
    "roofline_sweep",
    "run_pipeline",
]

THRESHOLD_MODES = ("exact_0_6", "binary_10011")
_SENTINEL_RAW = UQ2_14.max_raw
_ANGLE_LSB = UQ2_14.lsb

# Cycles from the last dot product entering the datapath to its verdict,
# stage by stage: the dot product (3 multiplier + 7 adder-tree stages),
# 1 - x^2 ahead of the square root, the two CORDIC cores, the min-find and
# the match check.
DRAIN_CYCLES = 10 + 4 + SQRT_ITERATIONS + POLAR_ITERATIONS + 1 + 3

PORT_BYTES_PER_CYCLE = 8
FETCH_CYCLES = math.ceil(RECORD_BYTES / PORT_BYTES_PER_CYCLE)


@dataclass(frozen=True)
class PipelineConfig:
    """Block geometry, clock, threshold mode and roofline transfer size."""

    block_size: int = FETCH_CYCLES
    clock_hz: float = 100e6
    threshold_mode: str = THRESHOLD_MODES[0]
    descriptor_bytes: int = 2 * DESCRIPTOR_LEN

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be positive and finite")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if not 1 <= self.descriptor_bytes <= sys.float_info.max:
            raise ValueError("descriptor_bytes must be >= 1 and fit a float")

    def blocks(self, m: int) -> int:
        """Query blocks for ``m`` queries: ``ceil(m / block_size)``."""
        return -(-m // self.block_size)


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
    def sentinel(cls) -> "MinPairEntry":
        top = AngleSample(FxSample(_SENTINEL_RAW, UQ2_14))
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


def dot_raw_matrix(queries: DescriptorSet, db: DescriptorSet) -> np.ndarray:
    """All-pairs UQ1.15 dot raws, bit-identical to :func:`dot_product_core`."""
    return quantize_array(exact_dots(queries.raws, db.raws) * UQ1_15.lsb ** 2)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one accelerator run: cycle count, timing, and verdicts
    (``None`` when they went to an ``emit`` band by band)."""

    total_cycles: int
    elapsed_seconds_at_clock: float
    clock_hz: float
    blocks_processed: int
    dot_products_executed: int
    matches: MatchColumns | None


def predict_cycles(m: int, n: int, cfg: PipelineConfig = PipelineConfig()) -> int:
    """Closed-form cycle count for matching m queries against n database
    rows: ``fill + m * n + idle + DRAIN_CYCLES``.  The fill fetches the
    first block's ``block_size`` 260-byte records, FETCH_CYCLES each; later
    fetches overlap compute.  Each dot product takes one slot, and the
    ``(blocks(m) * block_size - m) * n`` idle slots of a partial final block
    still burn theirs.  This is the run's timing for ``block_size >=
    FETCH_CYCLES``, the default included; a smaller block also waits on the
    port, at the rate of :func:`effective_throughput_with_blocking`.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    fill = cfg.block_size * FETCH_CYCLES
    return fill + cfg.blocks(m) * n * cfg.block_size + DRAIN_CYCLES


def modeled_run(m: int, n: int,
                cfg: PipelineConfig = PipelineConfig()) -> RunReport:
    """The report of a run of ``m`` queries against ``n`` database rows
    with ``matches=None``; ``ValueError`` when a tiny clock or a huge cycle
    count makes the modeled time overflow to infinity."""
    cycles = predict_cycles(m, n, cfg)
    try:
        elapsed = cycles / cfg.clock_hz
    except OverflowError:  # cycles beyond the float range
        raise ValueError("the modeled time overflows: too many cycles "
                         "for a float") from None
    if not math.isfinite(elapsed):
        raise ValueError(f"clock_hz {cfg.clock_hz!r} is too small: "
                         f"{cycles} cycles take {elapsed} s")
    return RunReport(total_cycles=cycles, elapsed_seconds_at_clock=elapsed,
                     clock_hz=cfg.clock_hz, blocks_processed=cfg.blocks(m),
                     dot_products_executed=m * n, matches=None)


def run_pipeline(queries: DescriptorSet, db: DescriptorSet,
                 cfg: PipelineConfig = PipelineConfig(),
                 emit: Callable[[int, MatchColumns], None] | None = None
                 ) -> RunReport:
    """Run the modeled accelerator: verdicts plus an exact cycle count.

    No per-block loop: the report is :func:`modeled_run`'s (its
    ``total_cycles`` is :func:`predict_cycles`), and the verdicts come from
    one tiled search (see the module docstring).

    Given ``emit``, the queries are searched in bands, as the core drains a
    block's verdicts before the next (:func:`~siftmatch.search.in_bands`):
    ``emit(start, matches)`` receives the verdicts of queries ``start:start
    + len(matches)``, and the report returned has ``matches=None``.  Every
    argument is checked before the first band.
    """
    m, n = len(queries), len(db)
    if m == 0 or n == 0:
        raise ValueError("query and database sets must be non-empty")

    run = modeled_run(m, n, cfg)
    table = arccos_table()

    def angle(w):
        return table[quantize_array(w * UQ1_15.lsb ** 2)]

    def band(rows: slice, window) -> MatchColumns:
        best, amin, asec = nearest_two(window, db.raw_rows, angle,
                                       _SENTINEL_RAW)
        amin = amin.astype(np.int64)
        asec = asec.astype(np.int64)
        min_angle = amin * _ANGLE_LSB
        second_angle = asec * _ANGLE_LSB
        if cfg.threshold_mode == "binary_10011":
            matched = (amin << 5) < (asec << 1) + asec + (asec << 4)
        else:
            matched = min_angle < 0.6 * second_angle
        return MatchColumns(best, min_angle, second_angle, matched,
                            queries.xy[rows], db.xy[best], amin, asec)

    return replace(run, matches=in_bands(queries.raw_rows, band, emit))


@dataclass(frozen=True)
class RooflinePoint:
    bandwidth_bytes_per_s: float
    attainable_ops_per_s: float
    bound: str  # "memory" | "compute"


def _rate(clock_hz: float, reuse: int, nbytes: int,
          bytes_per_cycle: float) -> float:
    """The rate of ``reuse`` dot products per ``nbytes`` moved at
    ``bytes_per_cycle`` (module docstring), capped by integers: ``clock_hz *
    reuse / cycles`` can round below the clock at ``reuse == cycles``."""
    cycles = math.ceil(nbytes / bytes_per_cycle)
    return clock_hz if reuse >= cycles else clock_hz * reuse / cycles


def attainable_throughput(bandwidth: float,
                          cfg: PipelineConfig = PipelineConfig()) -> RooflinePoint:
    """Roofline op rate at a memory bandwidth (bytes/s): one dot product
    per ``cfg.descriptor_bytes`` moved (the 256-byte payload by default) at
    ``bandwidth / clock_hz`` bytes per cycle; "compute" bound at the clock."""
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    bytes_per_cycle = bandwidth / cfg.clock_hz
    if bytes_per_cycle == math.inf:
        raise ValueError(f"bandwidth {bandwidth!r} at clock_hz {cfg.clock_hz!r} "
                         "moves an unbounded number of bytes per cycle")
    try:
        ops = _rate(cfg.clock_hz, 1, cfg.descriptor_bytes, bytes_per_cycle)
    except (ZeroDivisionError, OverflowError):  # no bytes, or too many cycles
        raise ValueError(f"bandwidth {bandwidth!r} is too small to move a "
                         "descriptor") from None
    # At reuse 1 the rate is the clock exactly when the rule caps it.
    return RooflinePoint(bandwidth, ops,
                         "compute" if ops == cfg.clock_hz else "memory")


def roofline_sweep(cfg: PipelineConfig,
                   bandwidths: list[float]) -> list[RooflinePoint]:
    """One roofline point per bandwidth; throughput is monotone in bandwidth."""
    if not bandwidths:
        raise ValueError("bandwidth list must be non-empty")
    return [attainable_throughput(bw, cfg) for bw in bandwidths]


def effective_throughput_with_blocking(cfg: PipelineConfig) -> float:
    """Op rate with a block cache of ``cfg.block_size`` queries, each
    260-byte record fetched over the 8-byte port feeding the whole block:
    the clock from :data:`FETCH_CYCLES` queries up, ``block_size /
    FETCH_CYCLES`` of it below, where compute waits on the port."""
    return _rate(cfg.clock_hz, cfg.block_size, RECORD_BYTES,
                 PORT_BYTES_PER_CYCLE)


def roofline_csv(points: list[RooflinePoint]) -> bytes:
    """ASCII ``bandwidth_bytes_per_s, ops_per_s, bound`` rows for plotting."""
    return "".join(["bandwidth_bytes_per_s,ops_per_s,bound\n", *(
        f"{p.bandwidth_bytes_per_s!r},{p.attainable_ops_per_s!r},{p.bound}\n"
        for p in points)]).encode("ascii")
