"""Roofline model: attainable matching throughput vs memory bandwidth.

One matching operation consumes one full descriptor transfer
(``descriptor_bytes``, 256 by default: the 128 16-bit elements a match
consumes, as the paper's model counts them, coordinates excluded).  A
descriptor therefore occupies the memory port for ``ceil(descriptor_bytes /
bytes_per_cycle)`` cycles and throughput is the clock rate divided by that,
capped at the compute peak of one dot product per cycle (``clock_hz`` op/s).
The cycle count is a ceiling because a descriptor cannot be dispatched
fractionally; at 64 bytes/cycle this yields 25 M op/s (4 cycles each), not
the 24 sometimes quoted for that point.

The core's own port moves :data:`PORT_BYTES_PER_CYCLE` = 8 bytes per cycle,
so a 260-byte record (coordinates included) takes :data:`FETCH_CYCLES` =
ceil(260 / 8) = 33 cycles to fetch, one more than the roofline's 32 at this
port: the fetch moves the whole record, the roofline the payload alone.  The
default query block and the fill of ``predict_cycles`` use this value too.
The blocking model (:func:`effective_throughput_with_blocking`) follows:
once the cached block holds at least that many queries, a fetched descriptor
always has a full block to burn cycles against and the core runs at clock
rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .descriptors import DESCRIPTOR_LEN, RECORD_BYTES

__all__ = [
    "FETCH_CYCLES",
    "RooflineConfig",
    "RooflinePoint",
    "attainable_throughput",
    "effective_throughput_with_blocking",
    "roofline_csv",
    "roofline_sweep",
]

PORT_BYTES_PER_CYCLE = 8
FETCH_CYCLES = math.ceil(RECORD_BYTES / PORT_BYTES_PER_CYCLE)


@dataclass(frozen=True)
class RooflineConfig:
    clock_hz: float = 100e6
    descriptor_bytes: int = 2 * DESCRIPTOR_LEN

    def __post_init__(self) -> None:
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be positive and finite")
        if self.descriptor_bytes < 1:
            raise ValueError("descriptor_bytes must be >= 1")

    @property
    def peak_ops_per_s(self) -> float:
        """The compute peak: one dot product per cycle."""
        return self.clock_hz


@dataclass(frozen=True)
class RooflinePoint:
    bandwidth_bytes_per_s: float
    attainable_ops_per_s: float
    bound: str  # "memory" | "compute"


def attainable_throughput(bandwidth: float,
                          cfg: RooflineConfig = RooflineConfig()) -> RooflinePoint:
    """Attainable op rate at a given memory bandwidth (bytes/s)."""
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    bytes_per_cycle = bandwidth / cfg.clock_hz
    if bytes_per_cycle == math.inf:
        raise ValueError(f"bandwidth {bandwidth!r} at clock_hz {cfg.clock_hz!r} "
                         "moves an unbounded number of bytes per cycle")
    try:
        cycles_per_descriptor = math.ceil(cfg.descriptor_bytes / bytes_per_cycle)
    except (ZeroDivisionError, OverflowError):  # no bytes, or too many cycles
        raise ValueError(f"bandwidth {bandwidth!r} is too small to move a "
                         "descriptor") from None
    ops = cfg.clock_hz / cycles_per_descriptor
    if ops >= cfg.peak_ops_per_s:
        return RooflinePoint(bandwidth, cfg.peak_ops_per_s, "compute")
    return RooflinePoint(bandwidth, ops, "memory")


def roofline_sweep(cfg: RooflineConfig,
                   bandwidths: list[float]) -> list[RooflinePoint]:
    """One roofline point per bandwidth; throughput is monotone in bandwidth."""
    if not bandwidths:
        raise ValueError("bandwidth list must be non-empty")
    return [attainable_throughput(bw, cfg) for bw in bandwidths]


def effective_throughput_with_blocking(cfg: RooflineConfig, block_size: int) -> float:
    """Op rate with a block cache of ``block_size`` descriptors.

    With ``block_size >= FETCH_CYCLES`` the fetch of the next descriptor
    hides entirely behind the block's compute cycles and the core sustains
    clock rate; smaller blocks expose the remaining fetch stall.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if block_size >= FETCH_CYCLES:
        return cfg.peak_ops_per_s
    return cfg.peak_ops_per_s * block_size / FETCH_CYCLES


def roofline_csv(points: list[RooflinePoint]) -> bytes:
    """ASCII ``bandwidth_bytes_per_s, ops_per_s, bound`` rows for plotting."""
    return "".join(["bandwidth_bytes_per_s,ops_per_s,bound\n", *(
        f"{p.bandwidth_bytes_per_s!r},{p.attainable_ops_per_s!r},{p.bound}\n"
        for p in points)]).encode("ascii")
