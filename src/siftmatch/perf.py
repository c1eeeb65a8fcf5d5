"""Roofline model: attainable matching throughput vs memory bandwidth.

One matching operation consumes one full descriptor transfer
(``descriptor_bytes``, 256 by default: 128 16-bit elements, coordinates
excluded).  A descriptor therefore occupies the memory port for
``ceil(descriptor_bytes / bytes_per_cycle)`` cycles and throughput is the
clock rate divided by that, capped at the compute peak.  The cycle count is
a ceiling because a descriptor cannot be dispatched fractionally; at
64 bytes/cycle this yields 25 M op/s (4 cycles each), not the 24 sometimes
quoted for that point.

:func:`effective_throughput_with_blocking` models the block-cache fix: once
the cached block is at least as large as the per-descriptor fetch time, a
fetched descriptor always has a full block to burn cycles against and the
core runs at clock rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RooflineConfig",
    "RooflinePoint",
    "attainable_throughput",
    "effective_throughput_with_blocking",
    "roofline_sweep",
    "write_roofline_csv",
]


@dataclass(frozen=True)
class RooflineConfig:
    clock_hz: float = 100e6
    descriptor_bytes: int = 256
    peak_ops_per_cycle: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be positive and finite")
        if self.descriptor_bytes < 1:
            raise ValueError("descriptor_bytes must be >= 1")
        if self.peak_ops_per_cycle < 1:
            raise ValueError("peak_ops_per_cycle must be >= 1")

    @property
    def peak_ops_per_s(self) -> float:
        return self.clock_hz * self.peak_ops_per_cycle


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
    cycles = cfg.descriptor_bytes / bytes_per_cycle if bytes_per_cycle else math.inf
    if cycles == math.inf:
        raise ValueError(f"bandwidth {bandwidth!r} is too small to move a descriptor")
    cycles_per_descriptor = math.ceil(cycles)
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


def effective_throughput_with_blocking(cfg: RooflineConfig, block_size: int,
                                       fetch_cycles_per_descriptor: int = 33) -> float:
    """Op rate with a block cache of ``block_size`` descriptors.

    With ``block_size >= fetch_cycles_per_descriptor`` the fetch of the next
    descriptor hides entirely behind the block's compute cycles and the core
    sustains clock rate; smaller blocks expose the remaining fetch stall.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if fetch_cycles_per_descriptor < 1:
        raise ValueError("fetch_cycles_per_descriptor must be >= 1")
    if block_size >= fetch_cycles_per_descriptor:
        return cfg.peak_ops_per_s
    return cfg.peak_ops_per_s * block_size / fetch_cycles_per_descriptor


def write_roofline_csv(points: list[RooflinePoint], fileobj) -> None:
    """Emit ``bandwidth_bytes_per_s, ops_per_s, bound`` rows for plotting."""
    fileobj.write("bandwidth_bytes_per_s,ops_per_s,bound\n")
    for p in points:
        fileobj.write(f"{p.bandwidth_bytes_per_s!r},{p.attainable_ops_per_s!r},{p.bound}\n")
