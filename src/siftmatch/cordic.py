"""Fixed-point CORDIC kernels: square root, polar angle, and their arccos composition.

Models the arccos unit of the matching accelerator, which is built from two
CORDIC cores: a hyperbolic-mode square root and a circular vectoring stage
that translates ``(u, v) = (x, sqrt(1 - x^2))`` into the angle
``arccos(x) = atan2(v, u)``.  The polar magnitude the vectoring stage also
produces is never needed and is dropped.

Everything is integer shift-and-add arithmetic:

* The square root prescales its argument by a power of four so the
  hyperbolic iteration always starts inside its convergence region, applies
  the standard repeated-iteration schedule (indices 4, 13, 40, ... run
  twice), pre-compensates the CORDIC gain with a single constant multiply,
  and rescales the result by the exact half-power-of-two at the end.  Input
  zero maps to zero exactly.
* The polar stage runs plain circular vectoring micro-rotations starting at
  the 45-degree step, accumulating the angle in a wide fixed-point register.

The formats are fixed: inputs are UQ1.15 and angles UQ2.14.
:data:`SQRT_ITERATIONS` and :data:`POLAR_ITERATIONS` are the pipeline depths
of the two cores; ``pipeline.DRAIN_CYCLES`` counts them, with the 4-stage
``1 - x^2`` block, as the arccos unit's 4 + 37 + 11 = 52 stages.  The square
root runs exactly ``SQRT_ITERATIONS`` micro-rotations; the polar stage's
functional rotation count instead follows the output precision
(UQ2.14's 14 fraction bits + 2 = 16), because a vectoring datapath short
enough to round at 11 steps could not hit the documented angle accuracy.

All kernels run the same code path for scalars and numpy arrays, so batch
evaluation is bit-identical to the scalar ops, deterministic across runs
and platforms.  No constant comes from libm: the gain compensation is exact
integer arithmetic (the squared gain is an exact fraction, rounded through
``math.isqrt``) and the atan table is an integer literal.  Each
micro-rotation is a branch-free update in place: the sign of ``y`` selects
the direction by two's-complement negation, not by a select.

The kernels are the oracle, not the production path.  The pipeline looks
its angles up in :func:`arccos_table`, which reads them from the ROM file
``arccos_rom.z`` beside this module, as the hardware's unit holds fixed
outputs, so no command runs a kernel.  :func:`_kernel_table` runs the
kernels on every input; the tests check the table against it bit for bit
and check the ROM against it, and a change to a kernel rewrites the ROM
with ``python tools/arccos_rom.py``.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from .fixedpoint import UQ1_15, UQ2_14, FxSample, round_shift_even

__all__ = [
    "AngleSample",
    "CordicConfig",
    "DEFAULT_CONFIG",
    "POLAR_ITERATIONS",
    "SQRT_ITERATIONS",
    "arccos_raw_batch",
    "arccos_table",
    "cordic_arccos",
    "one_minus_sq_raw_batch",
    "polar_raw_batch",
    "sqrt_raw_batch",
]

# Pipeline depths of the square-root and polar cores.
SQRT_ITERATIONS = 37
POLAR_ITERATIONS = 11

# Internal datapath widths (guard bits over the 16-bit interfaces).
_WORK_FRAC = 24   # x/y registers of both cores
_GAIN_FRAC = 30   # gain pre-compensation constant
_Z_FRAC = 26      # polar angle accumulator

# Inputs per kernel run while _kernel_table is built: bounds its int64
# temporaries (about 18 alive at once) to a few hundred KB.
_TABLE_SLICE = 1 << 12

# The arccos unit's ROM: the angles of raws 0..0x8000 as little-endian
# uint16, zlib-compressed; tools/arccos_rom.py writes it from _kernel_table.
_ROM = os.path.join(os.path.dirname(__file__), "arccos_rom.z")


@dataclass(frozen=True)
class CordicConfig:
    """The arccos unit's fixed formats and the vectoring stage's rotation
    count, as class attributes; it has no settable field."""

    input_format = UQ1_15
    angle_format = UQ2_14
    polar_rotations = UQ2_14.fraction_bits + 2


DEFAULT_CONFIG = CordicConfig()


@dataclass(frozen=True)
class AngleSample:
    """A UQ2.14 angle; radians in [0, pi/2] semantically."""

    sample: FxSample

    @property
    def raw(self) -> int:
        return self.sample.raw

    @property
    def radians(self) -> float:
        return self.sample.to_real()


def _sqrt_schedule(iterations: int) -> tuple[int, ...]:
    """Hyperbolic iteration indices with the standard repeats at 4, 13, 40, ..."""
    seq: list[int] = []
    i, repeat = 1, 4
    while len(seq) < iterations:
        seq.append(i)
        if i == repeat and len(seq) < iterations:
            seq.append(i)
            repeat = 3 * repeat + 1
        i += 1
    return tuple(seq)


def _nint_scaled_inverse_sqrt(scale: int, num: int, den: int) -> int:
    """nint(scale / sqrt(num / den)), exactly, in integers.

    With s = sqrt(scale**2 * den / num): isqrt(floor(4 s**2)) = floor(2 s),
    and (floor(2 s) + 1) // 2 = floor(s + 1/2).  That rounds a tie up, but
    no tie occurs here: s = j + 1/2 needs (2j + 1)**2 * num = 4 * scale**2
    * den, and the callers pass an odd ``num`` and powers of two for
    ``scale`` and ``den``.
    """
    return (math.isqrt(4 * scale * scale * den // num) + 1) // 2


@cache
def _sqrt_constants(iterations: int) -> tuple[tuple[int, ...], int, int]:
    """(schedule, inverse-gain multiplier, pre-compensated 0.25 offset).

    The hyperbolic gain is prod sqrt(1 - 4**-i) over the schedule, so its
    square is the exact fraction num / den = prod (4**i - 1) / 4**i.
    """
    schedule = _sqrt_schedule(iterations)
    num = den = 1
    for i in schedule:
        num *= (1 << 2 * i) - 1
        den <<= 2 * i
    inv_gain = _nint_scaled_inverse_sqrt(1 << _GAIN_FRAC, num, den)
    quarter = _nint_scaled_inverse_sqrt(1 << (_WORK_FRAC - 2), num, den)
    return schedule, inv_gain, quarter


# nint(atan(2**-i) * 2**_Z_FRAC) for the CordicConfig.polar_rotations = 16
# vectoring steps (computed at 60 digits; tests check it against mpmath).
_ATAN_TABLE = (
    52707179, 31114864, 16440240, 8345322, 4188855, 2096470, 1048491, 524277,
    262143, 131072, 65536, 32768, 16384, 8192, 4096, 2048,
)


def sqrt_raw_batch(raws) -> np.ndarray:
    """Square root of UQ1.15 raws via hyperbolic vectoring; returns UQ1.15 raws.

    The argument is prescaled by 4**k into (0.25, 1] (exactly undone by a
    2**-k shift of the result), which keeps every input inside the
    convergence region and preserves relative accuracy for small arguments.
    """
    r = np.atleast_1d(np.asarray(raws)).astype(np.int64)
    schedule, inv_gain, quarter = _sqrt_constants(SQRT_ITERATIONS)
    frac = UQ1_15.fraction_bits

    # Power-of-4 normalization exponent from the bit length of the raw.
    bit_length = np.frexp(r.astype(np.float64))[1].astype(np.int64)
    k = np.maximum(0, (frac - bit_length) // 2)

    value = r << (_WORK_FRAC - frac + 2 * k)
    scaled = (value * inv_gain) >> _GAIN_FRAC
    x = scaled + quarter
    y = scaled - quarter
    sign, dx, dy = (np.empty_like(x) for _ in range(3))
    for i in schedule:
        # sign is -1 where y < 0, else 0, so (d ^ sign) - sign is -d there
        # and d elsewhere: x, y -= (y >> i, x >> i), negated where y < 0.
        np.right_shift(y, 63, out=sign)
        np.right_shift(y, i, out=dx)
        np.right_shift(x, i, out=dy)
        dx ^= sign
        dx -= sign
        dy ^= sign
        dy -= sign
        x -= dx
        y -= dy

    out = round_shift_even(x, (_WORK_FRAC - frac) + k)
    out = np.clip(out, 0, UQ1_15.max_raw)
    return np.where(r > 0, out, 0)


def polar_raw_batch(u_raws, v_raws) -> np.ndarray:
    """Vectoring-mode angle atan2(v, u) of UQ1.15 raws, as UQ2.14 raws.

    The magnitude output of the hardware core is unused and not produced.
    A (0, 0) input, which has no defined angle, yields angle 0.
    """
    u = np.atleast_1d(np.asarray(u_raws)).astype(np.int64)
    v = np.atleast_1d(np.asarray(v_raws)).astype(np.int64)

    x = u << (_WORK_FRAC - UQ1_15.fraction_bits)
    y = v << (_WORK_FRAC - UQ1_15.fraction_bits)
    z = np.zeros_like(x)
    sign, dx, dy, dz = (np.empty_like(x) for _ in range(4))
    for i, alpha in enumerate(_ATAN_TABLE):
        # As in sqrt_raw_batch, (d ^ sign) - sign is -d where y < 0: rotate
        # by +alpha (x += y >> i, y -= x >> i) where y >= 0, else by -alpha.
        np.right_shift(y, 63, out=sign)
        np.right_shift(y, i, out=dx)
        np.right_shift(x, i, out=dy)
        np.bitwise_xor(sign, alpha, out=dz)
        dx ^= sign
        dx -= sign
        dy ^= sign
        dy -= sign
        dz -= sign
        x += dx
        y -= dy
        z += dz

    angle = round_shift_even(z, _Z_FRAC - UQ2_14.fraction_bits)
    angle = np.clip(angle, 0, UQ2_14.max_raw)
    return np.where((u == 0) & (v == 0), 0, angle)


def one_minus_sq_raw_batch(raws) -> np.ndarray:
    """1 - x*x on UQ1.15 raws: exact UQ2.30 product, floor at 0, round to UQ1.15."""
    r = np.atleast_1d(np.asarray(raws)).astype(np.int64)
    wide = (1 << 30) - r * r
    np.clip(wide, 0, None, out=wide)
    return round_shift_even(wide, 15)


def arccos_raw_batch(raws, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """arccos of UQ1.15 raws as UQ2.14 raws: atan2(sqrt(1 - x^2), x)."""
    # Nothing reads cfg: perfbench/oracle.py passes it until ROADMAP item 6.
    r = np.atleast_1d(np.asarray(raws)).astype(np.int64)
    v = sqrt_raw_batch(one_minus_sq_raw_batch(r))
    return polar_raw_batch(r, v)


@cache
def arccos_table() -> np.ndarray:
    """arccos raws for every representable input, for bulk lookups.

    Read from the arccos unit's ROM, :data:`_ROM`: the kernels' angles for
    the inputs up to 1.0 (raw 0x8000), so a command runs no kernel.  Above
    0x8000 every entry is 0: ``1 - x^2`` saturates to 0, the square root of
    0 is exactly 0, and the angle of ``(x, 0)`` is 0.  The ROM is copied
    into the table as it is, with no arithmetic, so the lookup costs one
    file read and the 128 KB table.  Bit-identical to
    :func:`arccos_raw_batch` (tests check it on every raw against
    :func:`_kernel_table`).
    """
    one = 1 << UQ1_15.fraction_bits
    with open(_ROM, "rb") as fh:
        rom = zlib.decompress(fh.read())
    if len(rom) != 2 * (one + 1):
        raise ValueError(
            f"{_ROM}: {len(rom)} bytes, expected {2 * (one + 1)} (the angles "
            f"of raws 0..{one}); rewrite it with python tools/arccos_rom.py")
    table = np.zeros(UQ1_15.max_raw + 1, dtype=np.uint16)
    table[:one + 1] = np.frombuffer(rom, dtype="<u2")
    table.setflags(write=False)
    return table


def _kernel_table() -> np.ndarray:
    """:func:`arccos_table` computed by the kernels: the oracle its ROM is
    written from and checked against.

    Only the inputs up to 1.0 run the kernels, :data:`_TABLE_SLICE` inputs
    at a time, so the build's scratch is a fixed few hundred KB next to the
    128 KB table.
    """
    one = 1 << UQ1_15.fraction_bits
    table = np.zeros(UQ1_15.max_raw + 1, dtype=np.uint16)
    for start in range(0, one + 1, _TABLE_SLICE):
        stop = min(start + _TABLE_SLICE, one + 1)
        table[start:stop] = arccos_raw_batch(
            np.arange(start, stop, dtype=np.int64))
    return table


def cordic_arccos(x: FxSample) -> AngleSample:
    """arccos of a UQ1.15 sample as an angle sample."""
    if x.fmt != UQ1_15:
        raise ValueError(f"arccos input must be {UQ1_15}, got {x.fmt}")
    raw = int(arccos_raw_batch(x.raw)[0])
    return AngleSample(FxSample(raw, UQ2_14))
