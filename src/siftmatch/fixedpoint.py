"""Unsigned fixed-point formats with explicit rounding and saturation.

Values are non-negative samples in a UQi.f format (``i`` integer bits,
``f`` fraction bits, total width <= 64).  Precision is lost only where a
value is narrowed to a format: :func:`quantize_array` and
:func:`round_shift_even` round dropped fraction bits to nearest (ties to
even), and the callers saturate when the value exceeds the target range.

:func:`round_shift_even` accepts plain ints or numpy integer arrays so the
matrix-sized hardware model runs the exact same arithmetic as the scalar ops.

All operations are pure and stateless; samples are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QFormat",
    "FxSample",
    "UQ1_15",
    "UQ2_14",
    "round_shift_even",
    "quantize_array",
]


@dataclass(frozen=True)
class QFormat:
    """Unsigned Q-format: ``integer_bits + fraction_bits`` wide, LSB = 2**-fraction_bits."""

    integer_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if not 1 <= self.total_bits <= 64:
            raise ValueError(f"total width must be within [1, 64], got {self.total_bits}")

    @property
    def total_bits(self) -> int:
        return self.integer_bits + self.fraction_bits

    @property
    def max_raw(self) -> int:
        return (1 << self.total_bits) - 1

    @property
    def lsb(self) -> float:
        return 2.0 ** -self.fraction_bits

    def __str__(self) -> str:
        return f"UQ{self.integer_bits}.{self.fraction_bits}"


UQ1_15 = QFormat(1, 15)  # descriptor elements and narrowed dot products
UQ2_14 = QFormat(2, 14)  # angles in radians, covers [0, pi/2] with headroom


@dataclass(frozen=True)
class FxSample:
    """One fixed-point sample: an unsigned raw integer plus its format."""

    raw: int
    fmt: QFormat

    def __post_init__(self) -> None:
        if not isinstance(self.raw, int):
            raw = int(self.raw)
            if raw != self.raw:
                raise ValueError(f"raw {self.raw} is not an integer")
            object.__setattr__(self, "raw", raw)
        if not 0 <= self.raw <= self.fmt.max_raw:
            raise ValueError(f"raw {self.raw} out of range for {self.fmt}")

    def to_real(self) -> float:
        """Real value raw * 2**-fraction_bits (float64; exact up to 53-bit raws)."""
        return self.raw * self.fmt.lsb


def round_shift_even(value, shift):
    """Drop ``shift >= 1`` low bits, rounding to nearest with ties to even.

    Works elementwise on numpy integer arrays as well as plain ints;
    ``shift`` itself may be an array.
    """
    q = value >> shift
    r = value & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    round_up = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + round_up


def quantize_array(values: np.ndarray, fmt: QFormat = UQ1_15) -> np.ndarray:
    """Quantize reals already validated non-negative to ``fmt`` raws:
    nearest, ties to even (``np.rint``), saturating at ``fmt.max_raw``.

    Returns int64 raws.  Scaling by ``2**fraction_bits`` only shifts the
    float exponent, so the rounding applies to the exact input value.  The
    rounding and the clip run in place in the one float64 temporary.
    """
    raws = np.multiply(values, 2.0 ** fmt.fraction_bits, dtype=np.float64)
    np.rint(raws, out=raws)
    np.clip(raws, 0, fmt.max_raw, out=raws)
    return raws.astype(np.int64)
