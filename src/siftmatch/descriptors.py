"""Descriptor data model, file I/O and synthetic test-set generation.

A descriptor is a 128-element non-negative feature vector (values in [0, 1],
L2 norm ~1) plus a 16-bit (x, y) pixel location.  Every descriptor carries
two synchronized views: float64 elements and their UQ1.15 quantization, so
the float reference matcher and the fixed-point hardware model consume the
same data.  Sets are immutable after construction and safe to share.

Two on-disk formats are supported:

* text (``.siftd``): header ``SIFTD v1 text m=<count>``, then one line per
  descriptor: ``<x> <y> <f1> ... <f128>`` with decimal floats.
* binary (``.siftdb``): magic ``SIFTDB01``, u32-LE count, then 260 bytes per
  descriptor: x (u16 LE), y (u16 LE), 128 UQ1.15 raws (u16 LE each).

Both round-trip bit-exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fixedpoint import UQ1_15, quantize_array

__all__ = [
    "DESCRIPTOR_LEN",
    "Descriptor",
    "DescriptorFormatError",
    "DescriptorSet",
    "generate_synthetic",
    "load_descriptor_set",
    "normalize",
    "save_descriptor_set",
]

DESCRIPTOR_LEN = 128
RECORD_BYTES = 2 + 2 + 2 * DESCRIPTOR_LEN  # 260 bytes per binary record
_TEXT_HEADER = "SIFTD v1 text"
_BINARY_MAGIC = b"SIFTDB01"
_COORD_MAX = 0xFFFF

# A unit vector quantized to UQ1.15 can drift this far from norm 1; the
# normalization warning must not fire on data that merely round-tripped
# through the binary format.
NORM_TOLERANCE = 1e-3


class DescriptorFormatError(ValueError):
    """Raised for malformed or out-of-contract descriptor files."""


@dataclass(frozen=True)
class Descriptor:
    """One descriptor: float view, UQ1.15 raw view, and pixel location."""

    elements: np.ndarray  # float64, shape (128,)
    raws: np.ndarray      # uint16, shape (128,), UQ1.15
    x: int
    y: int

    @property
    def xy(self) -> tuple[int, int]:
        return (self.x, self.y)


class DescriptorSet:
    """Ordered, immutable collection of descriptors for one image.

    ``floats`` is (m, 128) float64, ``raws`` is the matching (m, 128) uint16
    UQ1.15 view, ``xy`` is (m, 2) uint16.  Order is load order and stable.
    ``raw_exact`` records that ``floats == raws * 2**-15`` exactly, as for
    every set built by :meth:`from_raws`; the engines then use ``floats``
    itself as an exact GEMM operand (see :mod:`siftmatch.search`).
    """

    def __init__(self, image_id: str, floats: np.ndarray, raws: np.ndarray,
                 xy: np.ndarray, *, raw_exact: bool = False):
        floats = np.asarray(floats, dtype=np.float64)
        raws = np.asarray(raws, dtype=np.uint16)
        xy = np.asarray(xy, dtype=np.uint16)
        if floats.ndim != 2 or floats.shape[1] != DESCRIPTOR_LEN:
            raise ValueError(f"floats must be (m, {DESCRIPTOR_LEN})")
        if raws.shape != floats.shape:
            raise ValueError("raw view shape must match float view")
        if xy.shape != (floats.shape[0], 2):
            raise ValueError("xy must be (m, 2)")
        self.image_id = image_id
        self.floats = floats
        self.raws = raws
        self.xy = xy
        self.raw_exact = raw_exact
        for arr in (self.floats, self.raws, self.xy):
            arr.setflags(write=False)

    @classmethod
    def from_floats(cls, image_id: str, floats: np.ndarray,
                    xy: np.ndarray) -> "DescriptorSet":
        """Build a set from float elements; the raw view is quantized from them."""
        floats = np.asarray(floats, dtype=np.float64)
        raws = quantize_array(floats, UQ1_15).astype(np.uint16)
        return cls(image_id, floats, raws, xy)

    @classmethod
    def from_raws(cls, image_id: str, raws: np.ndarray,
                  xy: np.ndarray) -> "DescriptorSet":
        """Build a set from UQ1.15 raws; the float view is exact (raw / 2**15)."""
        raws = np.asarray(raws, dtype=np.uint16)
        floats = raws.astype(np.float64) * UQ1_15.lsb
        return cls(image_id, floats, raws, xy, raw_exact=True)

    def __len__(self) -> int:
        return self.floats.shape[0]

    def __getitem__(self, index: int) -> Descriptor:
        return Descriptor(elements=self.floats[index], raws=self.raws[index],
                          x=int(self.xy[index, 0]), y=int(self.xy[index, 1]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _infer_format(path: str, format_tag: str | None) -> str:
    if format_tag is not None:
        if format_tag not in ("text", "binary"):
            raise ValueError(f"unknown format tag {format_tag!r}")
        return format_tag
    if str(path).endswith(".siftd"):
        return "text"
    if str(path).endswith(".siftdb"):
        return "binary"
    raise ValueError(f"cannot infer format from {path!r}; pass format_tag")


def _check_norms(set_: DescriptorSet, path: str, auto_normalize: bool) -> DescriptorSet:
    norms = np.linalg.norm(set_.floats, axis=1)
    off = np.abs(norms - 1.0) > NORM_TOLERANCE
    if not off.any():
        return set_
    warnings.warn(
        f"{path}: {int(off.sum())} of {len(set_)} descriptors are not unit-norm"
        + ("; auto-normalizing" if auto_normalize else ""),
        stacklevel=3,
    )
    if not auto_normalize:
        return set_
    if (norms[off] == 0).any():
        raise DescriptorFormatError(f"{path}: zero descriptor cannot be normalized")
    floats = set_.floats.copy()
    floats[off] /= norms[off, None]
    np.clip(floats, 0.0, 1.0, out=floats)
    return DescriptorSet.from_floats(set_.image_id, floats, set_.xy)


def load_descriptor_set(path: str, format_tag: str | None = None, *,
                        auto_normalize: bool = True) -> DescriptorSet:
    """Load a descriptor set, validating shape and element range.

    Non-unit-norm descriptors trigger a warning and (by default) are
    rescaled to unit norm; pass ``auto_normalize=False`` to keep them as-is.
    Raises :class:`DescriptorFormatError` on malformed input, including an
    empty set.
    """
    fmt = _infer_format(path, format_tag)
    loaded = _load_text(path) if fmt == "text" else _load_binary(path)
    if len(loaded) == 0:
        raise DescriptorFormatError(f"{path}: empty set")
    return _check_norms(loaded, str(path), auto_normalize)


def _load_text(path: str) -> DescriptorSet:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        prefix = _TEXT_HEADER + " m="
        if not header.startswith(prefix):
            raise DescriptorFormatError(f"{path}: malformed header {header!r}")
        try:
            m = int(header[len(prefix):])
        except ValueError:
            raise DescriptorFormatError(f"{path}: malformed count in header") from None
        if m < 0:
            raise DescriptorFormatError(f"{path}: negative count")
        floats = np.empty((m, DESCRIPTOR_LEN), dtype=np.float64)
        xy = np.empty((m, 2), dtype=np.uint16)
        for i in range(m):
            line = fh.readline()
            if not line:
                raise DescriptorFormatError(f"{path}: expected {m} descriptors, got {i}")
            tokens = line.split()
            if len(tokens) != 2 + DESCRIPTOR_LEN:
                raise DescriptorFormatError(
                    f"{path}: descriptor {i} has {len(tokens) - 2} elements, "
                    f"expected {DESCRIPTOR_LEN}")
            x, y = int(tokens[0]), int(tokens[1])
            if not (0 <= x <= _COORD_MAX and 0 <= y <= _COORD_MAX):
                raise DescriptorFormatError(f"{path}: descriptor {i} coordinates out of range")
            row = np.array([float(t) for t in tokens[2:]], dtype=np.float64)
            if not np.all(np.isfinite(row)):
                raise DescriptorFormatError(f"{path}: descriptor {i} has non-finite element")
            if (row < 0).any() or (row > 1).any():
                raise DescriptorFormatError(f"{path}: descriptor {i} element out of [0, 1]")
            floats[i] = row
            xy[i] = (x, y)
        if fh.readline().strip():
            raise DescriptorFormatError(f"{path}: trailing data after {m} descriptors")
    return DescriptorSet.from_floats(str(path), floats, xy)


def _load_binary(path: str) -> DescriptorSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _BINARY_MAGIC:
        raise DescriptorFormatError(f"{path}: bad magic")
    if len(blob) < 12:
        raise DescriptorFormatError(f"{path}: truncated header")
    m = int.from_bytes(blob[8:12], "little")
    payload = blob[12:]
    if len(payload) != m * RECORD_BYTES:
        raise DescriptorFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {m * RECORD_BYTES}")
    records = np.frombuffer(payload, dtype="<u2").reshape(m, 2 + DESCRIPTOR_LEN)
    xy = records[:, :2]
    raws = records[:, 2:]
    if (raws > (1 << 15)).any():
        raise DescriptorFormatError(f"{path}: element raw above 1.0")
    return DescriptorSet.from_raws(str(path), raws, xy)


def save_descriptor_set(set_: DescriptorSet, path: str,
                        format_tag: str | None = None) -> None:
    """Write a set so that :func:`load_descriptor_set` round-trips bit-exactly."""
    fmt = _infer_format(path, format_tag)
    if fmt == "text":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{_TEXT_HEADER} m={len(set_)}\n")
            for i in range(len(set_)):
                values = " ".join(repr(float(v)) for v in set_.floats[i])
                fh.write(f"{set_.xy[i, 0]} {set_.xy[i, 1]} {values}\n")
    else:
        records = np.empty((len(set_), 2 + DESCRIPTOR_LEN), dtype="<u2")
        records[:, :2] = set_.xy
        records[:, 2:] = set_.raws
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(len(set_).to_bytes(4, "little"))
            fh.write(records.tobytes())


def normalize(d: Descriptor) -> Descriptor:
    """Rescale a descriptor to unit L2 norm (elements clamped to [0, 1]).

    Raises ValueError for the zero vector.
    """
    norm = float(np.linalg.norm(d.elements))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero descriptor")
    elements = np.clip(d.elements / norm, 0.0, 1.0)
    raws = quantize_array(elements, UQ1_15).astype(np.uint16)
    return Descriptor(elements=elements, raws=raws, x=d.x, y=d.y)


def _random_unit_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random non-negative unit vectors: |N(0,1)| magnitudes, L2-normalized."""
    rows = np.abs(rng.standard_normal((count, DESCRIPTOR_LEN)))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    # Probability ~0 fallback, but keep the generator total.
    norms[norms == 0] = 1.0
    return rows / norms


def generate_synthetic(count: int, seed: int, match_fraction: float,
                       noise_sigma: float):
    """Generate a planted query/database pair for matcher experiments.

    Returns ``(queries, database, ground_truth)`` where the first
    ``floor(match_fraction * count)`` queries are noisy copies of the
    database descriptor with the same index (ground truth lists those
    ``(query, database)`` pairs) and the rest are independent random unit
    vectors.  Noise is i.i.d. Gaussian, clipped non-negative, renormalized.
    Fully deterministic in ``seed``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= match_fraction <= 1.0:
        raise ValueError("match_fraction must be in [0, 1]")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be non-negative")

    rng = np.random.default_rng(seed)
    database = _random_unit_rows(rng, count)
    planted = int(math.floor(match_fraction * count))

    queries = np.empty((count, DESCRIPTOR_LEN), dtype=np.float64)
    if planted:
        if noise_sigma > 0.0:
            noisy = database[:planted] + rng.normal(
                0.0, noise_sigma, (planted, DESCRIPTOR_LEN))
            np.clip(noisy, 0.0, None, out=noisy)
            norms = np.linalg.norm(noisy, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            queries[:planted] = np.clip(noisy / norms, 0.0, 1.0)
        else:
            queries[:planted] = database[:planted]
    if planted < count:
        queries[planted:] = _random_unit_rows(rng, count - planted)

    xy_q = rng.integers(0, 1024, size=(count, 2), dtype=np.uint16)
    xy_d = rng.integers(0, 1024, size=(count, 2), dtype=np.uint16)
    ground_truth = [(i, i) for i in range(planted)]
    return (
        DescriptorSet.from_floats(f"synthetic-q-{seed}", queries, xy_q),
        DescriptorSet.from_floats(f"synthetic-d-{seed}", database, xy_d),
        ground_truth,
    )
