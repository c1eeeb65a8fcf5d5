"""Descriptor data model, file I/O and synthetic test-set generation.

A descriptor is a 128-element non-negative feature vector (values in [0, 1],
L2 norm ~1) plus a 16-bit (x, y) pixel location.  Every descriptor carries
two synchronized views: float64 elements and their UQ1.15 quantization, so
the float reference matcher and the fixed-point hardware model consume the
same data.  A set read from a binary file keeps only its 16-bit raws, as the
hardware streams them; its float view is exactly ``raw * 2**-15``, derived
on first access of :attr:`DescriptorSet.floats` (the engines never ask for
it: they cast each tile into a reused float64 buffer).  Sets are immutable
after construction and safe to share.

Two on-disk formats are supported:

* text (``.siftd``): header ``SIFTD v1 text m=<count>``, then one line per
  descriptor: ``<x> <y> <f1> ... <f128>`` with decimal floats.
* binary (``.siftdb``): magic ``SIFTDB01``, u32-LE count, then 260 bytes per
  descriptor: x (u16 LE), y (u16 LE), 128 UQ1.15 raws (u16 LE each).

Both round-trip bit-exactly.
"""

from __future__ import annotations

import math
import os
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
    "save_descriptor_set",
]

DESCRIPTOR_LEN = 128
RECORD_BYTES = 2 + 2 + 2 * DESCRIPTOR_LEN  # 260 bytes per binary record
_TEXT_HEADER = "SIFTD v1 text"
_BINARY_MAGIC = b"SIFTDB01"
_COORD_MAX = 0xFFFF
# Bytes of the shortest text descriptor line: 2 + 128 one-character tokens
# and the 129 separators between them.
_MIN_TEXT_LINE = 2 * (2 + DESCRIPTOR_LEN) - 1

# A unit vector quantized to UQ1.15 can drift this far from norm 1; the
# normalization warning must not fire on data that merely round-tripped
# through the binary format.
NORM_TOLERANCE = 1e-3

# Rows per block when a whole set is scanned on load (1 MiB of floats).
_BLOCK_ROWS = 1024


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

    ``raws`` is (m, 128) uint16 UQ1.15, ``xy`` is (m, 2) uint16 and
    ``floats`` the (m, 128) float64 view.  Order is load order and stable.
    ``floats`` may be ``None``: the set is then ``raw_exact``, its float
    view is ``raws * 2**-15``, derived on first access of :attr:`floats` and
    kept, and the engines run exact GEMMs on the raws (see
    :mod:`siftmatch.search`).  Every set built by :meth:`from_raws`, such as
    a ``.siftdb`` load, is raw-exact.
    """

    def __init__(self, image_id: str, floats: np.ndarray | None,
                 raws: np.ndarray, xy: np.ndarray):
        raws = np.asarray(raws, dtype=np.uint16)
        xy = np.asarray(xy, dtype=np.uint16)
        if floats is not None:
            floats = np.asarray(floats, dtype=np.float64)
            if floats.ndim != 2 or floats.shape[1] != DESCRIPTOR_LEN:
                raise ValueError(f"floats must be (m, {DESCRIPTOR_LEN})")
            if raws.shape != floats.shape:
                raise ValueError("raw view shape must match float view")
            floats.setflags(write=False)
        elif raws.ndim != 2 or raws.shape[1] != DESCRIPTOR_LEN:
            raise ValueError(f"raws must be (m, {DESCRIPTOR_LEN})")
        if xy.shape != (raws.shape[0], 2):
            raise ValueError("xy must be (m, 2)")
        self.image_id = image_id
        self.raws = raws
        self.xy = xy
        self.raw_exact = floats is None
        self._floats = floats
        for arr in (self.raws, self.xy):
            arr.setflags(write=False)

    @property
    def floats(self) -> np.ndarray:
        """(m, 128) float64 elements; derived from the raws on first access."""
        if self._floats is None:
            self._floats = self._float_rows(slice(None))
        return self._floats

    def _float_rows(self, rows) -> np.ndarray:
        """Read-only float elements of ``rows`` (an index or a slice),
        without deriving the whole float view."""
        if self._floats is not None:
            return self._floats[rows]
        floats = self.raws[rows] * UQ1_15.lsb
        floats.setflags(write=False)
        return floats

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
        """Build a raw-exact set from UQ1.15 raws; no float view is stored."""
        return cls(image_id, None, raws, xy)

    def __len__(self) -> int:
        return self.raws.shape[0]

    def __getitem__(self, index: int) -> Descriptor:
        return Descriptor(elements=self._float_rows(index), raws=self.raws[index],
                          x=int(self.xy[index, 0]), y=int(self.xy[index, 1]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _infer_format(path: str) -> str:
    if str(path).endswith(".siftd"):
        return "text"
    if str(path).endswith(".siftdb"):
        return "binary"
    raise ValueError(f"cannot infer format from {path!r}: "
                     "expected a .siftd or .siftdb file")


def _row_norms(set_: DescriptorSet) -> np.ndarray:
    """L2 norm of every descriptor, :data:`_BLOCK_ROWS` rows at a time.

    The squares go into one float64 block allocated here and reused for
    every block.  A fresh 1 MiB temporary per block is handed back to the
    operating system when freed, so ``np.linalg.norm`` per block (the float
    block, ``x.conj()`` and ``x*x``) faulted in about 7 MiB per MiB checked.

    Each row's bits equal ``np.linalg.norm``'s over the whole float view:
    it squares the elements and reduces the last axis of a C-contiguous
    block with ``np.add.reduce``, as here, and takes one ``sqrt``.  On a
    raw set the squares ``(raw * 2**-15)**2`` have at most 32 significant
    bits and every partial sum of 128 of them at most 39, so each is exact
    and any summation order gives the same bits.
    """
    m = len(set_)
    norms = np.empty(m)
    part = np.empty((min(m, _BLOCK_ROWS), DESCRIPTOR_LEN))
    for start in range(0, m, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = part[:min(m - start, _BLOCK_ROWS)]
        if set_._floats is None:
            np.multiply(set_.raws[rows], UQ1_15.lsb, out=block)
            np.square(block, out=block)
        else:
            np.square(set_._floats[rows], out=block)
        np.add.reduce(block, axis=1, out=norms[rows])
    return np.sqrt(norms, out=norms)


def _check_norms(set_: DescriptorSet, path: str) -> DescriptorSet:
    norms = _row_norms(set_)
    off = np.abs(norms - 1.0) > NORM_TOLERANCE
    if not off.any():
        return set_
    warnings.warn(
        f"{path}: {int(off.sum())} of {len(set_)} descriptors are not "
        "unit-norm; auto-normalizing",
        stacklevel=3,
    )
    if (norms[off] == 0).any():
        raise DescriptorFormatError(f"{path}: zero descriptor cannot be normalized")
    floats = set_._float_rows(slice(None)).copy()
    floats[off] /= norms[off, None]
    np.clip(floats, 0.0, 1.0, out=floats)
    return DescriptorSet.from_floats(set_.image_id, floats, set_.xy)


def load_descriptor_set(path: str) -> DescriptorSet:
    """Load a descriptor set, validating shape and element range.

    The extension names the format: ``.siftd`` text or ``.siftdb`` binary.

    Non-unit-norm descriptors trigger a warning and are rescaled to unit
    norm.  Raises :class:`DescriptorFormatError` on malformed input,
    including an empty set.
    """
    fmt = _infer_format(path)
    try:
        loaded = _load_text(path) if fmt == "text" else _load_binary(path)
    except UnicodeDecodeError as exc:  # its position counts from a read chunk
        raise DescriptorFormatError(
            f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x}") from None
    if len(loaded) == 0:
        raise DescriptorFormatError(f"{path}: empty set")
    return _check_norms(loaded, str(path))


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
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if m * _MIN_TEXT_LINE > left:  # checked before the arrays are sized
            raise DescriptorFormatError(
                f"{path}: {m} descriptors need at least "
                f"{m * _MIN_TEXT_LINE} bytes, {left} follow the header")
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
            try:
                x, y = int(tokens[0]), int(tokens[1])
                row = np.array([float(t) for t in tokens[2:]], dtype=np.float64)
            except ValueError as exc:
                raise DescriptorFormatError(f"{path}: descriptor {i}: {exc}") from None
            if not (0 <= x <= _COORD_MAX and 0 <= y <= _COORD_MAX):
                raise DescriptorFormatError(f"{path}: descriptor {i} coordinates out of range")
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
        header = fh.read(12)
        if header[:8] != _BINARY_MAGIC:
            raise DescriptorFormatError(f"{path}: bad magic")
        if len(header) < 12:
            raise DescriptorFormatError(f"{path}: truncated header")
        m = int.from_bytes(header[8:12], "little")
        payload = os.fstat(fh.fileno()).st_size - len(header)
        if payload != m * RECORD_BYTES:
            raise DescriptorFormatError(
                f"{path}: payload is {payload} bytes, expected {m * RECORD_BYTES}")
        # One read, straight into the array; xy and raws are views of it.
        records = np.fromfile(fh, dtype="<u2", count=m * (2 + DESCRIPTOR_LEN))
    records = records.reshape(m, 2 + DESCRIPTOR_LEN)
    raws = records[:, 2:]
    if m and raws.max() > (1 << 15):
        raise DescriptorFormatError(f"{path}: element raw above 1.0")
    return DescriptorSet.from_raws(str(path), raws, records[:, :2])


def save_descriptor_set(set_: DescriptorSet, path: str) -> None:
    """Write a set so that :func:`load_descriptor_set` round-trips bit-exactly;
    the extension names the format, as it does for loading."""
    fmt = _infer_format(path)
    if fmt == "text":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{_TEXT_HEADER} m={len(set_)}\n")
            for d in set_:
                values = " ".join(repr(float(v)) for v in d.elements)
                fh.write(f"{d.x} {d.y} {values}\n")
    else:
        records = np.empty((len(set_), 2 + DESCRIPTOR_LEN), dtype="<u2")
        records[:, :2] = set_.xy
        records[:, 2:] = set_.raws
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(len(set_).to_bytes(4, "little"))
            fh.write(records.tobytes())


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
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be finite and non-negative")

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
