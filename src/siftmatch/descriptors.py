"""Descriptor data model, file I/O and synthetic test-set generation.

A descriptor is a 128-element non-negative feature vector (values in [0, 1],
L2 norm ~1) plus a 16-bit (x, y) pixel location.  Every descriptor carries
two synchronized views: float64 elements and their UQ1.15 quantization, so
the float reference matcher and the fixed-point hardware model consume the
same data.  Sets are immutable after construction.

A set loaded from a binary file is raw-exact: its float view is exactly
``raw * 2**-15``, derived on first access of :attr:`DescriptorSet.floats`.
The load checks the file in one pass, :data:`_BLOCK_ROWS` records at a
time, read into one reused buffer: the header, the size, every raw and
every row's norm.  When every norm is in range the set is *streamed*, as
the hardware streams its database from DRAM: it holds the open file and
its (x, y) column (4 bytes a row) and no raws.  The engines read it through
:attr:`DescriptorSet.raw_rows`, one tile at a time into one reused record
buffer (see :mod:`siftmatch.search`), so a match holds a few MiB of scratch
and a few dozen bytes per query whatever the sizes of its files.
:attr:`DescriptorSet.raws` reads the whole file once and keeps it, for
callers that want every raw at once.  Both loaders take each row's norm in
the pass that reads it; :func:`_renormalized` rescales the off-norm rows
alone.  A ``.siftdb`` file with one is read whole for its float view, and
its set is not raw-exact.

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
import weakref
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
_RECORD_WORDS = RECORD_BYTES // 2
_TEXT_HEADER = "SIFTD v1 text"
_BINARY_MAGIC = b"SIFTDB01"
_BINARY_HEADER_BYTES = len(_BINARY_MAGIC) + 4
_COORD_MAX = 0xFFFF
# Bytes of the shortest text descriptor line: 2 + 128 one-character tokens
# and the 129 separators between them.
_MIN_TEXT_LINE = 2 * (2 + DESCRIPTOR_LEN) - 1

# A unit vector quantized to UQ1.15 can drift this far from norm 1; the
# normalization warning must not fire on data that merely round-tripped
# through the binary format.
NORM_TOLERANCE = 1e-3

# Records per block when a ``.siftdb`` file is checked on load: 256 KiB of
# float64 squares and 65 KiB of records.  With blocks of 1024 rows (1 MiB)
# a `match` of two 2000-row or two 4000-row files peaked 0.8-0.9 MiB higher
# in RSS than with 256-row blocks.
_BLOCK_ROWS = 256


class DescriptorFormatError(ValueError):
    """Raised for malformed or out-of-contract descriptor files."""


@dataclass(frozen=True)
class Descriptor:
    """One descriptor: float view, UQ1.15 raw view, and pixel location."""

    elements: np.ndarray  # float64, shape (128,)
    raws: np.ndarray      # uint16, shape (128,), UQ1.15
    x: int
    y: int


class _RecordReader:
    """The raws of a ``.siftdb`` file as a row source, read on demand.

    Opening checks the magic and that the size matches the header.  A row
    source is what :mod:`siftmatch.search` reads tiles from: ``len``,
    ``shape`` and ``reader[rows]``, with ``rows`` a slice of consecutive
    rows or an array of row indices.  Each read fills one reused record
    buffer, grown to the largest read so far, and returns the raws as a
    view of it that the next read overwrites.  The file stays open from the
    check to the last read, so a file renamed over the path changes nothing
    that is read; it is closed when the reader is dropped.  A file that has
    shrunk since it was opened raises ``OSError``.  Reads share the one
    buffer, so two threads must not read through one reader at once.
    """

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        weakref.finalize(self, self._file.close)
        header = os.pread(self._file.fileno(), _BINARY_HEADER_BYTES, 0)
        if header[:len(_BINARY_MAGIC)] != _BINARY_MAGIC:
            raise DescriptorFormatError(f"{path}: bad magic")
        if len(header) < _BINARY_HEADER_BYTES:
            raise DescriptorFormatError(f"{path}: truncated header")
        m = int.from_bytes(header[len(_BINARY_MAGIC):], "little")
        payload = os.fstat(self._file.fileno()).st_size - len(header)
        if payload != m * RECORD_BYTES:
            raise DescriptorFormatError(
                f"{path}: payload is {payload} bytes, expected {m * RECORD_BYTES}")
        self.shape = (m, DESCRIPTOR_LEN)
        self._buffer = np.empty((0, _RECORD_WORDS), dtype="<u2")

    def __len__(self) -> int:
        return self.shape[0]

    def records(self, start: int, stop: int) -> np.ndarray:
        """Records ``start:stop`` as (rows, 130) words in the reused buffer:
        x, y and the 128 raws."""
        records = self._reused(stop - start)
        self._read(records, start)
        return records

    def __getitem__(self, rows) -> np.ndarray:
        if isinstance(rows, slice):
            start, stop, _ = rows.indices(len(self))
            return self.records(start, max(start, stop))[:, 2:]
        # One read per run of consecutive rows: the follow-up pass of the
        # search reads its tied rows this way, in ascending order.
        records = self._reused(len(rows))
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()
        for k, end in zip(starts, starts[1:] + [len(rows)]):
            self._read(records[k:end], int(rows[k]))
        return records[:, 2:]

    def read_all(self) -> np.ndarray:
        """A read-only (m, 128) array of every raw, in memory of its own."""
        records = np.empty((len(self), _RECORD_WORDS), dtype="<u2")
        self._read(records, 0)
        raws = records[:, 2:]
        raws.setflags(write=False)
        return raws

    def _reused(self, rows: int) -> np.ndarray:
        if len(self._buffer) < rows:
            self._buffer = np.empty((rows, _RECORD_WORDS), dtype="<u2")
        return self._buffer[:rows]

    def _read(self, records: np.ndarray, row: int) -> None:
        view = memoryview(records).cast("B")
        offset = _BINARY_HEADER_BYTES + row * RECORD_BYTES
        while view.nbytes:
            got = os.preadv(self._file.fileno(), [view], offset)
            if not got:
                raise OSError(
                    f"{self.path}: the file ends at byte {offset}; it held "
                    f"{len(self)} descriptors when it was loaded")
            view, offset = view[got:], offset + got


class DescriptorSet:
    """Ordered, immutable collection of descriptors for one image.

    ``raws`` is (m, 128) uint16 UQ1.15, ``xy`` is (m, 2) uint16 and
    ``floats`` the (m, 128) float64 view.  Order is load order and stable.
    ``floats`` may be ``None``: the set is then ``raw_exact``, its float
    view is ``raws * 2**-15``, derived on first access of :attr:`floats` and
    kept, and the engines run exact GEMMs on the raws (see
    :mod:`siftmatch.search`).  Every set built by :meth:`from_raws`, such as
    a ``.siftdb`` load, is raw-exact.  ``raws`` may also be the row reader
    of a checked ``.siftdb`` file: the set is then streamed (see the module
    docstring).
    """

    def __init__(self, image_id: str, floats: np.ndarray | None,
                 raws, xy: np.ndarray):
        if not isinstance(raws, _RecordReader):
            raws = np.asarray(raws, dtype=np.uint16)
        xy = np.asarray(xy, dtype=np.uint16)
        if floats is not None:
            floats = np.asarray(floats, dtype=np.float64)
            if floats.ndim != 2 or floats.shape[1] != DESCRIPTOR_LEN:
                raise ValueError(f"floats must be (m, {DESCRIPTOR_LEN})")
            if raws.shape != floats.shape:
                raise ValueError("raw view shape must match float view")
            floats.setflags(write=False)
        elif len(raws.shape) != 2 or raws.shape[1] != DESCRIPTOR_LEN:
            raise ValueError(f"raws must be (m, {DESCRIPTOR_LEN})")
        if xy.shape != (raws.shape[0], 2):
            raise ValueError("xy must be (m, 2)")
        self.image_id = image_id
        self.xy = xy
        self.raw_exact = floats is None
        self._raws = raws
        self._floats = floats
        for arr in (raws, xy):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def raws(self) -> np.ndarray:
        """(m, 128) uint16 raws; a streamed set reads its file whole on
        first access and keeps the raws."""
        if isinstance(self._raws, _RecordReader):
            self._raws = self._raws.read_all()
        return self._raws

    @property
    def raw_rows(self):
        """The raws as a row source for :mod:`siftmatch.search`: the file
        reader of a streamed set, else the :attr:`raws` array."""
        return self._raws

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
        return len(self.xy)

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


def _renormalized(path: str, floats: np.ndarray, xy: np.ndarray,
                  off: list[int], norms: list[float]) -> DescriptorSet:
    """``floats`` as a set, its off-norm rows ``off``, of L2 norms
    ``norms``, rescaled to unit norm and clipped to [0, 1] in place, with a
    warning for the caller of :func:`load_descriptor_set`."""
    if off:
        warnings.warn(
            f"{path}: {len(off)} of {len(floats)} descriptors are not "
            "unit-norm; auto-normalizing",
            stacklevel=4,
        )
        if 0.0 in norms:
            raise DescriptorFormatError(f"{path}: zero descriptor cannot be normalized")
        rows = floats[off] / np.array(norms)[:, None]
        floats[off] = np.clip(rows, 0.0, 1.0, out=rows)
    return DescriptorSet.from_floats(path, floats, xy)


def load_descriptor_set(path: str) -> DescriptorSet:
    """Load a descriptor set, validating shape and element range.

    The extension names the format: ``.siftd`` text or ``.siftdb`` binary.

    Non-unit-norm descriptors trigger a warning and are rescaled to unit
    norm.  Raises :class:`DescriptorFormatError` on malformed input,
    including an empty set.  A ``.siftdb`` file whose norms are all in
    range gives a streamed set (see the module docstring).
    """
    fmt = _infer_format(path)
    try:
        loaded = _load_text(path) if fmt == "text" else _load_binary(path)
    except UnicodeDecodeError as exc:  # its position counts from a read chunk
        raise DescriptorFormatError(
            f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x}") from None
    if len(loaded) == 0:
        raise DescriptorFormatError(f"{path}: empty set")
    return loaded


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
        off, norms = [], []
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
            # The bits of np.linalg.norm over the rows of ``floats``.
            norm = np.sqrt(np.add.reduce(np.square(row)))
            if abs(norm - 1.0) > NORM_TOLERANCE:
                off.append(i)
                norms.append(norm)
        if fh.readline().strip():
            raise DescriptorFormatError(f"{path}: trailing data after {m} descriptors")
    return _renormalized(str(path), floats, xy, off, norms)


def _load_binary(path: str) -> DescriptorSet:
    """Check a ``.siftdb`` file in one pass of :data:`_BLOCK_ROWS` records
    at a time: a streamed set when every norm is in range, else the file's
    float view renormalized by :func:`_renormalized`."""
    reader = _RecordReader(str(path))
    m = len(reader)
    xy = np.empty((m, 2), dtype=np.uint16)
    part = np.empty((min(m, _BLOCK_ROWS), DESCRIPTOR_LEN))
    off, norms = [], []
    for start in range(0, m, _BLOCK_ROWS):
        records = reader.records(start, min(start + _BLOCK_ROWS, m))
        raws = records[:, 2:]
        if raws.max() > (1 << 15):
            raise DescriptorFormatError(f"{path}: element raw above 1.0")
        xy[start:start + len(records)] = records[:, :2]
        # Each norm has the bits of np.linalg.norm over the float view: the
        # squares (raw * 2**-15)**2 have at most 32 significant bits and
        # every partial sum of 128 of them at most 39, so each is exact and
        # any summation order gives the same bits.
        squares = np.multiply(raws, UQ1_15.lsb, out=part[:len(records)])
        np.square(squares, out=squares)
        block = np.sqrt(np.add.reduce(squares, axis=1))
        rows = np.flatnonzero(np.abs(block - 1.0) > NORM_TOLERANCE)
        off += (start + rows).tolist()
        norms += block[rows].tolist()
    if not off:
        return DescriptorSet.from_raws(str(path), reader, xy)
    return _renormalized(str(path), reader.read_all() * UQ1_15.lsb, xy, off,
                         norms)


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
