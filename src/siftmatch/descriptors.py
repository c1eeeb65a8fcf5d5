"""Descriptor data model, file I/O and synthetic test-set generation.

A descriptor is a 128-element non-negative feature vector (values in [0, 1],
L2 norm ~1) plus a 16-bit (x, y) pixel location.  Every descriptor carries
two synchronized views: float64 elements and their UQ1.15 quantization, so
the float reference matcher and the fixed-point hardware model consume the
same data.  Sets are immutable after construction.

A binary file loads as a *streamed* set, as the hardware streams its
database from DRAM.  The load checks the file in one pass,
:data:`_BLOCK_ROWS` records at a time: the header, the size, every raw and
every row's norm.  The set then holds the open file and its (x, y) column
(4 bytes a row) and no raws.  The engines read it through
:attr:`DescriptorSet.raw_rows`, a few rows a read (see
:mod:`siftmatch.search`), and ``match`` writes its verdicts one band of
queries at a time, so a match holds a few MiB of scratch whatever the
sizes of its files: from 10000 to 160000 queries against 64 rows its peak
RSS grows 4-6 bytes a query, 4 of them the (x, y) column.
:attr:`DescriptorSet.raws` reads the whole file once and keeps it, for
callers that want every raw at once; indexing one descriptor reads its row
alone, and :func:`descriptor_file` reads a set a few rows at a time.  Both
loaders take each row's norm, and keep each off-norm row, in the one pass
that reads it; :func:`_renormalize` rescales the off-norm rows alone.  A
binary set keeps those rows as a patch, written over every read: their raws
quantized again, and their floats.  Every other row's float is exactly
``raw * 2**-15``; with no such row the set is raw-exact.

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
from .search import _span

__all__ = [
    "DESCRIPTOR_LEN",
    "Descriptor",
    "DescriptorFormatError",
    "DescriptorSet",
    "descriptor_file",
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
# Rows per read of a text save (1024 rows peaked at 66 KB traced, 230 at 64).
_TEXT_ROWS = 16


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

    Opening checks the magic and that the size matches the header.  Each
    read, ``reader[start:stop]``, reads those records into a new array,
    writes ``fixed`` (``None`` or sorted ``(rows, raws)``) over its rows and
    returns their raws, read-only; the reader keeps nothing between reads.
    The file stays open from the check to the last read, so a file renamed
    over the path changes nothing that is read; it is closed when the
    reader is dropped.  A file that has shrunk since it was opened raises
    ``OSError``.
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
        self.fixed = None

    def __len__(self) -> int:
        return self.shape[0]

    def records(self, start: int, stop: int) -> np.ndarray:
        """Records ``start:stop``, ``fixed`` written over, as a new read-only
        (rows, 130) array of words: x, y and the 128 raws."""
        records = np.empty((stop - start, _RECORD_WORDS), dtype="<u2")
        # Flat: memoryview cannot cast a 2-D view of no rows.
        view = memoryview(records.reshape(-1)).cast("B")
        offset = _BINARY_HEADER_BYTES + start * RECORD_BYTES
        while view.nbytes:
            got = os.preadv(self._file.fileno(), [view], offset)
            if not got:
                raise OSError(
                    f"{self.path}: the file ends at byte {offset}; it held "
                    f"{len(self)} descriptors when it was loaded")
            view, offset = view[got:], offset + got
        _overwrite(records[:, 2:], self.fixed, start)
        records.setflags(write=False)
        return records

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.records(*_span(rows, len(self)))[:, 2:]


def _overwrite(out: np.ndarray, patch, first: int) -> None:
    """Write ``patch``, ``None`` or sorted ``(rows, values)``, over those of
    its rows that ``out`` holds: rows ``first:first + len(out)``."""
    if patch is not None:
        rows, values = patch
        lo, hi = np.searchsorted(rows, (first, first + len(out)))
        out[rows[lo:hi] - first] = values[lo:hi]


class _ScaledRows:
    """A row source of raws as one of read-only floats ``raw * 2**-15``;
    ``fixed`` is ``None`` or ``(rows, floats)``, sorted rows written over."""

    def __init__(self, raws, fixed=None):
        self.raws, self.shape, self.fixed = raws, raws.shape, fixed

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop = _span(rows, len(self))
        floats = self.raws[start:stop] * UQ1_15.lsb
        _overwrite(floats, self.fixed, start)
        floats.setflags(write=False)
        return floats


class DescriptorSet:
    """Ordered, immutable collection of descriptors for one image.

    ``raws`` is (m, 128) uint16 UQ1.15, ``xy`` is (m, 2) uint16 and
    ``floats`` the (m, 128) float64 view.  Order is load order and stable.
    ``floats`` may be ``None``: the set is then ``raw_exact``, its float
    view is ``raws * 2**-15``, derived on first access of :attr:`floats` and
    kept, and the engines run exact GEMMs on the raws (see
    :mod:`siftmatch.search`).  Every set built by :meth:`from_raws`, such as
    a ``.siftdb`` load with every norm in range, is raw-exact.  ``raws`` may
    also be the row reader of a checked ``.siftdb`` file, and ``floats``
    its patched float view: the set is then streamed (see the module
    docstring).  It shares memory with the arrays it is given, through
    read-only views of its own, and never writes them.
    """

    def __init__(self, image_id: str, floats: np.ndarray | None,
                 raws, xy: np.ndarray):
        if not isinstance(raws, _RecordReader):
            raws = np.asarray(raws, dtype=np.uint16).view()
            raws.setflags(write=False)
        xy = np.asarray(xy, dtype=np.uint16).view()
        xy.setflags(write=False)
        if floats is not None and not isinstance(floats, _ScaledRows):
            floats = np.asarray(floats, dtype=np.float64).view()
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

    @property
    def raws(self) -> np.ndarray:
        """(m, 128) uint16 raws; a streamed set reads its file whole on
        first access and keeps the raws."""
        if isinstance(self._raws, _RecordReader):
            self._raws = self._raws[:]
        return self._raws

    @property
    def raw_rows(self):
        """The raws as a row source for :mod:`siftmatch.search`, read by
        slices: the file reader of a streamed set, else :attr:`raws`."""
        return self._raws

    @property
    def float_rows(self):
        """Float elements as a row source: the floats, or raw_rows scaled."""
        return _ScaledRows(self._raws) if self._floats is None else self._floats

    @property
    def floats(self) -> np.ndarray:
        """(m, 128) float64 elements: :attr:`float_rows` read whole on first
        access and kept."""
        if not isinstance(self._floats, np.ndarray):
            self._floats = self.float_rows[:]
        return self._floats

    @classmethod
    def from_floats(cls, image_id: str, floats: np.ndarray,
                    xy: np.ndarray) -> "DescriptorSet":
        """Build a set from float elements; the raw view is quantized from them."""
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
        """One descriptor, indexed as in a list and read through the row
        sources: a streamed set reads that row alone and stays streamed."""
        k = range(len(self))[index]
        return Descriptor(elements=self.float_rows[k:k + 1][0],
                          raws=self.raw_rows[k:k + 1][0],
                          x=int(self.xy[k, 0]), y=int(self.xy[k, 1]))


def _infer_format(path: str) -> str:
    if str(path).endswith(".siftd"):
        return "text"
    if str(path).endswith(".siftdb"):
        return "binary"
    raise ValueError(f"cannot infer format from {path!r}: "
                     "expected a .siftd or .siftdb file")


def _renormalize(path: str, rows: np.ndarray, norms: list[float],
                 m: int) -> np.ndarray:
    """The off-norm ``rows`` of a set of ``m``, of L2 norms ``norms``,
    rescaled to unit norm and clipped to [0, 1], warning the caller of
    :func:`load_descriptor_set`; a zero row raises first."""
    if 0.0 in norms:
        raise DescriptorFormatError(f"{path}: zero descriptor cannot be normalized")
    message = f"{path}: {len(rows)} of {m} descriptors are not unit-norm"
    try:
        warnings.warn(f"{message}; auto-normalizing", stacklevel=4)
    except UserWarning as exc:  # warnings are errors: nothing is rescaled
        raise type(exc)(message) from None
    rows = rows / np.array(norms)[:, None]
    return np.clip(rows, 0.0, 1.0, out=rows)


def load_descriptor_set(path: str) -> DescriptorSet:
    """Load a descriptor set, validating shape and element range.

    The extension names the format: ``.siftd`` text or ``.siftdb`` binary.

    Non-unit-norm descriptors trigger a warning and are rescaled to unit
    norm.  Raises :class:`DescriptorFormatError` on malformed input,
    including an empty set.  A ``.siftdb`` file gives a streamed set (see
    the module docstring).
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
        # Whitespace alone may follow, read in bounded chunks: one huge
        # trailing line must not become a MemoryError.
        while chunk := fh.read(1 << 16):
            if chunk.strip():
                raise DescriptorFormatError(
                    f"{path}: trailing data after {m} descriptors")
    if off:
        floats[off] = _renormalize(str(path), floats[off], norms, m)
    return DescriptorSet.from_floats(str(path), floats, xy)


def _load_binary(path: str) -> DescriptorSet:
    """Check a ``.siftdb`` file in one pass of :data:`_BLOCK_ROWS` records
    at a time, giving a streamed set; the pass keeps the off-norm rows'
    floats, renormalized, quantized again and patched over the file's."""
    reader = _RecordReader(str(path))
    m = len(reader)
    xy = np.empty((m, 2), dtype=np.uint16)
    part = np.empty((min(m, _BLOCK_ROWS), DESCRIPTOR_LEN))
    off, norms, kept = [], [], []
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
        kept += list(raws[rows] * UQ1_15.lsb)
    floats = None
    if off:
        kept = _renormalize(str(path), np.array(kept), norms, m)
        # Every other raw is already quantize_array(raw * 2**-15).
        rows = np.array(off)
        reader.fixed = (rows, quantize_array(kept).astype(np.uint16))
        floats = _ScaledRows(reader, (rows, kept))
    return DescriptorSet(str(path), floats, reader, xy)


def descriptor_file(set_: DescriptorSet, path: str):
    """``set_`` as the byte pieces of a file in the format that ``path``'s
    extension names, checked first: the header, then rows read a few at a
    time through the row sources (a streamed set is never read whole)."""
    return _file_pieces(set_, _infer_format(path) == "text")


def _file_pieces(set_: DescriptorSet, text: bool):
    m, step = len(set_), _TEXT_ROWS if text else _BLOCK_ROWS
    yield (f"{_TEXT_HEADER} m={m}\n".encode("ascii") if text
           else _BINARY_MAGIC + m.to_bytes(4, "little"))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        if text:
            xy = set_.xy[rows].tolist()
            for (x, y), row in zip(xy, set_.float_rows[rows]):
                values = " ".join(map(repr, row.tolist()))
                yield f"{x} {y} {values}\n".encode("ascii")
        else:  # x, y and the raws of each record
            yield np.concatenate((set_.xy[rows], set_.raw_rows[rows]),
                                 axis=1, dtype="<u2")


def save_descriptor_set(set_: DescriptorSet, path: str) -> None:
    """Write :func:`descriptor_file` of ``set_`` to ``path``."""
    pieces = descriptor_file(set_, path)  # an unknown extension opens nothing
    with open(path, "wb") as fh:
        fh.writelines(pieces)


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
    vectors.  Noise is i.i.d. Gaussian, clipped non-negative, renormalized;
    a ``noise_sigma`` at which a noisy row's norm overflows is a
    ``ValueError``.  Fully deterministic in ``seed``.
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
            with np.errstate(over="ignore"):  # an overflow is raised below
                norms = np.linalg.norm(noisy, axis=1, keepdims=True)
            if not np.isfinite(norms).all():
                raise ValueError(f"noise_sigma {noise_sigma!r} overflows a norm")
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
