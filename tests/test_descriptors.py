import math
import os
import sys
import textwrap
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siftmatch import search
from siftmatch.descriptors import (
    DESCRIPTOR_LEN,
    Descriptor,
    DescriptorFormatError,
    DescriptorSet,
    _RecordReader,
    _ScaledRows,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from siftmatch.fixedpoint import UQ1_15, quantize_array
from siftmatch.pipeline import run_pipeline
from siftmatch.reference import match_all


def one_hot(idx, x=3, y=4):
    e = np.zeros(DESCRIPTOR_LEN)
    e[idx] = 1.0
    return e, (x, y)


def make_set(rows, xy=None):
    rows = np.asarray(rows, dtype=np.float64)
    if xy is None:
        xy = np.zeros((rows.shape[0], 2), dtype=np.uint16)
    return DescriptorSet.from_floats("test", rows, xy)


@pytest.fixture
def random_set():
    q, _, _ = generate_synthetic(17, seed=42, match_fraction=0.0, noise_sigma=0.0)
    return q


class TestRoundTrip:
    @pytest.mark.parametrize("fmt,ext", [("text", ".siftd"), ("binary", ".siftdb")])
    def test_save_load_identical_raws(self, tmp_path, random_set, fmt, ext):
        path = str(tmp_path / f"set{ext}")
        save_descriptor_set(random_set, path)
        head = {"text": b"SIFTD v1 text", "binary": b"SIFTDB01"}[fmt]
        assert (tmp_path / f"set{ext}").read_bytes().startswith(head)
        loaded = load_descriptor_set(path)
        assert np.array_equal(loaded.raws, random_set.raws)
        assert np.array_equal(loaded.xy, random_set.xy)

    def test_text_round_trip_preserves_floats(self, tmp_path, random_set):
        path = str(tmp_path / "set.siftd")
        save_descriptor_set(random_set, path)
        loaded = load_descriptor_set(path)
        assert np.array_equal(loaded.floats, random_set.floats)

    def test_binary_floats_are_exact_dequantization(self, tmp_path, random_set):
        path = str(tmp_path / "set.siftdb")
        save_descriptor_set(random_set, path)
        loaded = load_descriptor_set(path)
        assert np.array_equal(loaded.floats, loaded.raws.astype(np.float64) * UQ1_15.lsb)

    def test_binary_record_size(self, tmp_path, random_set):
        path = str(tmp_path / "set.siftdb")
        save_descriptor_set(random_set, path)
        size = (tmp_path / "set.siftdb").stat().st_size
        assert size == 12 + 260 * len(random_set)

    def test_format_inferred_from_extension(self, tmp_path, random_set):
        path = str(tmp_path / "set.siftdb")
        save_descriptor_set(random_set, path)
        assert len(load_descriptor_set(path)) == len(random_set)

    def test_unknown_extension_is_error(self, tmp_path, random_set):
        path = str(tmp_path / "set.bin")
        with pytest.raises(ValueError, match="expected a .siftd or .siftdb"):
            load_descriptor_set(path)
        with pytest.raises(ValueError, match="expected a .siftd or .siftdb"):
            save_descriptor_set(random_set, path)
        assert not (tmp_path / "set.bin").exists()


class TestValidation:
    def test_single_one_hot(self, tmp_path):
        e, xy = one_hot(5)
        s = make_set([e], [xy])
        path = str(tmp_path / "one.siftd")
        save_descriptor_set(s, path)
        loaded = load_descriptor_set(path)
        assert len(loaded) == 1
        assert np.linalg.norm(loaded.floats[0]) == 1.0

    def test_empty_set_rejected(self, tmp_path):
        path = tmp_path / "empty.siftd"
        path.write_text("SIFTD v1 text m=0\n")
        with pytest.raises(DescriptorFormatError, match="empty set"):
            load_descriptor_set(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.siftd"
        path.write_text("SIFTD v2 binary m=1\n")
        with pytest.raises(DescriptorFormatError, match="header"):
            load_descriptor_set(str(path))

    def test_wrong_element_count(self, tmp_path):
        path = tmp_path / "short.siftd"
        values = " ".join(["0.5"] * (DESCRIPTOR_LEN - 1))
        path.write_text(f"SIFTD v1 text m=1\n1 2 {values}\n")
        with pytest.raises(DescriptorFormatError, match="127 elements"):
            load_descriptor_set(str(path))

    def test_element_out_of_range(self, tmp_path):
        e, xy = one_hot(0)
        e[1] = 1.5
        path = tmp_path / "range.siftd"
        values = " ".join(repr(float(v)) for v in e)
        path.write_text(f"SIFTD v1 text m=1\n{xy[0]} {xy[1]} {values}\n")
        with pytest.raises(DescriptorFormatError, match=r"out of \[0, 1\]"):
            load_descriptor_set(str(path))

    @pytest.mark.parametrize("floats,raws,xy,message", [
        ((2, 127), (2, 127), (2, 2), r"floats must be \(m, 128\)"),
        ((128,), (128,), (128, 2), r"floats must be \(m, 128\)"),
        ((2, 128), (3, 128), (2, 2), "raw view shape must match"),
        (None, (2, 127), (2, 2), r"raws must be \(m, 128\)"),
        (None, (2, 128), (2, 3), r"xy must be \(m, 2\)"),
        ((2, 128), (2, 128), (3, 2), r"xy must be \(m, 2\)"),
    ])
    def test_set_shape_errors(self, floats, raws, xy, message):
        with pytest.raises(ValueError, match=message):
            DescriptorSet("s", None if floats is None else np.zeros(floats),
                          np.zeros(raws, np.uint16), np.zeros(xy, np.uint16))

    def test_binary_raw_above_one(self, tmp_path):
        records = np.zeros((1, 130), dtype="<u2")
        records[0, 2] = 0x8001  # 1.0 + 1 LSB
        path = tmp_path / "hot.siftdb"
        path.write_bytes(b"SIFTDB01" + (1).to_bytes(4, "little") + records.tobytes())
        with pytest.raises(DescriptorFormatError, match="above 1.0"):
            load_descriptor_set(str(path))

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.siftdb"
        path.write_bytes(b"NOTMAGIC" + (0).to_bytes(4, "little"))
        with pytest.raises(DescriptorFormatError, match="magic"):
            load_descriptor_set(str(path))

    def test_binary_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.siftdb"
        path.write_bytes(b"SIFTDB01" + (2).to_bytes(4, "little") + b"\x00" * 260)
        with pytest.raises(DescriptorFormatError, match="payload"):
            load_descriptor_set(str(path))

    @pytest.mark.parametrize("blob,message", [
        (b"", "bad magic"),
        (b"SIFT", "bad magic"),
        (b"NOTMAGIC" + (0).to_bytes(4, "little"), "bad magic"),
        (b"SIFTDB01", "truncated header"),
        (b"SIFTDB01\x01\x00", "truncated header"),
        (b"SIFTDB01" + (2).to_bytes(4, "little") + b"\x00" * 260,
         "payload is 260 bytes, expected 520"),
        (b"SIFTDB01" + (1).to_bytes(4, "little") + b"\x00" * 261,
         "payload is 261 bytes, expected 260"),
        (b"SIFTDB01" + (2**32 - 1).to_bytes(4, "little") + b"\x00" * 260,
         f"payload is 260 bytes, expected {(2**32 - 1) * 260}"),
        (b"SIFTDB01" + (0).to_bytes(4, "little"), "empty set"),
        (b"SIFTDB01" + (2).to_bytes(4, "little")
         + np.array([0] * 130 + [0] * 129 + [0xFFFF], dtype="<u2").tobytes(),
         "element raw above 1.0"),
    ])
    def test_binary_format_errors(self, tmp_path, blob, message):
        path = tmp_path / "bad.siftdb"
        path.write_bytes(blob)
        with pytest.raises(DescriptorFormatError) as info:
            load_descriptor_set(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_non_normalized_warns_and_rescales(self, tmp_path):
        e = np.full(DESCRIPTOR_LEN, 0.05)  # norm ~0.566
        path = tmp_path / "unnorm.siftd"
        values = " ".join(repr(float(v)) for v in e)
        path.write_text(f"SIFTD v1 text m=1\n0 0 {values}\n")
        with pytest.warns(UserWarning, match="not unit-norm"):
            loaded = load_descriptor_set(str(path))
        assert abs(np.linalg.norm(loaded.floats[0]) - 1.0) < 1e-9

    def test_non_normalized_warning_counts_rows(self, tmp_path):
        # the warning names the caller of load_descriptor_set: this file
        rows = [one_hot(0)[0], np.full(DESCRIPTOR_LEN, 0.05),
                np.full(DESCRIPTOR_LEN, 0.25)]
        for ext in (".siftd", ".siftdb"):
            path = str(tmp_path / f"unnorm{ext}")
            save_descriptor_set(make_set(rows), path)
            with pytest.warns(UserWarning) as record:
                load_descriptor_set(path)
            assert [(str(w.message), w.filename) for w in record] == [(
                f"{path}: 2 of 3 descriptors are not unit-norm; "
                "auto-normalizing", __file__)]

    def test_fixed_view_matches_quantized_float_view(self, tmp_path, random_set=None):
        q, _, _ = generate_synthetic(9, seed=3, match_fraction=0.0, noise_sigma=0.0)
        path = str(tmp_path / "q.siftd")
        save_descriptor_set(q, path)
        loaded = load_descriptor_set(path)
        assert np.array_equal(loaded.raws,
                              quantize_array(loaded.floats, UQ1_15).astype(np.uint16))


def load_rows(tmp_path, rows) -> DescriptorSet:
    """``rows`` saved as a text file and loaded, off-norm warning ignored."""
    path = str(tmp_path / "rows.siftd")
    save_descriptor_set(make_set(rows), path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_descriptor_set(path)


class TestNormalize:
    """Off-norm descriptors are rescaled to unit norm on load."""

    def test_one_hot_unchanged(self, tmp_path):
        e, _ = one_hot(7)
        assert np.array_equal(load_rows(tmp_path, [e]).floats[0], e)

    def test_all_equal_vector(self, tmp_path):
        out = load_rows(tmp_path, [np.full(DESCRIPTOR_LEN, 0.25)])
        assert np.allclose(out.floats[0], 1.0 / np.sqrt(DESCRIPTOR_LEN))

    def test_random_vector_unit_norm(self, tmp_path):
        rng = np.random.default_rng(11)
        out = load_rows(tmp_path, [rng.uniform(0.0, 0.3, DESCRIPTOR_LEN)])
        assert abs(np.linalg.norm(out.floats[0]) - 1.0) <= 1e-6

    def test_zero_vector_rejected(self, tmp_path):
        with pytest.raises(DescriptorFormatError, match="zero"):
            load_rows(tmp_path, [np.zeros(DESCRIPTOR_LEN)])

    @pytest.mark.parametrize("ext", [".siftd", ".siftdb"])
    @pytest.mark.parametrize("offset", [-1.5e-3, -0.5e-3, 0.5e-3, 1.5e-3])
    def test_norm_tolerance_edge(self, tmp_path, ext, offset):
        """A row whose norm is 0.5e-3 inside the 1e-3 bound loads unchanged
        and silently; one 0.5e-3 outside it warns and is rescaled."""
        row = np.abs(np.random.default_rng(5).standard_normal(DESCRIPTOR_LEN))
        row *= (1.0 + offset) / np.linalg.norm(row)
        written = make_set([row])
        stored = written.floats if ext == ".siftd" else \
            written.raws * UQ1_15.lsb
        # quantizing moves the norm by far less than the 0.5e-3 margin
        assert abs(np.linalg.norm(stored) - 1.0 - offset) < 1e-4
        path = str(tmp_path / f"edge{ext}")
        save_descriptor_set(written, path)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            loaded = load_descriptor_set(path)
        if abs(offset) < 1e-3:
            assert not record
            assert np.array_equal(loaded.floats, stored)
            assert np.array_equal(loaded.raws, written.raws)
        else:
            assert [str(w.message) for w in record] == [
                f"{path}: 1 of 1 descriptors are not unit-norm; "
                "auto-normalizing"]
            assert abs(np.linalg.norm(loaded.floats[0]) - 1.0) < 1e-9


class TestGenerateSynthetic:
    def test_full_match_no_noise_identity(self):
        q, db, truth = generate_synthetic(10, seed=7, match_fraction=1.0,
                                          noise_sigma=0.0)
        assert np.array_equal(q.floats, db.floats)
        assert truth == [(i, i) for i in range(10)]

    def test_zero_match_fraction(self):
        _, _, truth = generate_synthetic(10, seed=7, match_fraction=0.0,
                                         noise_sigma=0.1)
        assert truth == []

    def test_deterministic_in_seed(self, tmp_path):
        blobs = []
        for _ in range(2):
            q, db, _ = generate_synthetic(12, seed=99, match_fraction=0.5,
                                          noise_sigma=0.03)
            pa, pb = str(tmp_path / "a.siftdb"), str(tmp_path / "b.siftdb")
            save_descriptor_set(q, pa)
            save_descriptor_set(db, pb)
            blobs.append((tmp_path / "a.siftdb").read_bytes()
                         + (tmp_path / "b.siftdb").read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seeds_differ(self):
        q1, _, _ = generate_synthetic(5, seed=1, match_fraction=0.0, noise_sigma=0.0)
        q2, _, _ = generate_synthetic(5, seed=2, match_fraction=0.0, noise_sigma=0.0)
        assert not np.array_equal(q1.floats, q2.floats)

    def test_rows_are_unit_norm_and_in_range(self):
        q, db, _ = generate_synthetic(20, seed=5, match_fraction=0.5,
                                      noise_sigma=0.05)
        for s in (q, db):
            norms = np.linalg.norm(s.floats, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-9)
            assert (s.floats >= 0).all() and (s.floats <= 1).all()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, seed=0, match_fraction=0.5, noise_sigma=0.0)
        with pytest.raises(ValueError):
            generate_synthetic(5, seed=0, match_fraction=1.5, noise_sigma=0.0)
        with pytest.raises(ValueError):
            generate_synthetic(5, seed=0, match_fraction=0.5, noise_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_noise_is_rejected(self, sigma):
        # NaN once read as no noise, and inf as all-zero query rows.
        with pytest.raises(ValueError, match="finite"):
            generate_synthetic(5, seed=0, match_fraction=0.5, noise_sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e160, 1e308])
    def test_overflowing_noise_is_rejected(self, sigma):
        # The squares of the noisy rows overflow: the norms were inf, and
        # the rows all zero or nan.
        with pytest.raises(ValueError, match="overflows"):
            generate_synthetic(20, seed=0, match_fraction=1.0,
                               noise_sigma=sigma)


class TestSetApi:
    def test_indexing_and_iteration(self, random_set):
        d = random_set[3]
        assert isinstance(d, Descriptor)
        assert (d.x, d.y) == (int(random_set.xy[3, 0]), int(random_set.xy[3, 1]))
        assert sum(1 for _ in random_set) == len(random_set)

    def test_raw_set_derives_floats_lazily(self, random_set):
        s = DescriptorSet.from_raws("r", random_set.raws, random_set.xy)
        assert s.raw_exact
        d = s[3]
        assert s._floats is None  # one descriptor, not the whole float view
        assert np.array_equal(d.elements, s.raws[3] * UQ1_15.lsb)
        assert np.array_equal(d.raws, s.raws[3])
        assert s.floats is s.floats
        assert np.array_equal(s.floats, s.raws.astype(np.float64) * UQ1_15.lsb)
        assert np.array_equal(s[3].elements, d.elements)
        with pytest.raises(ValueError):
            d.elements[0] = 0.5
        with pytest.raises(ValueError):
            s.floats[0, 0] = 0.5

    @pytest.mark.parametrize("binary", [False, True])
    def test_blocked_norms_match_whole_matrix(self, tmp_path, binary):
        # Norms taken while a file is read renormalize the same bits as the
        # whole-matrix oracle below.  The last 256-row block holds one row,
        # itself off-norm, and off-norm rows are mixed in at 0.2-3x.
        rng = np.random.default_rng(4)
        rows = np.abs(rng.standard_normal((2 * 256 + 1, DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        off = rng.random(len(rows)) < 0.3
        off[-1] = True
        rows[off] *= rng.uniform(0.2, 3.0, (off.sum(), 1))
        np.clip(rows, 0.0, 1.0, out=rows)
        path = str(tmp_path / ("rows.siftdb" if binary else "rows.siftd"))
        save_descriptor_set(make_set(rows), path)
        if binary:  # the file's floats
            rows = make_set(rows).raws * UQ1_15.lsb
        with pytest.warns(UserWarning, match="not unit-norm"):
            loaded = load_descriptor_set(path)

        norms = np.linalg.norm(rows, axis=1)
        scaled = np.abs(norms - 1.0) > 1e-3
        assert scaled[-1] and not scaled.all()
        rows[scaled] /= norms[scaled, None]
        np.clip(rows, 0.0, 1.0, out=rows)
        oracle = DescriptorSet.from_floats("oracle", rows, loaded.xy)
        assert np.array_equal(loaded.raws, oracle.raws)
        assert np.array_equal(loaded.floats.view(np.uint64),
                              oracle.floats.view(np.uint64))

    def test_off_norm_binary_load_keeps_a_patch(self, tmp_path):
        """A .siftdb set with one off-norm row streams as a clean one does,
        holding that row's raws and floats alone: its load peaks below
        0.1 KiB a row, as a clean file's does (a whole raw and float view
        would be 1.25 KiB a row)."""
        count = 16384
        rows = np.abs(np.random.default_rng(3).standard_normal(
            (count, DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[7] /= 2
        path = str(tmp_path / "half.siftdb")
        save_descriptor_set(make_set(rows), path)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match=f"1 of {count} descriptors"):
                loaded = load_descriptor_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not loaded.raw_exact
        assert not isinstance(loaded.raw_rows, np.ndarray)
        assert peak < 0.1 * 1024 * count

    @pytest.mark.parametrize("kind", ["in-memory", "streamed", "patched"])
    def test_descriptor_indices_act_as_on_a_list(self, streamed, random_set,
                                                 kind):
        """One descriptor's index wraps and is range-checked as a list's
        is, in memory and streamed, with or without a patch."""
        raws = random_set.raws.copy()
        if kind == "patched":
            raws[[0, 5, -1]] //= 2
        oracle = in_memory(raws, random_set.xy)
        s = oracle
        if kind != "in-memory":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = streamed(DescriptorSet.from_raws("r", raws, random_set.xy))
        m = len(s)
        for k in (-1, 0, m - 1, -m, 4, 5, 6, -2, np.int64(-1), np.intp(5)):
            got = s[k]
            assert same_bits(got.raws, oracle.raws[k]), k
            assert same_bits(got.elements, oracle.floats[k]), k
            assert (got.x, got.y) == tuple(oracle.xy[k].tolist()), k
        for k in (m, -m - 1, np.int64(m)):
            with pytest.raises(IndexError):
                s[k]

    @pytest.mark.parametrize("kind", ["streamed", "patched raws",
                                      "patched floats", "window"])
    def test_row_sources_take_slices_only(self, streamed, random_set, kind):
        """A streamed set's row sources and a band window read a slice of
        consecutive rows, bounded as an ndarray bounds it: an empty range
        is (0, 128), a step other than 1 a ValueError and anything but a
        slice a TypeError."""
        raws = random_set.raws.copy()
        if kind.startswith("patched"):
            raws[[0, 5, -1]] //= 2
        oracle = in_memory(raws, random_set.xy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = streamed(DescriptorSet.from_raws("r", raws, random_set.xy))
        source, whole = ((s.float_rows, oracle.floats) if kind.endswith(
            "floats") else (s.raw_rows, oracle.raws))
        if kind == "window":
            source, whole = search._Window(source, slice(2, 12)), whole[2:12]
        m = len(whole)
        for rows in (slice(3, 3), slice(10, 5), slice(m + 5, None),
                     slice(-3, None), slice(2, m + 9), slice(None),
                     slice(-m - 4, 4), slice(np.int64(1), np.intp(4))):
            got = source[rows]
            assert got.shape == whole[rows].shape, rows
            assert same_bits(got, whole[rows]), rows
        for rows in (slice(0, 6, 2), slice(None, None, -1)):
            with pytest.raises(ValueError, match="consecutive rows"):
                source[rows]
        for rows in (3, np.int64(3), [0, 1], np.array([1]), (1, 2)):
            with pytest.raises(TypeError, match="takes a slice"):
                source[rows]

    @pytest.mark.parametrize("kind", [
        "in-memory", "reader", "patched reader", "scaled", "patched scaled",
        "window"])
    def test_rows_read_stay_as_read(self, streamed, random_set, kind):
        """Every row source hands out read-only rows of their own: reading
        other rows, or the same rows again, changes no row read before.  A
        set's whole views and one descriptor's rows are read-only too."""
        raws = random_set.raws.copy()
        if kind.startswith("patched"):
            raws[[0, 5, -1]] //= 2
        s = DescriptorSet.from_raws("r", raws, random_set.xy)
        if kind != "in-memory":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = streamed(s)
        source, type_ = {
            "in-memory": (s.raw_rows, np.ndarray),
            "reader": (s.raw_rows, _RecordReader),
            "patched reader": (s.raw_rows, _RecordReader),
            "scaled": (s.float_rows, _ScaledRows),
            "patched scaled": (s.float_rows, _ScaledRows),
            "window": (search._Window(s.raw_rows, slice(2, 12)),
                       search._Window),
        }[kind]
        assert isinstance(source, type_)
        patch = getattr(source, "fixed", None)
        assert (patch is not None) == kind.startswith("patched")
        first = source[0:4]
        kept = first.copy()
        second = source[4:8]
        assert same_bits(first, kept)
        both = source[0:8]
        assert same_bits(first, kept) and same_bits(both[:4], kept)
        assert same_bits(second, both[4:])
        for rows in (first, s[3].raws, s[3].elements, s.floats, s.raws):
            assert not rows.flags.writeable

    @pytest.mark.parametrize("patched", [False, True])
    def test_streamed_floats_leave_the_raws_unread(self, streamed,
                                                   random_set, patched):
        """``floats`` of a streamed set reads its float rows whole, with
        the bits of the raws read whole and scaled, the patch written over,
        and does not load and keep the raws on the way."""
        raws = random_set.raws.copy()
        if patched:
            raws[[0, 5, -1]] //= 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s, t = (streamed(DescriptorSet.from_raws("r", raws,
                                                     random_set.xy))
                    for _ in range(2))
        want = _ScaledRows(t.raws, getattr(t.float_rows, "fixed", None))[:]
        assert s.floats is s.floats
        assert same_bits(s.floats, want)
        assert same_bits(s.floats, in_memory(raws, random_set.xy).floats)
        assert isinstance(s.raw_rows, _RecordReader)

    def test_views_read_only(self, random_set):
        with pytest.raises(ValueError):
            random_set.floats[0, 0] = 0.5

    def test_caller_arrays_stay_writeable(self, random_set):
        rows, xy = random_set.floats.copy(), random_set.xy.copy()
        set_ = DescriptorSet.from_floats("rows", rows, xy)
        assert rows.flags.writeable and xy.flags.writeable
        assert not set_.floats.flags.writeable
        assert not set_.raws.flags.writeable and not set_.xy.flags.writeable
        assert np.shares_memory(set_.floats, rows)

    @pytest.mark.parametrize("count,ext", [(16384, ".siftdb"),
                                           (1024, ".siftd")])
    def test_streamed_set_is_never_read_whole(self, tmp_path, count, ext):
        """One descriptor of a streamed set reads its row alone, and saving
        the set reads it a few rows at a time: the set stays streamed, and
        neither holds the file's raws (4 MiB and 256 KiB).
        The text save, the slower, takes the smaller set."""
        source = make_set(unit_rows(8, count))
        path = str(tmp_path / "s.siftdb")
        save_descriptor_set(source, path)
        s = load_descriptor_set(path)
        tracemalloc.start()
        try:
            first, last = s[0], s[-1]
            kept = tracemalloc.get_traced_memory()[0]
            save_descriptor_set(s, str(tmp_path / f"copy{ext}"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not isinstance(s.raw_rows, np.ndarray)
        assert kept < 64 << 10
        assert peak < count * DESCRIPTOR_LEN  # half the raws' bytes
        for d, k in ((first, 0), (last, count - 1)):
            assert np.array_equal(d.raws, source.raws[k])
            assert np.array_equal(d.elements, source.raws[k] * UQ1_15.lsb)
            assert not d.raws.flags.writeable
        copy = load_descriptor_set(str(tmp_path / f"copy{ext}"))
        assert np.array_equal(copy.raws, source.raws)
        assert np.array_equal(copy.xy, source.xy)


def in_memory(raws, xy) -> DescriptorSet:
    """The set a .siftdb file of ``raws`` loads as, built whole in memory:
    its off-norm rows renormalized and quantized again, the float view
    kept."""
    raws = np.array(raws, dtype=np.uint16)
    floats = raws * UQ1_15.lsb
    norms = np.linalg.norm(floats, axis=1)
    off = np.abs(norms - 1.0) > 1e-3
    floats[off] = np.clip(floats[off] / norms[off, None], 0.0, 1.0)
    raws[off] = quantize_array(floats[off])
    return DescriptorSet("in-memory", floats, raws, xy)


def same_bits(a, b) -> bool:
    """Both ``None``, or arrays of one dtype and shape with the same bytes."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def unit_rows(seed: int, count: int) -> np.ndarray:
    rows = np.abs(np.random.default_rng(seed).standard_normal(
        (count, DESCRIPTOR_LEN)))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def partners(tmp_path_factory, streamed):
    """A 24-row set loaded from a .siftd file and one streamed from a clean
    .siftdb file."""
    path = str(tmp_path_factory.mktemp("partners") / "p.siftd")
    save_descriptor_set(make_set(unit_rows(6, 24)), path)
    return {"text": load_descriptor_set(path),
            "binary": streamed(make_set(unit_rows(7, 24)))}


class TestOffNormPatch:
    """A .siftdb set with off-norm rows streams, its rows patched as they
    are read, and equals bit for bit the set built whole in memory."""

    BIG = 300  # one 256-row check block and part of another

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_patched_set_equals_in_memory_set(self, streamed, partners, data):
        big, tile = self.BIG, data.draw(st.integers(8, 64), label="tile")
        # the first and last row of each check block and search tile
        edges = sorted({0, 255, 256, big - 1} | {
            k for t in range(tile, big, tile) for k in (t - 1, t)})
        off = sorted(data.draw(st.lists(
            st.sampled_from(edges) | st.integers(0, big - 1),
            min_size=1, max_size=6, unique=True), label="off"))
        factors = data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.5, 2.5]),
                                     min_size=len(off), max_size=len(off)))
        side = data.draw(st.sampled_from(["queries", "database"]))
        partner = partners[data.draw(st.sampled_from(["text", "binary"]))]

        rows = unit_rows(5, big)
        rows[off] = np.clip(rows[off] * np.array(factors)[:, None], 0.0, 1.0)
        written = make_set(rows, np.arange(2 * big).reshape(big, 2))
        with pytest.warns(UserWarning, match=f"{len(off)} of {big} "):
            loaded = streamed(written)
        oracle = in_memory(written.raws, written.xy)
        assert not loaded.raw_exact

        def engines(s):
            q, d = (s, partner) if side == "queries" else (partner, s)
            with mock.patch.multiple(search, TILE_ROWS=tile, TILE_COLS=tile,
                                     TILE_DOTS=1):
                return match_all(q, d), run_pipeline(q, d).matches

        for got, want in zip(engines(loaded), engines(oracle)):
            for name in vars(want):
                assert same_bits(getattr(got, name), getattr(want, name)), name
        for a, b in ((0, big), (tile - 1, 2 * tile + 1), (250, 260)):
            assert same_bits(loaded.raw_rows[a:b], oracle.raws[a:b])
            assert same_bits(loaded.float_rows[a:b], oracle.floats[a:b])
        for k in off + [-1, -2, -big, off[0] - big]:
            got, want = loaded[k], oracle[k]
            assert same_bits(got.elements, want.elements), k
            assert same_bits(got.raws, want.raws), k
            assert (got.x, got.y) == (want.x, want.y)
        assert same_bits(loaded.raws, oracle.raws)
        assert same_bits(loaded.floats, oracle.floats)

    @pytest.mark.parametrize("kind", ["raws", "floats", "window"])
    def test_picked_rows_read_as_a_gather(self, streamed, kind):
        """The follow-up pass reads its picked rows, which ascend, a slice
        per run of consecutive rows: single rows, runs that cross a
        TILE_ROWS piece and a run ending at the last row read as a gather
        from the whole array does, patched rows among them, from any
        first picked row on."""
        big, off = 40, [1, 6, 13, 39]
        rows = unit_rows(9, big)
        rows[off] /= 2
        written = make_set(rows)
        with pytest.warns(UserWarning, match=f"{len(off)} of {big} "):
            loaded = streamed(written)
        oracle = in_memory(written.raws, written.xy)
        source, whole = {
            "raws": (loaded.raw_rows, oracle.raws),
            "floats": (loaded.float_rows, oracle.floats),
            "window": (search._Window(loaded.raw_rows, slice(3, big)),
                       oracle.raws[3:]),
        }[kind]
        n = len(whole)
        # pieces of 4: [0 3 5 6] [7 8 9 13] [20 n-4 n-3 n-2] [n-1]
        picked = np.array([0, 3, 5, 6, 7, 8, 9, 13, 20,
                           n - 4, n - 3, n - 2, n - 1])
        for start in (0, 2, 5, len(picked) - 1):
            out = np.full((len(picked) - start, DESCRIPTOR_LEN), np.nan)
            with mock.patch.object(search, "TILE_ROWS", 4):
                search._read(out, source, start, picked)
            assert same_bits(out, whole[picked[start:]].astype(np.float64)), \
                start

    def test_load_reads_each_record_once(self, tmp_path, monkeypatch):
        """The load keeps the off-norm rows' floats from its one check
        pass: it reads no record a second time."""
        rows = unit_rows(11, 600)
        rows[[0, 255, 256, 599]] *= 0.5
        path = str(tmp_path / "off.siftdb")
        save_descriptor_set(make_set(rows), path)
        reads, preadv = [], os.preadv

        def counted(fd, buffers, offset):
            reads.append((offset, preadv(fd, buffers, offset)))
            return reads[-1][1]

        monkeypatch.setattr(os, "preadv", counted)
        with pytest.warns(UserWarning, match="4 of 600 descriptors"):
            loaded = load_descriptor_set(path)
        end = 12  # each read starts where the last one ended
        for offset, got in reads:
            assert offset == end
            end += got
        assert end == 12 + 600 * 260
        assert not loaded.raw_exact


_MEASURE = textwrap.dedent("""
    import resource, sys
    from siftmatch.descriptors import load_descriptor_set
    before = resource.getrusage(resource.RUSAGE_SELF)
    load_descriptor_set(sys.argv[1])
    after = resource.getrusage(resource.RUSAGE_SELF)
    print((after.ru_maxrss - before.ru_maxrss) * 1024)  # KiB on Linux
    print(after.ru_minflt - before.ru_minflt)
""")


@pytest.fixture(scope="module")
def load_growth(tmp_path_factory, grandchild):
    """(peak RSS growth in bytes, minor page faults, file size) of loading
    a 40000-row .siftdb set in a fresh process."""
    rows = np.abs(np.random.default_rng(8).standard_normal((64, DESCRIPTOR_LEN)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    raws = quantize_array(rows, UQ1_15).astype(np.uint16)
    count = 40000
    path = tmp_path_factory.mktemp("load") / "big.siftdb"
    save_descriptor_set(
        DescriptorSet.from_floats("big", raws[np.arange(count) % 64] * UQ1_15.lsb,
                                  np.zeros((count, 2), dtype=np.uint16)),
        str(path))
    growth, faults = map(int, grandchild(_MEASURE, str(path)).split())
    return growth, faults, path.stat().st_size


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and inherited as on Linux")
def test_binary_load_peak_memory(load_growth):
    """Loading a .siftdb set grows peak RSS by less than a quarter of its
    file size: the load checks the file block by block and keeps no raws."""
    growth, _, size = load_growth
    assert 0 < growth < size // 4


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor faults counted per 4 KiB page as on Linux")
def test_binary_load_page_faults(load_growth):
    """Loading a .siftdb set faults in fewer than two pages per 4 KiB page
    of the file: the norm check reuses one block, so temporaries freed and
    allocated again per block do not fault in memory many times over."""
    _, faults, size = load_growth
    assert faults < 2 * size / 4096
