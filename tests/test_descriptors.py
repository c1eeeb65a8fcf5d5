import math
import sys
import textwrap
import warnings

import numpy as np
import pytest

from siftmatch.descriptors import (
    DESCRIPTOR_LEN,
    Descriptor,
    DescriptorFormatError,
    DescriptorSet,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from siftmatch.fixedpoint import UQ1_15, quantize_array


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
