import dataclasses
import hashlib
import importlib.util
import math
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from siftmatch import cordic
from siftmatch.cordic import (
    AngleSample,
    CordicConfig,
    DEFAULT_CONFIG,
    arccos_raw_batch,
    arccos_table,
    cordic_arccos,
    one_minus_sq_raw_batch,
    polar_raw_batch,
    sqrt_raw_batch,
)
from siftmatch.fixedpoint import UQ1_15, UQ2_14, FxSample

LSB15 = UQ1_15.lsb
LSB14 = UQ2_14.lsb


def fx15(value: float) -> FxSample:
    return FxSample(raw15(value), UQ1_15)


def raw15(value: float) -> int:
    return round(value * 2 ** 15)


def one(kernel, *values: float) -> int:
    """A batch kernel's raw output for one input of each UQ1.15 value."""
    return int(kernel(*map(raw15, values))[0])


class TestConfig:
    def test_defaults(self):
        assert cordic.SQRT_ITERATIONS == 37
        assert cordic.POLAR_ITERATIONS == 11
        assert CordicConfig.polar_rotations == 16  # angle fraction bits + 2

    def test_formats_are_fixed(self):
        assert dataclasses.fields(CordicConfig) == ()
        assert DEFAULT_CONFIG.input_format is UQ1_15
        assert DEFAULT_CONFIG.angle_format is UQ2_14


class TestSqrt:
    def test_zero(self):
        assert one(sqrt_raw_batch, 0.0) == 0

    def test_one(self):
        assert abs(one(sqrt_raw_batch, 1.0) - 0x8000) <= 1

    def test_quarter(self):
        assert abs(one(sqrt_raw_batch, 0.25) * LSB15 - 0.5) <= 4 * LSB15

    def test_float_oracle_sweep(self):
        # 4-LSB absolute accuracy over [0.03, 1]
        raws = np.arange(round(0.03 * 2 ** 15), 2 ** 15 + 1, dtype=np.int64)
        got = sqrt_raw_batch(raws) * LSB15
        want = np.sqrt(raws * LSB15)
        assert np.abs(got - want).max() <= 4 * LSB15

    def test_small_inputs_stay_accurate(self):
        # The power-of-4 prescaling keeps even tiny arguments convergent.
        raws = np.arange(1, round(0.03 * 2 ** 15), dtype=np.int64)
        got = sqrt_raw_batch(raws) * LSB15
        want = np.sqrt(raws * LSB15)
        assert np.abs(got - want).max() <= 4 * LSB15


class TestOneMinusXSquared:
    def test_endpoints(self):
        assert one(one_minus_sq_raw_batch, 0.0) == 0x8000
        assert one(one_minus_sq_raw_batch, 1.0) == 0

    def test_0p6(self):
        out = one(one_minus_sq_raw_batch, 0.6)
        assert abs(out * LSB15 - 0.64) <= 2 * LSB15

    def test_saturates_at_zero_above_one(self):
        top = UQ1_15.max_raw  # ~1.99997, square > 1
        assert one_minus_sq_raw_batch(top).tolist() == [0]

    def test_matches_float_oracle(self):
        raws = np.arange(0, 2 ** 15 + 1, 37, dtype=np.int64)
        got = one_minus_sq_raw_batch(raws) * LSB15
        want = 1.0 - (raws * LSB15) ** 2
        assert np.abs(got - want).max() <= 2 ** -16 + 1e-12


class TestPolarAngle:
    def test_axis_u(self):
        assert one(polar_raw_batch, 1.0, 0.0) == 0

    def test_axis_v(self):
        out = one(polar_raw_batch, 0.0, 1.0)
        assert abs(out * LSB14 - math.pi / 2) <= 2 * LSB14

    def test_diagonal(self):
        out = one(polar_raw_batch, 1.0, 1.0)
        assert abs(out * LSB14 - math.pi / 4) <= 2 * LSB14

    def test_degenerate_origin(self):
        # (0, 0) has no defined angle; the kernel gives 0
        assert one(polar_raw_batch, 0.0, 0.0) == 0

    def test_atan2_oracle_grid(self):
        rng = np.random.default_rng(7)
        u = rng.integers(0, 2 ** 15 + 1, 400)
        v = rng.integers(0, 2 ** 15 + 1, 400)
        keep = (u | v) != 0
        u, v = u[keep], v[keep]
        got = polar_raw_batch(u, v) * LSB14
        want = np.arctan2(v * LSB15, u * LSB15)
        assert np.abs(got - want).max() <= 2 * LSB14


class TestArccos:
    def test_one_maps_to_zero(self):
        assert cordic_arccos(fx15(1.0)).raw <= 2

    def test_zero_maps_to_half_pi(self):
        out = cordic_arccos(fx15(0.0))
        assert abs(out.radians - math.pi / 2) <= 2 * LSB14

    def test_half(self):
        out = cordic_arccos(fx15(0.5))
        assert abs(out.radians - 1.047198) <= 8 * LSB14

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            cordic_arccos(FxSample(1, UQ2_14))

    def test_above_one_maps_to_zero(self):
        # quantization can push a dot product slightly over 1.0
        out = cordic_arccos(FxSample(0x8000 + 13, UQ1_15))
        assert out.raw == 0

    def test_accuracy_sweep_bound(self):
        raws = np.arange(2 ** 15 + 1, dtype=np.int64)
        err = np.abs(arccos_raw_batch(raws) * LSB14 - np.arccos(raws * LSB15))
        assert err.max() <= 8 * LSB14

    def test_monotone_outside_measured_bound(self):
        raws = np.arange(2 ** 15 + 1, dtype=np.int64)
        approx = arccos_raw_batch(raws).astype(np.int64)
        exact = np.arccos(raws * LSB15)
        bound = np.abs(approx * LSB14 - exact).max()
        rng = np.random.default_rng(3)
        i = rng.integers(0, len(raws) - 1, 200_000)
        j = rng.integers(0, len(raws) - 1, 200_000)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        separated = exact[lo] - exact[hi] > 2 * bound  # arccos decreases in x
        assert (approx[lo][separated] > approx[hi][separated]).all()

    def test_composition_matches_op_chain(self):
        for raw in (0, 1, 137, 16384, 30000, 32768):
            chained = polar_raw_batch(
                raw, sqrt_raw_batch(one_minus_sq_raw_batch(raw)))
            assert [cordic_arccos(FxSample(raw, UQ1_15)).raw] == \
                chained.tolist()


class TestDeterminismAndBatch:
    def test_identical_runs(self):
        raws = np.arange(0, 2 ** 15 + 1, 11, dtype=np.int64)
        a = arccos_raw_batch(raws)
        b = arccos_raw_batch(raws)
        assert np.array_equal(a, b)

    def test_scalar_equals_batch(self):
        rng = np.random.default_rng(17)
        raws = rng.integers(0, 2 ** 15 + 1, 300)
        batch = arccos_raw_batch(raws.astype(np.int64))
        for raw, expect in zip(raws, batch):
            assert cordic_arccos(FxSample(int(raw), UQ1_15)).raw == int(expect)

    def test_lookup_table_equals_batch(self):
        table = arccos_table()
        raws = np.arange(0, 2 ** 16, 97, dtype=np.int64)
        assert np.array_equal(table[raws], arccos_raw_batch(raws).astype(np.uint16))

    def test_inputs_above_one_are_angle_zero(self):
        # the ROM and _kernel_table() hold raws up to 0x8000 only
        raws = np.arange((1 << 15) + 1, 1 << 16, dtype=np.int64)
        assert not arccos_raw_batch(raws).any()

    def test_table_build_memory_is_bounded(self):
        """The kernels' table is built a slice of inputs at a time: it peaks
        well below the 4.7 MB of running the kernels on all 32769 inputs at
        once."""
        tracemalloc.start()
        try:
            cordic._kernel_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_table_never_increases(self):
        # the pipeline ranks by the dot on this fact (pipeline docstring)
        steps = np.diff(arccos_table().astype(np.int64))
        assert len(steps) == UQ1_15.max_raw and (steps <= 0).all()

    def test_angle_sample_accessors(self):
        out = cordic_arccos(fx15(0.25))
        assert isinstance(out, AngleSample)
        assert out.radians == out.raw * LSB14


class TestBitIdentity:
    """Pins the kernels' bits against digests recorded from the mpmath-derived
    implementation, and the integer constants against mpmath itself.  The
    table-vs-batch and scalar-vs-batch tests above run one kernel on both
    sides, so they alone would pass on a wrong rewrite."""

    def test_table_digest(self):
        digest = hashlib.sha256(arccos_table().tobytes()).hexdigest()
        assert digest == (
            "724abe3e3f6cd285e91e7b02d3e1178e16a51738afecc0e51c3776d7e79006bd")

    def test_table_equals_kernels(self):
        # The ROM's table against the kernels, on every one of the 65536 raws.
        table = arccos_table()
        assert table.dtype == np.uint16 and not table.flags.writeable
        assert np.array_equal(table, cordic._kernel_table())

    def test_sqrt_digest(self):
        out = sqrt_raw_batch(np.arange(UQ1_15.max_raw // 2 + 2, dtype=np.int64))
        assert len(out) == 2 ** 15 + 1  # every UQ1.15 raw in [0, 1]
        digest = hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()
        assert digest == (
            "57d9f84ad98d9713e376893b7351ac5f3a612924935ddc53805ebc044a9975fd")

    def test_sqrt_constants_match_mpmath(self):
        from mpmath import mp
        for k in range(1, 65):
            schedule, inv_gain, quarter = cordic._sqrt_constants(k)
            assert len(schedule) == k
            with mp.workdps(60):
                gain = mp.mpf(1)
                for i in schedule:
                    gain *= mp.sqrt(1 - mp.mpf(2) ** (-2 * i))
                assert inv_gain == int(mp.nint(2 ** 30 / gain)), k
                assert quarter == int(mp.nint(2 ** 24 / (4 * gain))), k

    def test_atan_table_matches_mpmath(self):
        from mpmath import mp
        with mp.workdps(60):
            want = tuple(int(mp.nint(mp.atan(mp.mpf(2) ** -i) * 2 ** 26))
                         for i in range(CordicConfig.polar_rotations))
        assert cordic._ATAN_TABLE == want


_ROM_TOOL = Path(__file__).resolve().parents[1] / "tools" / "arccos_rom.py"


@pytest.fixture
def rom_tool():
    spec = importlib.util.spec_from_file_location("arccos_rom", _ROM_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRom:
    """The ROM file that :func:`arccos_table` reads, and the tool that
    writes it from the kernels."""

    def test_committed_rom_matches_kernels(self, rom_tool, capsys):
        assert rom_tool.main(["--check"]) == 0, (
            "the ROM differs from the kernels: rerun "
            "python tools/arccos_rom.py")
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("size", [2 ** 16, 2 ** 16 + 1, 2 ** 16 + 3,
                                      2 ** 16 + 4])
    def test_rom_of_wrong_length_is_refused(self, tmp_path, monkeypatch,
                                            size):
        rom = tmp_path / "arccos_rom.z"
        rom.write_bytes(zlib.compress(bytes(size)))
        monkeypatch.setattr(cordic, "_ROM", str(rom))
        with pytest.raises(ValueError, match=(
                f"arccos_rom.z: {size} bytes, expected 65538 "
                r"\(the angles of raws 0..32768\); rewrite it with "
                r"python tools/arccos_rom.py")):
            arccos_table.__wrapped__()

    def test_tool_writes_what_the_table_reads(self, rom_tool, tmp_path,
                                              monkeypatch, capsys):
        rom = tmp_path / "arccos_rom.z"
        rom.write_bytes(zlib.compress(bytes(2 * (2 ** 15 + 1))))
        monkeypatch.setattr(rom_tool, "ROM", rom)
        assert rom_tool.main(["--check"]) == 1
        assert capsys.readouterr().err == (
            f"{rom} differs from the CORDIC kernels; rewrite it with "
            "python tools/arccos_rom.py\n")
        assert rom_tool.main([]) == 0
        assert rom_tool.main(["--check"]) == 0
        monkeypatch.setattr(cordic, "_ROM", str(rom))
        assert np.array_equal(arccos_table.__wrapped__(), arccos_table())
