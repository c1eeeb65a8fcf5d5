import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siftmatch.descriptors import (
    DESCRIPTOR_LEN,
    DescriptorFormatError,
    load_descriptor_set,
)
from siftmatch.fixedpoint import (
    FxSample,
    QFormat,
    UQ1_15,
    UQ2_14,
    quantize_array,
    round_shift_even,
)


def q15(value) -> int:
    """The UQ1.15 raw of one real value."""
    return int(quantize_array([value], UQ1_15)[0])


class TestQFormat:
    def test_widths(self):
        assert UQ1_15.total_bits == 16
        assert UQ1_15.max_raw == 0xFFFF
        assert UQ1_15.max_raw * UQ1_15.lsb == 2.0 - 2.0 ** -15

    @pytest.mark.parametrize("i,f", [(0, 0), (65, 0), (0, 65), (33, 32), (-1, 3)])
    def test_invalid(self, i, f):
        with pytest.raises(ValueError):
            QFormat(i, f)

    def test_str(self):
        assert str(UQ2_14) == "UQ2.14"


class TestFxSample:
    @pytest.mark.parametrize("fmt,raw", [(UQ1_15, -1), (UQ1_15, 0x10000),
                                         (UQ2_14, 0x10000)])
    def test_raw_out_of_range(self, fmt, raw):
        with pytest.raises(ValueError, match="out of range"):
            FxSample(raw, fmt)

    @pytest.mark.parametrize("raw", [np.uint16(7), np.int64(7), 7.0])
    def test_raw_is_coerced_to_int(self, raw):
        sample = FxSample(raw, UQ1_15)
        assert type(sample.raw) is int and sample.raw == 7

    @pytest.mark.parametrize("raw", [7.5, -0.5])
    def test_non_integral_raw_is_rejected(self, raw):
        with pytest.raises(ValueError, match="not an integer"):
            FxSample(raw, UQ1_15)


class TestFromReal:
    """quantize_array: nearest-even quantization of reals, saturating high."""

    def test_zero(self):
        assert q15(0.0) == 0

    def test_one_is_exact(self):
        assert q15(1.0) == 0x8000

    def test_0p6(self):
        # round(0.6 * 2**15) = 19661; real value just above 0.6
        assert q15(0.6) == 19661
        assert abs(19661 * UQ1_15.lsb - 0.600006103515625) < 1e-15

    def test_saturates(self):
        assert q15(5.0) == 0xFFFF
        assert q15(UQ1_15.max_raw * UQ1_15.lsb) == 0xFFFF

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_rejects(self, bad, tmp_path):
        # quantize_array takes validated reals: the text loader, where reals
        # come in from outside, rejects these before they are quantized
        values = " ".join(map(repr, [bad] + [0.0] * (DESCRIPTOR_LEN - 1)))
        path = tmp_path / "bad.siftd"
        path.write_text(f"SIFTD v1 text m=1\n0 0 {values}\n")
        with pytest.raises(DescriptorFormatError, match="descriptor 0 "):
            load_descriptor_set(str(path))

    def test_ties_to_even(self):
        # 0.5 LSB above an even raw stays even; above an odd raw rounds up.
        assert q15(2.5 * UQ1_15.lsb) == 2
        assert q15(1.5 * UQ1_15.lsb) == 2

    @given(st.integers(0, 0xFFFF))
    def test_round_trip_exact_values(self, raw):
        assert q15(raw * UQ1_15.lsb) == raw

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_quantization_bound(self, v):
        assert abs(q15(v) * UQ1_15.lsb - v) <= 2.0 ** -16

    def test_array_matches_scalar(self):
        # Python's round() on the exactly scaled value is nearest-even too
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, 500)
        raws = quantize_array(values, UQ1_15)
        for v, r in zip(values, raws):
            assert round(float(v) * 2 ** 15) == int(r)

    def test_peak_memory_is_one_temporary_and_the_result(self):
        """The rounding and the clip run in place in one float64
        temporary: the peak is that and the int64 raws, where a rounded
        copy and a clipped copy made it three arrays of the input's size."""
        values = np.random.default_rng(6).uniform(0, 1, (4000, DESCRIPTOR_LEN))
        tracemalloc.start()
        try:
            quantize_array(values, UQ1_15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * values.nbytes


class TestResize:
    """quantize_array into other formats: rounding of the dropped bits and
    saturation at the target's range."""

    def test_exact_value_unchanged(self):
        assert q15(0.5) * UQ1_15.lsb == 0.5

    def test_rounds_to_nearest(self):
        assert q15(1.0 + 2.0 ** -30) == 0x8000

    def test_saturation_matches_clamp_oracle(self):
        value = 3.7
        expect = min(max(round(value * 2 ** 15), 0), 0xFFFF)
        assert q15(value) == expect == 0xFFFF

    def test_widening_is_exact(self):
        wide = quantize_array([19661 * UQ1_15.lsb], QFormat(2, 30))
        assert wide.tolist() == [19661 << 15]

    def test_ties_to_even_on_dropped_bits(self):
        # UQ2.0: 1.5 rounds to 2 (even), 0.5 rounds to 0 (even)
        assert quantize_array([1.5, 0.5], QFormat(2, 0)).tolist() == [2, 0]

    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert q15(lo) <= q15(hi)


class TestRoundShiftEven:
    @given(st.integers(-(1 << 50), 1 << 50), st.integers(1, 20))
    def test_matches_true_rounding(self, value, shift):
        from fractions import Fraction

        got = round_shift_even(value, shift)
        exact = Fraction(value, 1 << shift)
        floor = exact.__floor__()
        frac = exact - floor
        if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and floor % 2 != 0):
            expect = floor + 1
        else:
            expect = floor
        assert got == expect

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 40, 1000)
        arr = round_shift_even(values.astype(np.int64), 15)
        for v, g in zip(values, arr):
            assert round_shift_even(int(v), 15) == int(g)

    def test_array_shift_amounts(self):
        values = np.array([1 << 20, 1 << 20, 3 << 10], dtype=np.int64)
        shifts = np.array([10, 20, 2], dtype=np.int64)
        got = round_shift_even(values, shifts)
        assert got.tolist() == [1 << 10, 1, 3 << 8]
