import io
import math

import numpy as np
import pytest

from siftmatch.descriptors import generate_synthetic
from siftmatch.perf import (
    RooflineConfig,
    attainable_throughput,
    effective_throughput_with_blocking,
    roofline_sweep,
    write_roofline_csv,
)
from siftmatch.pipeline import PipelineConfig, run_pipeline

GB = 1e9


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"clock_hz": 0}, {"descriptor_bytes": 0}, {"peak_ops_per_cycle": 0},
        {"clock_hz": math.nan}, {"clock_hz": math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RooflineConfig(**kwargs)


class TestAttainableThroughput:
    def test_32_bytes_per_cycle(self):
        p = attainable_throughput(3.2 * GB)
        assert p.attainable_ops_per_s == 12.5e6
        assert p.bound == "memory"

    def test_peak_at_256_bytes_per_cycle(self):
        for bw in (25.6 * GB, 51.2 * GB, 400 * GB):
            p = attainable_throughput(bw)
            assert p.attainable_ops_per_s == 100e6
            assert p.bound == "compute"

    def test_64_bytes_per_cycle_is_25M(self):
        # ceil(256/64) = 4 cycles -> 25 M op/s (integral-cycle dispatch)
        p = attainable_throughput(6.4 * GB)
        assert p.attainable_ops_per_s == 25e6
        assert p.bound == "memory"

    def test_8_bytes_per_cycle_ddr_case(self):
        p = attainable_throughput(0.8 * GB)
        assert p.attainable_ops_per_s == 100e6 / 32
        assert p.bound == "memory"

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            attainable_throughput(0.0)

    @pytest.mark.parametrize("bw", [math.inf, math.nan, 1e-300, 5e-324])
    def test_rejects_non_finite_and_vanishing(self, bw):
        with pytest.raises(ValueError):
            attainable_throughput(bw)


class TestSweep:
    def test_canonical_grid(self):
        points = roofline_sweep(RooflineConfig(),
                                [3.2 * GB, 6.4 * GB, 12.8 * GB, 25.6 * GB,
                                 51.2 * GB])
        assert [p.attainable_ops_per_s for p in points] == [
            12.5e6, 25e6, 50e6, 100e6, 100e6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roofline_sweep(RooflineConfig(), [])

    def test_monotone_in_bandwidth(self):
        rng = np.random.default_rng(1)
        bws = np.sort(rng.uniform(0.05 * GB, 60 * GB, 200))
        points = roofline_sweep(RooflineConfig(), list(bws))
        rates = [p.attainable_ops_per_s for p in points]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_never_exceeds_peak(self):
        cfg = RooflineConfig(peak_ops_per_cycle=2)
        rng = np.random.default_rng(2)
        for bw in rng.uniform(0.01 * GB, 500 * GB, 100):
            assert attainable_throughput(float(bw), cfg).attainable_ops_per_s \
                <= cfg.peak_ops_per_s

    def test_csv_emission(self):
        buf = io.StringIO()
        write_roofline_csv(roofline_sweep(RooflineConfig(), [3.2 * GB]), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bandwidth_bytes_per_s,ops_per_s,bound"
        assert lines[1] == "3200000000.0,12500000.0,memory"


class TestBlocking:
    def test_full_block_hits_clock_rate(self):
        assert effective_throughput_with_blocking(RooflineConfig(), 33) == 100e6

    def test_block_of_one_degenerates_to_unblocked(self):
        got = effective_throughput_with_blocking(RooflineConfig(), 1)
        assert got == 100e6 / 33

    def test_partial_block_ratio(self):
        got = effective_throughput_with_blocking(RooflineConfig(), 16)
        assert got == pytest.approx(100e6 * 16 / 33)
        assert got == pytest.approx(48.5e6, rel=2e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_throughput_with_blocking(RooflineConfig(), 0)
        with pytest.raises(ValueError):
            effective_throughput_with_blocking(RooflineConfig(), 5,
                                               fetch_cycles_per_descriptor=0)

    def test_consistent_with_pipeline_cycle_model(self):
        # ops/s * run time ~= executed dot products (within 1%) at a scale
        # where fill/drain and partial-block idle slots are noise
        q, db, _ = generate_synthetic(1021, seed=6, match_fraction=0.0,
                                      noise_sigma=0.0)
        report = run_pipeline(q, db, PipelineConfig(), collect_matches=False)
        rate = effective_throughput_with_blocking(RooflineConfig(), 33)
        modeled = rate * report.elapsed_seconds_at_clock
        assert abs(modeled - report.dot_products_executed) \
            <= 0.01 * report.dot_products_executed
