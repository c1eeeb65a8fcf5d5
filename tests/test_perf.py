import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from siftmatch import pipeline
from siftmatch.descriptors import RECORD_BYTES, generate_synthetic
from siftmatch.pipeline import (
    DRAIN_CYCLES,
    FETCH_CYCLES,
    PORT_BYTES_PER_CYCLE,
    PipelineConfig,
    attainable_throughput,
    effective_throughput_with_blocking,
    predict_cycles,
    roofline_csv,
    roofline_sweep,
    run_pipeline,
)

GB = 1e9


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"clock_hz": 0}, {"descriptor_bytes": 0},
        {"clock_hz": math.nan}, {"clock_hz": math.inf},
        {"descriptor_bytes": -1}, {"descriptor_bytes": 10 ** 400},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


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

    def test_port_costs_payload_32_and_record_33_cycles(self):
        # The roofline moves the 256-byte element payload, the fetch the
        # 260-byte record (pipeline module docstring).
        cfg = PipelineConfig()
        assert (cfg.descriptor_bytes, RECORD_BYTES) == (256, 260)
        p = attainable_throughput(PORT_BYTES_PER_CYCLE * cfg.clock_hz, cfg)
        assert p.attainable_ops_per_s == cfg.clock_hz / 32
        assert FETCH_CYCLES == 33

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            attainable_throughput(0.0)

    @pytest.mark.parametrize("bw", [math.inf, math.nan, 1e-300, 5e-324])
    def test_rejects_non_finite_and_vanishing(self, bw):
        with pytest.raises(ValueError):
            attainable_throughput(bw)

    def test_largest_float_descriptor_is_moved(self):
        # The bound on descriptor_bytes is the float range, inclusive.
        cfg = PipelineConfig(descriptor_bytes=int(sys.float_info.max))
        p = attainable_throughput(0.8 * GB, cfg)
        assert p.bound == "memory" and p.attainable_ops_per_s > 0


class TestSweep:
    def test_canonical_grid(self):
        points = roofline_sweep(PipelineConfig(),
                                [3.2 * GB, 6.4 * GB, 12.8 * GB, 25.6 * GB,
                                 51.2 * GB])
        assert [p.attainable_ops_per_s for p in points] == [
            12.5e6, 25e6, 50e6, 100e6, 100e6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roofline_sweep(PipelineConfig(), [])

    def test_monotone_in_bandwidth(self):
        rng = np.random.default_rng(1)
        bws = np.sort(rng.uniform(0.05 * GB, 60 * GB, 200))
        points = roofline_sweep(PipelineConfig(), list(bws))
        rates = [p.attainable_ops_per_s for p in points]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_never_exceeds_peak(self):
        cfg = PipelineConfig()
        rng = np.random.default_rng(2)
        for bw in rng.uniform(0.01 * GB, 500 * GB, 100):
            assert attainable_throughput(float(bw), cfg).attainable_ops_per_s \
                <= cfg.clock_hz

    def test_csv_emission(self):
        lines = roofline_csv(roofline_sweep(PipelineConfig(), [3.2 * GB])
                             ).decode("ascii").strip().splitlines()
        assert lines[0] == "bandwidth_bytes_per_s,ops_per_s,bound"
        assert lines[1] == "3200000000.0,12500000.0,memory"


class TestBlocking:
    def test_full_block_hits_clock_rate(self):
        cfg = PipelineConfig(block_size=33)
        assert effective_throughput_with_blocking(cfg) == 100e6

    def test_block_of_fetch_cycles_is_peak(self):
        cfg = PipelineConfig(block_size=FETCH_CYCLES)
        assert effective_throughput_with_blocking(cfg) == cfg.clock_hz
        assert effective_throughput_with_blocking(
            PipelineConfig(block_size=FETCH_CYCLES - 1)) < cfg.clock_hz

    def test_full_block_is_the_clock_exactly(self):
        # At this clock clock * 33 / 33 rounds below the clock, so the cap
        # must be the integer comparison block_size >= FETCH_CYCLES.
        clock = 8554480697.002527
        assert clock * 33 / 33 < clock
        cfg = PipelineConfig(block_size=33, clock_hz=clock)
        assert effective_throughput_with_blocking(cfg) == clock

    def test_block_of_one_degenerates_to_unblocked(self):
        got = effective_throughput_with_blocking(PipelineConfig(block_size=1))
        assert got == 100e6 / 33

    def test_partial_block_ratio(self):
        got = effective_throughput_with_blocking(PipelineConfig(block_size=16))
        assert got == pytest.approx(100e6 * 16 / 33)
        assert got == pytest.approx(48.5e6, rel=2e-3)

    def test_consistent_with_pipeline_cycle_model(self):
        # ops/s * run time ~= executed dot products (within 1%) at a scale
        # where fill/drain and partial-block idle slots are noise
        q, db, _ = generate_synthetic(1021, seed=6, match_fraction=0.0,
                                      noise_sigma=0.0)
        cfg = PipelineConfig()
        report = run_pipeline(q, db, cfg)
        rate = effective_throughput_with_blocking(cfg)
        modeled = rate * report.elapsed_seconds_at_clock
        assert abs(modeled - report.dot_products_executed) \
            <= 0.01 * report.dot_products_executed


class TestOneRateRule:
    """Both throughput figures come from one rule, on the bytes each moves:
    the roofline the 256-byte payload, the fetch the 260-byte record."""

    def test_both_figures_come_from_the_rule(self, monkeypatch):
        calls = []

        def rule(*args):
            calls.append(args)
            return 1234.5

        monkeypatch.setattr(pipeline, "_rate", rule)
        cfg = PipelineConfig(block_size=7)
        assert attainable_throughput(3.2 * GB, cfg) == pipeline.RooflinePoint(
            3.2 * GB, 1234.5, "memory")
        assert effective_throughput_with_blocking(cfg) == 1234.5
        assert calls == [(100e6, 1, 256, 32.0),
                         (100e6, 7, RECORD_BYTES, PORT_BYTES_PER_CYCLE)]

    @given(clock=st.floats(1.0, 1e12))
    @example(clock=100e6)
    def test_one_port_two_byte_counts(self, clock):
        """On the 8-byte port, the roofline at the 260-byte record is the
        fetch of a block of one (the 256-byte payload takes 32 cycles:
        ``test_port_costs_payload_32_and_record_33_cycles``)."""
        cfg = PipelineConfig(clock_hz=clock)
        record = attainable_throughput(
            PORT_BYTES_PER_CYCLE * clock,
            replace(cfg, descriptor_bytes=RECORD_BYTES))
        fetch = effective_throughput_with_blocking(replace(cfg, block_size=1))
        assert record.attainable_ops_per_s == fetch == clock / 33


class TestRooflineClaim:
    """The paper's claim in integers: the modeled core runs at its blocked
    roof but for the fill, the drain and the idle slots of the last block."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 10 ** 6), n=st.integers(1, 10 ** 6),
           block_size=st.integers(1, 3 * FETCH_CYCLES),
           clock=st.floats(1e3, 1e12))
    @example(m=64, n=40000, block_size=FETCH_CYCLES, clock=100e6)
    @example(m=100, n=7, block_size=FETCH_CYCLES + 1, clock=8554480697.002527)
    @example(m=100, n=7, block_size=FETCH_CYCLES - 1, clock=100e6)
    def test_cycles_are_roof_plus_overheads(self, m, n, block_size, clock):
        cfg = PipelineConfig(block_size=block_size, clock_hz=clock)
        idle = (cfg.blocks(m) * block_size - m) * n
        assert predict_cycles(m, n, cfg) - m * n \
            == block_size * FETCH_CYCLES + DRAIN_CYCLES + idle
        rate = effective_throughput_with_blocking(cfg)
        if block_size >= FETCH_CYCLES:
            assert rate == clock
        else:
            assert rate == clock * block_size / FETCH_CYCLES

    @pytest.mark.parametrize("m, n, percent", [
        (64, 40000, 96.93), (4000, 4000, 99.35), (16000, 16000, 99.97)])
    def test_modeled_dot_rate(self, m, n, percent):
        """``m * n * clock / predict_cycles`` at the default block, as the
        README quotes it."""
        assert round(100 * m * n / predict_cycles(m, n), 2) == percent
