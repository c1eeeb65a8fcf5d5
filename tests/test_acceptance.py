"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from siftmatch.cordic import AngleSample, arccos_raw_batch
from siftmatch.descriptors import DescriptorSet, generate_synthetic
from siftmatch.fixedpoint import UQ1_15, UQ2_14, FxSample
from siftmatch.pipeline import (
    MinPairEntry,
    PipelineConfig,
    attainable_throughput,
    match_check,
    min_find,
    predict_cycles,
    run_pipeline,
)
from siftmatch.reference import match_all

LSB14 = UQ2_14.lsb
LSB15 = UQ1_15.lsb
GB = 1e9

TARGET_MS = {579: 6.08, 638: 6.75, 882: 9.11, 1021: 10.46}


@pytest.fixture(scope="module")
def experiment_scale_sets():
    queries, db, _ = generate_synthetic(1021, seed=1021, match_fraction=0.3,
                                        noise_sigma=0.02)
    return queries, db


@pytest.fixture(scope="module")
def arccos_error_bound():
    raws = np.arange((1 << 15) + 1, dtype=np.int64)
    err = np.abs(arccos_raw_batch(raws) * LSB14 - np.arccos(raws * LSB15))
    return float(err.max())


def _slice(s: DescriptorSet, count: int) -> DescriptorSet:
    return DescriptorSet(s.image_id, s.floats[:count], s.raws[:count],
                         s.xy[:count])


def test_criterion_1_timing_reproduction(experiment_scale_sets):
    """Elapsed time at 100 MHz within +-1.5% of the modeled hardware's
    measured timings."""
    queries, db = experiment_scale_sets
    cfg = PipelineConfig()
    lines = []
    for m, target in TARGET_MS.items():
        predicted = predict_cycles(m, len(db), cfg)
        report = run_pipeline(_slice(queries, m), db, cfg)
        assert report.total_cycles == predicted
        ms = report.elapsed_seconds_at_clock * 1e3
        rel = abs(ms - target) / target
        assert rel <= 0.015, f"m={m}: {ms:.4f} ms vs {target} ms"
        lines.append(f"m={m}:{ms:.3f}ms({rel * 100:.2f}%)")
    print(f"PASS criterion 1 (timing reproduction): {' '.join(lines)}")


def test_criterion_2_roofline_points():
    """12.5 M op/s at 3.2 GB/s and the 100 M op/s cap at >= 25.6 GB/s, exactly."""
    cfg = PipelineConfig()
    assert attainable_throughput(3.2 * GB, cfg).attainable_ops_per_s == 12.5e6
    for bw in (25.6 * GB, 51.2 * GB):
        point = attainable_throughput(bw, cfg)
        assert point.attainable_ops_per_s == 100e6
        assert point.bound == "compute"
    # Integral-cycle dispatch gives 25 M op/s at 6.4 GB/s (the once-quoted
    # 24 M op/s does not follow from the same rule; see README).
    assert attainable_throughput(6.4 * GB, cfg).attainable_ops_per_s == 25e6
    print("PASS criterion 2 (roofline points): 12.5/25/100 M op/s "
          "at 3.2/6.4/>=25.6 GB/s")


def test_criterion_3_fixed_vs_float_agreement(arccos_error_bound):
    """Pipeline (exact 0.6 rule) and reference verdicts agree on >= 98% of
    queries over 10 seeded runs; every disagreement sits within the combined
    quantization bound of the ratio."""
    threshold = 0.6
    cfg = PipelineConfig(threshold_mode="exact_0_6")
    total = 0
    agreeing = 0
    worst_margin = 0.0
    disagreements = 0
    for seed in range(10):
        queries, db, _ = generate_synthetic(500, seed=seed, match_fraction=0.5,
                                            noise_sigma=0.02)
        ref = match_all(queries, db, threshold)
        pipe = run_pipeline(queries, db, cfg).matches
        total += len(ref)
        agreeing += int((ref.matched == pipe.matched).sum())
        for k in np.flatnonzero(ref.matched != pipe.matched).tolist():
            disagreements += 1
            # Combined quantization bound: element quantization moves a dot
            # product by at most (sum(a) + sum(b) + 1) * 2^-16 + 128 * 2^-32,
            # an angle by that over sin(theta), plus the measured arccos
            # kernel error.
            sum_a = float(queries.floats[k].sum())
            delta_dot = (sum_a + math.sqrt(128)) * 2.0 ** -16 \
                + 2.0 ** -16 + 128 * 2.0 ** -32
            theta_m = float(ref.min_angle[k])
            theta_s = float(ref.second_min_angle[k])
            eps_m = delta_dot / max(math.sin(theta_m), 1e-9) + arccos_error_bound
            eps_s = delta_dot / max(math.sin(theta_s), 1e-9) + arccos_error_bound
            ratio = theta_m / theta_s
            bound = (eps_m + ratio * eps_s) / max(theta_s - eps_s, 1e-9)
            margin = abs(ratio - threshold)
            worst_margin = max(worst_margin, margin)
            assert margin <= bound, (
                f"seed {seed} query {k}: margin {margin:.2e} "
                f"outside combined bound {bound:.2e}")
    fraction = agreeing / total
    assert fraction >= 0.98, f"agreement {fraction:.4f} below 0.98"
    print(f"PASS criterion 3 (fixed-vs-float agreement): "
          f"{fraction:.4%} over {total} queries, "
          f"{disagreements} disagreements (worst margin {worst_margin:.2e})")


def test_criterion_4_streaming_min_oracle():
    """10,000 random angle streams: min_find equals sorted-first-two exactly."""
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        n = int(rng.integers(2, 201))
        values = rng.integers(0, 0xFFFF, n)
        entry = MinPairEntry.sentinel()
        for idx, raw in enumerate(values):
            entry = min_find(AngleSample(FxSample(int(raw), UQ2_14)), idx, entry)
        first, second = np.sort(values)[:2]
        assert entry.min.raw == int(first)
        assert entry.second_min.raw == int(second)
        assert entry.min_index == int(np.argmin(values))
    print("PASS criterion 4 (streaming-min oracle): 10000 streams, "
          "lengths 2-200")


def test_criterion_5_cordic_accuracy(arccos_error_bound):
    """Exhaustive arccos sweep within 8 LSB of UQ2.14 outside x < 2^-8;
    ordering preserved for pairs separated by > 2x the measured bound."""
    raws = np.arange((1 << 15) + 1, dtype=np.int64)
    x = raws * LSB15
    approx = arccos_raw_batch(raws).astype(np.int64)
    exact = np.arccos(x)
    err = np.abs(approx * LSB14 - exact)
    outside = x >= 2.0 ** -8
    assert err[outside].max() <= 8 * LSB14

    bound = arccos_error_bound
    rng = np.random.default_rng(5)
    i = rng.integers(0, raws.shape[0], 300_000)
    j = rng.integers(0, raws.shape[0], 300_000)
    lo, hi = np.minimum(i, j), np.maximum(i, j)  # x[lo] <= x[hi]
    separated = exact[lo] - exact[hi] > 2 * bound
    assert (approx[lo][separated] > approx[hi][separated]).all()
    print(f"PASS criterion 5 (cordic accuracy): max error "
          f"{err.max() / LSB14:.2f} LSB overall, "
          f"{err[outside].max() / LSB14:.2f} LSB outside x < 2^-8; "
          f"ordering held on {int(separated.sum())} separated pairs")


def test_criterion_6_cycle_model_identity():
    """predict_cycles equals run_pipeline.total_cycles over the size sweep."""
    sizes = [1, 2, 3, 4, 5, 32, 33, 34, 100]
    queries, db, _ = generate_synthetic(100, seed=6, match_fraction=0.0,
                                        noise_sigma=0.0)
    cfg = PipelineConfig()
    checked = 0
    for m in sizes:
        for n in sizes:
            report = run_pipeline(_slice(queries, m), _slice(db, n), cfg)
            assert report.total_cycles == predict_cycles(m, n, cfg), (m, n)
            checked += 1
    print(f"PASS criterion 6 (cycle-model identity): {checked} (m, n) pairs")


def test_criterion_7_threshold_trick_bound():
    """Exact-0.6 and shifted-add verdicts differ only for ratios in
    [0.59375, 0.6)."""
    rng = np.random.default_rng(7)
    a = rng.integers(0, 0xFFFF, 200_000)
    b = rng.integers(0, 0xFFFF, 200_000)
    m = np.minimum(a, b)
    s = np.maximum(a, b)
    exact = m * LSB14 < 0.6 * (s * LSB14)
    binary = (m << 5) < (s << 1) + s + (s << 4)
    differ = exact != binary
    ratios = m[differ] / s[differ]
    assert (ratios >= 0.59375).all() and (ratios < 0.6).all()

    # and the scalar op agrees with the vectorized fuzz on a subsample
    for k in range(0, 200_000, 4001):
        entry = MinPairEntry(min=AngleSample(FxSample(int(m[k]), UQ2_14)),
                             second_min=AngleSample(FxSample(int(s[k]), UQ2_14)),
                             init_flag=False)
        assert match_check(entry, "exact_0_6") == bool(exact[k])
        assert match_check(entry, "binary_10011") == bool(binary[k])
    print(f"PASS criterion 7 (threshold-trick bound): "
          f"{int(differ.sum())} of 200000 fuzzed entries diverge, all in "
          f"[0.59375, 0.6)")


def test_criterion_8_self_matching(experiment_scale_sets):
    """Reference engine on query set == database set finds itself for every
    descriptor."""
    _, db = experiment_scale_sets
    results = match_all(db, db, 0.6)
    assert results.best.tolist() == list(range(len(db)))
    # self-dot may fall a few ulps under 1.0, so the angle is ~0, not exactly 0
    assert (results.min_angle <= 1e-6).all()
    print(f"PASS criterion 8 (self-matching): argmin identity on "
          f"{len(results)} descriptors")
