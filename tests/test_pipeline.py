import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siftmatch import search
from siftmatch.cordic import AngleSample, cordic_arccos
from siftmatch.descriptors import DESCRIPTOR_LEN, DescriptorSet, generate_synthetic
from siftmatch.fixedpoint import UQ1_15, UQ2_14, FxSample
from siftmatch.pipeline import (
    THRESHOLD_MODES,
    MinPairEntry,
    PipelineConfig,
    dot_product_core,
    dot_raw_matrix,
    match_check,
    min_find,
    predict_cycles,
    run_pipeline,
    write_matches_csv,
)

LSB14 = UQ2_14.lsb


def angle(raw: int) -> AngleSample:
    return AngleSample(FxSample(raw, UQ2_14))


def make_set(rows, xy=None):
    rows = np.asarray(rows, dtype=np.float64)
    if xy is None:
        xy = np.zeros((rows.shape[0], 2), dtype=np.uint16)
    return DescriptorSet.from_floats("test", rows, xy)


def one_hot(idx):
    e = np.zeros(DESCRIPTOR_LEN)
    e[idx] = 1.0
    return e


def subset(s: DescriptorSet, count: int) -> DescriptorSet:
    return DescriptorSet(s.image_id, s.floats[:count], s.raws[:count], s.xy[:count])


@pytest.fixture(scope="module")
def pool():
    q, db, _ = generate_synthetic(100, seed=31, match_fraction=0.4,
                                  noise_sigma=0.05)
    return q, db


class TestConfig:
    def test_drain(self):
        assert PipelineConfig().drain_cycles == 10 + 52 + 1 + 3

    @pytest.mark.parametrize("kwargs", [
        {"block_size": 0},
        {"fetch_cycles_per_descriptor": 0},
        {"cosine_stages": 0},
        {"clock_hz": 0.0},
        {"threshold_mode": "always"},
        {"clock_hz": math.nan},
        {"clock_hz": math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestDotProductCore:
    def test_identical_one_hot_is_exact_one(self):
        s = make_set([one_hot(9)])
        out = dot_product_core(s[0], s[0])
        assert out.raw == 0x8000 and out.to_real() == 1.0

    def test_disjoint_one_hots(self):
        s = make_set([one_hot(0), one_hot(1)])
        assert dot_product_core(s[0], s[1]).raw == 0

    def test_matches_float_oracle_within_narrowing_error(self):
        rng = np.random.default_rng(4)
        rows = np.abs(rng.standard_normal((20, DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        s = make_set(rows)
        for i in range(0, 20, 2):
            a, b = s[i], s[i + 1]
            fixed = dot_product_core(a, b).to_real()
            quantized_float = float(
                np.dot(a.raws.astype(np.float64), b.raws.astype(np.float64))
                * 2.0 ** -30)
            assert abs(fixed - quantized_float) <= 2.0 ** -16
            true_float = float(np.dot(a.elements, b.elements))
            assert abs(fixed - true_float) <= 128 * 2.0 ** -31 + 2.0 ** -15

    def test_tree_equals_integer_sum_oracle(self):
        rng = np.random.default_rng(9)
        raws = rng.integers(0, 2 ** 15 + 1, (2, DESCRIPTOR_LEN)).astype(np.uint16)
        s = DescriptorSet.from_raws("r", raws, np.zeros((2, 2), dtype=np.uint16))
        wide = sum(int(x) * int(y) for x, y in zip(raws[0], raws[1]))
        want = min((wide >> 15) + ((wide >> 14) & 1 if True else 0), 0xFFFF)
        # nearest-even oracle on the exact integer
        q, r = divmod(wide, 1 << 15)
        half = 1 << 14
        if r > half or (r == half and q % 2 == 1):
            q += 1
        assert dot_product_core(s[0], s[1]).raw == min(q, 0xFFFF)

    def test_matrix_matches_scalar(self, pool):
        q, db = pool
        qs, ds = subset(q, 6), subset(db, 7)
        mat = dot_raw_matrix(qs, ds)
        for i in range(6):
            for j in range(7):
                assert int(mat[i, j]) == dot_product_core(qs[i], ds[j]).raw


class TestMinFind:
    def test_new_minimum_shifts_old(self):
        prev = MinPairEntry(min=angle(100), second_min=angle(200),
                            min_index=4, init_flag=False)
        out = min_find(angle(50), 9, prev)
        assert (out.min.raw, out.second_min.raw, out.min_index) == (50, 100, 9)

    def test_middle_value_updates_second_only(self):
        prev = MinPairEntry(min=angle(100), second_min=angle(200),
                            min_index=4, init_flag=False)
        out = min_find(angle(150), 9, prev)
        assert (out.min.raw, out.second_min.raw, out.min_index) == (100, 150, 4)

    def test_larger_value_ignored(self):
        prev = MinPairEntry(min=angle(100), second_min=angle(200),
                            min_index=4, init_flag=False)
        out = min_find(angle(500), 9, prev)
        assert out is prev

    def test_equal_to_min_keeps_incumbent(self):
        prev = MinPairEntry(min=angle(100), second_min=angle(200),
                            min_index=4, init_flag=False)
        out = min_find(angle(100), 9, prev)
        assert (out.min.raw, out.second_min.raw, out.min_index) == (100, 100, 4)

    def test_sentinel_absorbs_first_value(self):
        out = min_find(angle(25000), 0, MinPairEntry.sentinel())
        assert (out.min.raw, out.second_min.raw) == (25000, 0xFFFF)
        assert out.min_index == 0 and not out.init_flag

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            MinPairEntry(min=angle(10), second_min=angle(5))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 0xFFFE), min_size=1, max_size=60))
    def test_stream_equals_sorted_first_two(self, values):
        entry = MinPairEntry.sentinel()
        for idx, raw in enumerate(values):
            entry = min_find(angle(raw), idx, entry)
        ordered = sorted(values)
        assert entry.min.raw == ordered[0]
        expected_second = ordered[1] if len(values) > 1 else 0xFFFF
        assert entry.second_min.raw == expected_second
        assert entry.min_index == values.index(ordered[0])


class TestMatchCheck:
    def test_sentinel_is_no_match(self):
        assert not match_check(MinPairEntry.sentinel(), "binary_10011")
        assert not match_check(MinPairEntry.sentinel(), "exact_0_6")

    def test_equal_raws_reject(self):
        e = MinPairEntry(min=angle(123), second_min=angle(123), init_flag=False)
        assert not match_check(e, "binary_10011")
        assert not match_check(e, "exact_0_6")

    def test_zero_min_accepts(self):
        e = MinPairEntry(min=angle(0), second_min=angle(7), init_flag=False)
        assert match_check(e, "binary_10011")
        assert match_check(e, "exact_0_6")

    def test_integer_oracle_case(self):
        # 0.2 and 0.5 rad as UQ2.14 raws: 32*min < 19*second
        m, s = round(0.2 / LSB14), round(0.5 / LSB14)
        e = MinPairEntry(min=angle(m), second_min=angle(s), init_flag=False)
        assert 32 * m < 19 * s
        assert match_check(e, "binary_10011")
        assert match_check(e, "exact_0_6")

    def test_binary_threshold_is_19_over_32(self):
        # ratio exactly 19/32: strict < rejects in binary mode, accepts in exact
        e = MinPairEntry(min=angle(19), second_min=angle(32), init_flag=False)
        assert not match_check(e, "binary_10011")
        assert match_check(e, "exact_0_6")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            match_check(MinPairEntry.sentinel(), "fuzzy")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 0xFFFE), st.integers(0, 0xFFFE))
    def test_modes_diverge_only_in_band(self, a, b):
        m, s = min(a, b), max(a, b)
        e = MinPairEntry(min=angle(m), second_min=angle(s), init_flag=False)
        exact = match_check(e, "exact_0_6")
        binary = match_check(e, "binary_10011")
        if exact != binary:
            ratio = m / s
            assert 0.59375 <= ratio < 0.6


class TestCycleModel:
    def test_hand_computed_small_cases(self):
        cfg = PipelineConfig()
        # fill 33*33 + one block of n*33 + drain 66
        assert predict_cycles(33, 1, cfg) == 1089 + 33 + 66
        assert predict_cycles(1, 1, cfg) == 1089 + 33 + 66
        assert predict_cycles(34, 2, cfg) == 1089 + 2 * 2 * 33 + 66

    def test_experiment_scale_counts(self):
        cfg = PipelineConfig()
        assert predict_cycles(579, 1021, cfg) == 1089 + 18 * 1021 * 33 + 66
        assert predict_cycles(1021, 1021, cfg) == 1089 + 31 * 1021 * 33 + 66

    def test_domain(self):
        with pytest.raises(ValueError):
            predict_cycles(0, 5)

    def test_identity_with_run_pipeline(self, pool):
        q, db = pool
        cfg = PipelineConfig()
        for m in (1, 2, 5, 32, 33, 34, 100):
            for n in (1, 3, 33, 100):
                report = run_pipeline(subset(q, m), subset(db, n), cfg)
                assert report.total_cycles == predict_cycles(m, n, cfg)
                assert report.blocks_processed == -(-m // cfg.block_size)
                assert report.dot_products_executed == m * n

    def test_elapsed_uses_clock(self, pool):
        q, db = pool
        cfg = PipelineConfig(clock_hz=50e6)
        report = run_pipeline(subset(q, 3), subset(db, 3), cfg,
                              collect_matches=False)
        assert report.elapsed_seconds_at_clock == report.total_cycles / 50e6


def sequential_verdicts(queries, db, cfg):
    """Scalar oracle: the pipeline ops composed with no timing machinery."""
    out = []
    for qi in range(len(queries)):
        entry = MinPairEntry.sentinel()
        for di in range(len(db)):
            dp = dot_product_core(queries[qi], db[di])
            a = cordic_arccos(dp, cfg.cordic)
            entry = min_find(a, di, entry)
        out.append((match_check(entry, cfg.threshold_mode), entry.min_index,
                    entry.min.raw, entry.second_min.raw))
    return out


class TestRunPipeline:
    @pytest.mark.parametrize("mode", ["exact_0_6", "binary_10011"])
    def test_functional_equivalence_with_sequential_loop(self, pool, mode):
        q, db = pool
        cfg = PipelineConfig(block_size=5, threshold_mode=mode)
        queries, database = subset(q, 12), subset(db, 9)
        report = run_pipeline(queries, database, cfg)
        expected = sequential_verdicts(queries, database, cfg)
        got = [(m.matched, m.best_index, m.min_raw, m.second_min_raw)
               for m in report.matches]
        assert got == expected

    def test_single_pair_always_matches_via_sentinel_second(self, pool):
        q, db = pool
        report = run_pipeline(subset(q, 1), subset(db, 1), PipelineConfig())
        m = report.matches[0]
        assert m.second_min_raw == 0xFFFF
        assert m.matched  # any angle <= pi/2 beats 0.6 * sentinel

    def test_block_results_independent_of_earlier_blocks(self, pool):
        q, db = pool
        cfg = PipelineConfig(block_size=7)
        database = subset(db, 20)
        full = run_pipeline(subset(q, 21), database, cfg)
        # block 2 alone (queries 14..20) must reproduce rows 14..20
        tail = DescriptorSet("tail", q.floats[14:21], q.raws[14:21], q.xy[14:21])
        alone = run_pipeline(tail, database, cfg)
        for offset, solo in enumerate(alone.matches):
            combined = full.matches[14 + offset]
            assert (solo.matched, solo.best_index, solo.min_raw,
                    solo.second_min_raw) == (combined.matched,
                                             combined.best_index,
                                             combined.min_raw,
                                             combined.second_min_raw)

    def test_verdict_order_is_query_order(self, pool):
        q, db = pool
        report = run_pipeline(subset(q, 40), subset(db, 10),
                              PipelineConfig(block_size=6))
        assert [m.query_index for m in report.matches] == list(range(40))

    def test_coordinates_travel_with_verdicts(self):
        rng = np.random.default_rng(77)
        rows = np.abs(rng.standard_normal((4, DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        xy_q = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=np.uint16)
        xy_d = np.array([[9, 10], [11, 12], [13, 14], [15, 16]], dtype=np.uint16)
        queries = DescriptorSet.from_floats("q", rows, xy_q)
        db = DescriptorSet.from_floats("d", rows, xy_d)
        report = run_pipeline(queries, db, PipelineConfig())
        for k, m in enumerate(report.matches):
            assert m.query_xy == tuple(xy_q[k])
            assert m.best_index == k  # self argmin on distinct rows
            assert m.best_xy == tuple(xy_d[k])

    def test_empty_sets_rejected(self, pool):
        q, db = pool
        empty = DescriptorSet("e", np.empty((0, DESCRIPTOR_LEN)),
                              np.empty((0, DESCRIPTOR_LEN), dtype=np.uint16),
                              np.empty((0, 2), dtype=np.uint16))
        with pytest.raises(ValueError):
            run_pipeline(empty, subset(db, 2), PipelineConfig())
        with pytest.raises(ValueError):
            run_pipeline(subset(q, 2), empty, PipelineConfig())

    def test_collect_matches_false_keeps_timing(self, pool):
        q, db = pool
        cfg = PipelineConfig()
        a = run_pipeline(subset(q, 40), subset(db, 40), cfg)
        b = run_pipeline(subset(q, 40), subset(db, 40), cfg,
                         collect_matches=False)
        assert a.total_cycles == b.total_cycles
        assert b.matches == []

    def test_argmin_agrees_with_float_oracle_outside_ambiguity(self, pool):
        # whenever the float top-two angles are separated by more than the
        # combined quantization error, both engines must pick the same row
        from siftmatch.cordic import arccos_raw_batch
        from siftmatch.reference import match_all

        q, db = pool
        kernel_bound = float(np.abs(
            arccos_raw_batch(np.arange(2 ** 15 + 1, dtype=np.int64)) * LSB14
            - np.arccos(np.arange(2 ** 15 + 1) * UQ1_15.lsb)).max())
        ref = match_all(q, db, 0.6)
        pipe = run_pipeline(q, db, PipelineConfig()).matches
        checked = 0
        for r, p in zip(ref, pipe):
            delta_dot = 2 * math.sqrt(128) * 2.0 ** -16 + 2.0 ** -16
            eps = delta_dot / max(math.sin(r.min_angle), 1e-9) + kernel_bound
            eps_s = delta_dot / max(math.sin(r.second_min_angle), 1e-9) \
                + kernel_bound
            if r.second_min_angle - r.min_angle > eps + eps_s:
                assert p.best_index == r.best_index
                checked += 1
        assert checked > 50  # the synthetic pool is mostly unambiguous

    def test_threshold_mode_divergence_is_banded(self, pool):
        q, db = pool
        exact = run_pipeline(q, db, PipelineConfig(threshold_mode="exact_0_6"))
        binary = run_pipeline(q, db, PipelineConfig(threshold_mode="binary_10011"))
        for e, b in zip(exact.matches, binary.matches):
            if e.matched != b.matched:
                ratio = e.min_raw / e.second_min_raw
                assert 0.59375 <= ratio < 0.6


@st.composite
def adversarial_sets(draw):
    """Query and database sets built to stress the tiled search kernel.

    Database rows may repeat (exact angle ties), rows of 32768 raws saturate
    every dot product, a single database row leaves the 0xFFFF sentinel as
    second minimum, queries may copy database rows, and ``from_floats`` sets
    carry floats that are not ``raw * 2**-15``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def row(kind):
        r = np.zeros(DESCRIPTOR_LEN, dtype=np.int64)
        if kind == "saturating":
            r[:] = 1 << 15
        elif kind == "one_hot":
            r[rng.integers(DESCRIPTOR_LEN)] = 1 << 15
        elif kind == "sparse":
            r[rng.choice(DESCRIPTOR_LEN, 3)] = rng.integers(0, (1 << 15) + 1, 3)
        else:
            r[:] = rng.integers(0, 5800, DESCRIPTOR_LEN)
        return r

    kinds = st.sampled_from(["saturating", "one_hot", "sparse", "dense"])
    n = draw(st.integers(1, 5))
    db_rows = [row(draw(kinds)) for _ in range(n)]
    db_rows += [db_rows[i] for i in draw(st.lists(st.integers(0, n - 1),
                                                  max_size=3))]
    q_rows = [db_rows[draw(st.integers(0, len(db_rows) - 1))]
              if draw(st.booleans()) else row(draw(kinds))
              for _ in range(draw(st.integers(1, 6)))]
    exact = draw(st.booleans())

    def build(rows):
        raws = np.array(rows, dtype=np.uint16)
        xy = rng.integers(0, 1024, (len(rows), 2))
        if exact:
            return DescriptorSet.from_raws("h", raws, xy)
        # an offset far below half an LSB: same raws, inexact floats
        floats = np.clip(raws * UQ1_15.lsb + 1e-7, 0.0, 1.0)
        return DescriptorSet.from_floats("h", floats, xy)

    queries, db = build(q_rows), build(db_rows)
    assert queries.raw_exact == db.raw_exact == exact
    assert np.array_equal(queries.raws, np.array(q_rows, dtype=np.uint16))
    return queries, db


class TestSearchKernel:
    @settings(max_examples=40, deadline=None)
    @given(adversarial_sets(), st.sampled_from(THRESHOLD_MODES),
           st.integers(1, 12), st.integers(1, 5))
    def test_equals_scalar_composition(self, sets, mode, tile, block):
        queries, db = sets
        cfg = PipelineConfig(block_size=block, threshold_mode=mode)
        with mock.patch.object(search, "TILE_DOTS", tile):  # several tiles
            report = run_pipeline(queries, db, cfg)
            dots = dot_raw_matrix(queries, db)
        got = [(m.matched, m.best_index, m.min_raw, m.second_min_raw)
               for m in report.matches]
        assert got == sequential_verdicts(queries, db, cfg)
        assert report.total_cycles == predict_cycles(len(queries), len(db), cfg)
        for i, q in enumerate(queries):
            for j, d in enumerate(db):
                assert dots[i, j] == dot_product_core(q, d).raw

    def test_ties_go_to_earliest_index(self):
        raws = np.zeros((3, DESCRIPTOR_LEN), dtype=np.uint16)
        raws[:, 0] = 1 << 15
        db = DescriptorSet.from_raws("d", raws, np.zeros((3, 2)))
        report = run_pipeline(subset(db, 1), db, PipelineConfig())
        m = report.matches[0]
        assert (m.best_index, m.min_raw, m.second_min_raw) == (0, 0, 0)
        assert not m.matched


class TestReporting:
    def test_json_payload(self, pool):
        q, db = pool
        report = run_pipeline(subset(q, 3), subset(db, 4), PipelineConfig())
        payload = report.to_json_dict()
        blob = json.loads(json.dumps(payload))
        assert blob["total_cycles"] == report.total_cycles
        assert len(blob["matches"]) == 3
        assert {"query_index", "matched", "best_index", "min_raw"} <= set(
            blob["matches"][0])

    def test_csv_rows(self, pool):
        q, db = pool
        report = run_pipeline(subset(q, 3), subset(db, 4), PipelineConfig())
        buf = io.StringIO()
        write_matches_csv(report.matches, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,matched,best_index,qx,qy,bx,by,min_raw,secmin_raw"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in ("0", "1")
