import dataclasses
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siftmatch import pipeline, reference, search
from siftmatch.cordic import AngleSample, cordic_arccos
from siftmatch.descriptors import (
    DESCRIPTOR_LEN,
    DescriptorSet,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from siftmatch.fixedpoint import UQ1_15, UQ2_14, FxSample
from siftmatch.pipeline import (
    FETCH_CYCLES,
    THRESHOLD_MODES,
    MinPairEntry,
    PipelineConfig,
    dot_product_core,
    dot_raw_matrix,
    match_check,
    min_find,
    predict_cycles,
    run_pipeline,
)
from siftmatch.reference import match_all
from siftmatch.rowtext import report_csv_chunks

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
        assert pipeline.DRAIN_CYCLES == 10 + 52 + 1 + 3

    def test_defaults_follow_fetch_time(self):
        assert FETCH_CYCLES == 33 == PipelineConfig().block_size

    @pytest.mark.parametrize("block", [1, 7, 33, 40])
    def test_fill_is_block_times_fetch(self, block):
        cfg = PipelineConfig(block_size=block)
        busy = cfg.blocks(50) * 9 * block
        assert cfg.blocks(50) == math.ceil(50 / block)
        assert predict_cycles(50, 9, cfg) == \
            block * FETCH_CYCLES + busy + pipeline.DRAIN_CYCLES

    @pytest.mark.parametrize("kwargs", [
        {"block_size": 0},
        {"clock_hz": 0.0},
        {"threshold_mode": "always"},
        {"clock_hz": math.nan},
        {"clock_hz": math.inf},
        {"block_size": -1},
        {"clock_hz": -1.0},
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
        report = run_pipeline(subset(q, 3), subset(db, 3), cfg)
        assert report.elapsed_seconds_at_clock == report.total_cycles / 50e6


def verdicts(matches):
    """Per query: (matched, best index, min raw, second-min raw)."""
    return list(zip(matches.matched.tolist(), matches.best.tolist(),
                    matches.min_raw.tolist(), matches.second_min_raw.tolist()))


def sequential_verdicts(queries, db, cfg):
    """Scalar oracle: the pipeline ops composed with no timing machinery."""
    out = []
    for qi in range(len(queries)):
        entry = MinPairEntry.sentinel()
        for di in range(len(db)):
            dp = dot_product_core(queries[qi], db[di])
            a = cordic_arccos(dp)
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
        assert verdicts(report.matches) == expected

    def test_single_pair_always_matches_via_sentinel_second(self, pool):
        q, db = pool
        report = run_pipeline(subset(q, 1), subset(db, 1), PipelineConfig())
        m = report.matches
        assert m.second_min_raw.tolist() == [0xFFFF]
        assert m.matched[0]  # any angle <= pi/2 beats 0.6 * sentinel

    def test_block_results_independent_of_earlier_blocks(self, pool):
        q, db = pool
        cfg = PipelineConfig(block_size=7)
        database = subset(db, 20)
        full = run_pipeline(subset(q, 21), database, cfg)
        # block 2 alone (queries 14..20) must reproduce rows 14..20
        tail = DescriptorSet("tail", q.floats[14:21], q.raws[14:21], q.xy[14:21])
        alone = run_pipeline(tail, database, cfg)
        assert verdicts(alone.matches) == verdicts(full.matches)[14:]

    def test_verdict_order_is_query_order(self, pool):
        q, db = pool
        queries, cfg = subset(q, 40), PipelineConfig(block_size=6)
        report = run_pipeline(queries, subset(db, 10), cfg)
        reversed_ = DescriptorSet("r", queries.floats[::-1],
                                  queries.raws[::-1], queries.xy[::-1])
        backwards = run_pipeline(reversed_, subset(db, 10), cfg)
        assert len(report.matches) == 40
        assert verdicts(backwards.matches) == verdicts(report.matches)[::-1]

    def test_coordinates_travel_with_verdicts(self):
        rng = np.random.default_rng(77)
        rows = np.abs(rng.standard_normal((4, DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        xy_q = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=np.uint16)
        xy_d = np.array([[9, 10], [11, 12], [13, 14], [15, 16]], dtype=np.uint16)
        queries = DescriptorSet.from_floats("q", rows, xy_q)
        db = DescriptorSet.from_floats("d", rows, xy_d)
        m = run_pipeline(queries, db, PipelineConfig()).matches
        assert m.query_xy.tolist() == xy_q.tolist()
        assert m.best.tolist() == [0, 1, 2, 3]  # self argmin on distinct rows
        assert m.best_xy.tolist() == xy_d.tolist()

    def test_empty_sets_rejected(self, pool):
        q, db = pool
        empty = DescriptorSet("e", np.empty((0, DESCRIPTOR_LEN)),
                              np.empty((0, DESCRIPTOR_LEN), dtype=np.uint16),
                              np.empty((0, 2), dtype=np.uint16))
        with pytest.raises(ValueError):
            run_pipeline(empty, subset(db, 2), PipelineConfig())
        with pytest.raises(ValueError):
            run_pipeline(subset(q, 2), empty, PipelineConfig())

    def test_argmin_agrees_with_float_oracle_outside_ambiguity(self, pool):
        # whenever the float top-two angles are separated by more than the
        # combined quantization error, both engines must pick the same row
        from siftmatch.cordic import arccos_raw_batch

        q, db = pool
        kernel_bound = float(np.abs(
            arccos_raw_batch(np.arange(2 ** 15 + 1, dtype=np.int64)) * LSB14
            - np.arccos(np.arange(2 ** 15 + 1) * UQ1_15.lsb)).max())
        ref = match_all(q, db, 0.6)
        pipe = run_pipeline(q, db, PipelineConfig()).matches
        checked = 0
        for low, high, best, pipe_best in zip(
                ref.min_angle.tolist(), ref.second_min_angle.tolist(),
                ref.best.tolist(), pipe.best.tolist()):
            delta_dot = 2 * math.sqrt(128) * 2.0 ** -16 + 2.0 ** -16
            eps = delta_dot / max(math.sin(low), 1e-9) + kernel_bound
            eps_s = delta_dot / max(math.sin(high), 1e-9) + kernel_bound
            if high - low > eps + eps_s:
                assert pipe_best == best
                checked += 1
        assert checked > 50  # the synthetic pool is mostly unambiguous

    def test_threshold_mode_divergence_is_banded(self, pool):
        q, db = pool
        exact = run_pipeline(q, db, PipelineConfig(threshold_mode="exact_0_6"))
        binary = run_pipeline(q, db, PipelineConfig(threshold_mode="binary_10011"))
        e = exact.matches
        differ = e.matched != binary.matches.matched
        ratio = e.min_raw[differ] / e.second_min_raw[differ]
        assert ((0.59375 <= ratio) & (ratio < 0.6)).all()


@st.composite
def adversarial_sets(draw):
    """Query and database sets built to stress the tiled search kernel, and
    how they are held: ``(queries, db, source)``.

    Database rows may repeat (exact angle ties), rows of 32768 raws saturate
    every dot product, a single database row leaves the 0xFFFF sentinel as
    second minimum, queries may copy database rows, and ``from_floats`` sets
    (source ``floats``) carry floats that are not ``raw * 2**-15``.  Source
    ``raws`` gives ``from_raws`` sets; source ``file`` gives them too, for
    the test to stream from ``.siftdb`` files, so all their rows are
    unit-norm: one-hot rows, one-hot rows with a small second raw (their
    dots pass 2**30 and clip), and rounded random unit rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    source = draw(st.sampled_from(["floats", "raws", "file"]))

    def row(kind):
        r = np.zeros(DESCRIPTOR_LEN, dtype=np.int64)
        if kind == "saturating":
            r[:] = 1 << 15
        elif kind == "one_hot":
            r[rng.integers(DESCRIPTOR_LEN)] = 1 << 15
        elif kind == "clipping":  # norm below 1 + 1e-3
            r[rng.choice(DESCRIPTOR_LEN, 2, replace=False)] = [
                1 << 15, rng.integers(0, 1400)]
        elif kind == "unit":
            v = np.abs(rng.standard_normal(DESCRIPTOR_LEN))
            r[:] = np.rint(v / np.linalg.norm(v) * (1 << 15))
        elif kind == "sparse":
            r[rng.choice(DESCRIPTOR_LEN, 3)] = rng.integers(0, (1 << 15) + 1, 3)
        else:
            r[:] = rng.integers(0, 5800, DESCRIPTOR_LEN)
        return r

    kinds = st.sampled_from(["one_hot", "clipping", "unit"] if source == "file"
                            else ["saturating", "one_hot", "sparse", "dense"])
    n = draw(st.integers(1, 5))
    db_rows = [row(draw(kinds)) for _ in range(n)]
    db_rows += [db_rows[i] for i in draw(st.lists(st.integers(0, n - 1),
                                                  max_size=3))]
    q_rows = [db_rows[draw(st.integers(0, len(db_rows) - 1))]
              if draw(st.booleans()) else row(draw(kinds))
              for _ in range(draw(st.integers(1, 6)))]
    exact = source != "floats"

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
    return queries, db, source


def tiles(rows, cols, dots=1):
    """Patch the search's tile sizes: up to ``cols`` database rows per tile
    and ``max(rows, dots // cols)`` query rows."""
    return mock.patch.multiple(search, TILE_ROWS=rows, TILE_COLS=cols,
                               TILE_DOTS=dots)


class TestSearchKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 9),
           st.integers(0, 4), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 12), st.booleans())
    def test_top_two_equals_sort(self, streamed, seed, m, n, top, rows, cols,
                                 dots, from_file):
        # integer keys from a small range: duplicates within and across tiles
        keys = np.random.default_rng(seed).integers(0, top + 1, (m, n))
        queries = np.arange(m, dtype=np.float64)[:, None]
        database = np.arange(n, dtype=np.float64)[:, None]
        if from_file:  # each row's index in raw 0 of a unit-norm row
            def rows_of(index):
                raws = np.zeros((len(index), DESCRIPTOR_LEN), dtype=np.uint16)
                raws[:, 0], raws[:, 1] = index[:, 0], 1 << 15
                return streamed(DescriptorSet.from_raws(
                    "i", raws, np.zeros((len(index), 2)))).raw_rows
            queries, database = rows_of(queries), rows_of(database)

        def dot(q, d, out):  # the keys of query rows q against database rows d
            out[...] = keys[np.ix_(q[:, 0].astype(int), d[:, 0].astype(int))]
            return out

        with tiles(rows, cols, dots):
            best, first, second = search.top_two(queries, database, dot)
        ordered = np.sort(keys, axis=1)
        assert best.tolist() == keys.argmax(axis=1).tolist()
        assert first.tolist() == ordered[:, -1].tolist()
        assert second.tolist() == (ordered[:, -2].tolist() if n > 1
                                   else [-np.inf] * m)

    def test_top_two_memory_is_one_tile(self):
        """The search allocates its tile buffers once: its peak is one keys
        tile, one database block, one query tile and the three per-row
        columns, not a fresh tile (or two) per tile."""
        m = n = 4000
        rng = np.random.default_rng(3)
        queries = rng.integers(0, 1 << 12, (m, DESCRIPTOR_LEN), dtype=np.uint16)
        database = rng.integers(0, 1 << 12, (n, DESCRIPTOR_LEN), dtype=np.uint16)
        cols = search.TILE_COLS
        rows = max(search.TILE_ROWS, search.TILE_DOTS // cols)
        tracemalloc.start()
        try:
            search.top_two(queries, database)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = 8 * (rows * cols + cols * DESCRIPTOR_LEN + rows * DESCRIPTOR_LEN)
        # best, first, second; per tile a few row-sized temporaries
        assert peak < tile + 3 * 8 * m + 32 * 8 * rows

    @settings(max_examples=40, deadline=None)
    @given(adversarial_sets(), st.sampled_from(THRESHOLD_MODES),
           st.integers(1, 12), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 5))
    def test_equals_scalar_composition(self, streamed, sets, mode, tile, rows,
                                       cols, block):
        queries, db, source = sets
        if source == "file":  # streamed; the oracle below reads them whole
            queries, db = streamed(queries), streamed(db)
        cfg = PipelineConfig(block_size=block, threshold_mode=mode)
        with tiles(rows, cols, tile):  # several tiles on both axes
            report = run_pipeline(queries, db, cfg)
            dots = dot_raw_matrix(queries, db)
        assert verdicts(report.matches) == sequential_verdicts(queries, db, cfg)
        assert report.total_cycles == predict_cycles(len(queries), len(db), cfg)
        for i, q in enumerate(queries):
            for j, d in enumerate(db):
                assert dots[i, j] == dot_product_core(q, d).raw

    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_equal_angles_go_to_earliest_index(self, streamed, rows, cols):
        # raws 10171 and 10172 both map to angle 20565: the later row has
        # the larger dot, yet the earlier one is the minimum's index
        raws = np.zeros((4, DESCRIPTOR_LEN), dtype=np.uint16)
        raws[:, 0] = [5, 10171, 10172, 9]
        # unit norm, so that the rows also stream from a file; the one-hot
        # queries see raw 0 only
        raws[:, 1] = np.rint(np.sqrt(2.0 ** 30 - raws[:, 0] ** 2.0))
        db = DescriptorSet.from_raws("d", raws, np.zeros((4, 2)))
        q_raws = np.zeros((2, DESCRIPTOR_LEN), dtype=np.uint16)
        q_raws[:, 0] = 1 << 15
        queries = DescriptorSet.from_raws("q", q_raws, np.zeros((2, 2)))
        for source in (lambda s: s, streamed):
            with tiles(rows, cols):
                report = run_pipeline(source(queries), source(db),
                                      PipelineConfig())
            got = [v[1:] for v in verdicts(report.matches)]
            assert got == [(1, 20565, 20565)] * 2
        assert [v[1:] for v in sequential_verdicts(
            queries, db, PipelineConfig())] == got

    def test_floor_is_the_smallest_key_with_the_angle(self):
        # Both raw angle maps, as the engines pass them to the search.  Keys
        # at, and one off, every narrowing boundary x * 2**15 +- 2**14, the
        # largest dot 2**37 (raws are at most 2**15), and for the reference
        # the two ends of its strictly decreasing grid and the clip to 0.
        table = pipeline.arccos_table()
        centers = np.arange(1 << 16, dtype=np.float64) * 2 ** 15
        edges = (centers[:, None] + np.array([-1, 0, 1])
                 + np.array([[-2 ** 14], [2 ** 14]])[:, None]).ravel()
        keys = np.append(edges[edges >= 0], 2.0 ** 37)
        maps = {
            "pipeline": (lambda w: table[pipeline._narrow(w.copy())], keys),
            "reference": (reference._raw_angle, np.concatenate([
                keys, np.arange(2.0 ** 20 + 1),
                np.arange(2.0 ** 30 - 2 ** 20, 2.0 ** 30 + 2 ** 20 + 1)])),
        }
        for name, (angle, every) in maps.items():
            for w in np.array_split(every, -(-len(every) // (1 << 18))):
                f = search._floor(angle, w)  # in parts: a few MiB each
                assert (angle(f) == angle(w)).all(), name
                assert ((f == 0) | (angle(f - 1) != angle(w))).all(), name
        # a key of at most 0 (a strict-order negated angle) is its own floor
        negated = -np.array([0.0, 1e-300, 0.5, math.pi / 2, math.pi])
        assert search._floor(np.negative, negated).tolist() == negated.tolist()

    @pytest.mark.parametrize("engine,repeated", [
        pytest.param(engine, repeated,
                     id=engine + "-repeated" * repeated)
        for engine in ("pipeline", "reference") for repeated in (False, True)])
    def test_memory_stays_below_a_float_copy_of_the_database(self, engine,
                                                              repeated):
        rng = np.random.default_rng(8)
        raws = rng.integers(0, 5800, (16384, DESCRIPTOR_LEN))
        # Most dots of these raws pass 2**30 and clip to angle 0, so every
        # row takes the search's follow-up; a repeated block does so through
        # duplicated best dots too.
        if repeated:
            raws[8192:] = raws[:8192]
        db = DescriptorSet.from_raws("d", raws, np.zeros((16384, 2)))
        queries = DescriptorSet.from_raws(
            "q", rng.integers(0, 5800, (64, DESCRIPTOR_LEN)), np.zeros((64, 2)))
        float_copy = db.raws.size * 8  # 16 MiB
        pipeline.arccos_table()  # cached before tracing
        tracemalloc.start()
        try:
            if engine == "pipeline":
                run_pipeline(queries, db, PipelineConfig())
            else:
                matches = match_all(queries, db)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float_copy // 4
        if engine == "reference":
            strict = match_all(
                DescriptorSet("q", queries.floats, queries.raws, queries.xy),
                DescriptorSet("d", db.floats, db.raws, db.xy))
            for f in dataclasses.fields(strict):
                assert np.array_equal(getattr(matches, f.name),
                                      getattr(strict, f.name)), f.name

    @pytest.mark.parametrize("engine", ["pipeline", "reference"])
    @pytest.mark.parametrize("m,n", [(40000, 64), (64, 40000)])
    def test_streamed_match_peaks_below_a_quarter_of_the_file(
            self, tmp_path, engine, m, n):
        """Loading a .siftdb pair and matching it streams both files: the
        peak stays below a quarter of the larger file, whichever it is."""
        rows = np.abs(np.random.default_rng(9).standard_normal(
            (64, DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        unit = DescriptorSet.from_floats("u", rows, np.zeros((64, 2))).raws
        paths = []
        for name, count in (("q", m), ("d", n)):
            paths.append(str(tmp_path / f"{name}.siftdb"))
            save_descriptor_set(DescriptorSet.from_raws(
                name, unit[np.arange(count) % 64], np.zeros((count, 2))),
                paths[-1])
        size = max(map(os.path.getsize, paths))
        pipeline.arccos_table()  # cached before tracing
        tracemalloc.start()
        try:
            queries, db = map(load_descriptor_set, paths)
            if engine == "pipeline":
                run_pipeline(queries, db, PipelineConfig())
            else:
                match_all(queries, db)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 4

    def test_ties_go_to_earliest_index(self):
        raws = np.zeros((3, DESCRIPTOR_LEN), dtype=np.uint16)
        raws[:, 0] = 1 << 15
        db = DescriptorSet.from_raws("d", raws, np.zeros((3, 2)))
        report = run_pipeline(subset(db, 1), db, PipelineConfig())
        assert verdicts(report.matches) == [(False, 0, 0, 0)]


class TestReporting:
    def test_csv_rows(self, pool):
        q, db = pool
        report = run_pipeline(subset(q, 3), subset(db, 4), PipelineConfig())
        lines = b"".join(report_csv_chunks(report.matches)).decode(
            "ascii").strip().splitlines()
        assert lines[0] == "k,matched,best_index,qx,qy,bx,by,min_raw,secmin_raw"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in ("0", "1")
