import builtins
import csv
import io
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from siftmatch import rowtext, search
from siftmatch.descriptors import (
    DESCRIPTOR_LEN,
    Descriptor,
    DescriptorSet,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from siftmatch.pipeline import (PipelineConfig, RunReport, modeled_run,
                                run_pipeline)
from siftmatch.reference import (
    SECOND_MIN_SURROGATE,
    dot_matrix,
    dot_product,
    match_all,
)
from siftmatch.rowtext import MatchReport, report_columns
from siftmatch.search import MatchColumns

# The keys of a report row, in the order json.dumps writes them.
REPORT_KEYS = ("query_index", "matched", "best_index", "min_angle",
               "second_min_angle", "query_xy", "best_xy", "min_raw",
               "second_min_raw")


def make_set(rows, xy=None):
    rows = np.asarray(rows, dtype=np.float64)
    if xy is None:
        xy = np.zeros((rows.shape[0], 2), dtype=np.uint16)
    return DescriptorSet.from_floats("test", rows, xy)


def row_set(s, k):
    """The one-row set of row ``k`` of ``s``, its float view kept."""
    return DescriptorSet(s.image_id, s.floats[k:k + 1], s.raws[k:k + 1],
                         s.xy[k:k + 1])


def report_rows(columns):
    """One dict of the report keys per query, built from the columns."""
    absent = [None] * len(columns)
    return [dict(zip(REPORT_KEYS, row)) for row in zip(
        range(len(columns)), columns.matched.tolist(), columns.best.tolist(),
        columns.min_angle.tolist(), columns.second_min_angle.tolist(),
        columns.query_xy.tolist(), columns.best_xy.tolist(),
        absent if columns.min_raw is None else columns.min_raw.tolist(),
        absent if columns.second_min_raw is None
        else columns.second_min_raw.tolist())]


def match_row(s, k, db, threshold=0.6):
    """The report row for row ``k`` of ``s`` matched on its own."""
    return report_rows(match_all(row_set(s, k), db, threshold))[0]


def one_hot(idx):
    e = np.zeros(DESCRIPTOR_LEN)
    e[idx] = 1.0
    return e


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_unit(rng, count=1):
    rows = np.abs(rng.standard_normal((count, DESCRIPTOR_LEN)))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestDotProduct:
    def test_self_dot_of_unit_vector(self, rng):
        d = make_set(random_unit(rng))[0]
        assert abs(dot_product(d, d) - 1.0) <= 1e-6

    def test_disjoint_one_hots(self):
        s = make_set([one_hot(0), one_hot(1)])
        assert dot_product(s[0], s[1]) == 0.0

    def test_against_exact_rational_oracle(self, rng):
        a = make_set(random_unit(rng))[0]
        b = make_set(random_unit(rng))[0]
        exact = sum(Fraction(x) * Fraction(y)
                    for x, y in zip(a.elements, b.elements))
        assert abs(dot_product(a, b) - float(exact)) <= 1e-9

    def test_symmetry_bitwise(self, rng):
        a = make_set(random_unit(rng))[0]
        b = make_set(random_unit(rng))[0]
        assert dot_product(a, b) == dot_product(b, a)

    @pytest.mark.parametrize("sizes", [(DESCRIPTOR_LEN, DESCRIPTOR_LEN - 1),
                                       (DESCRIPTOR_LEN + 1, DESCRIPTOR_LEN)])
    def test_element_count_is_checked(self, sizes):
        a, b = (Descriptor(np.full(k, 0.1), np.zeros(k, np.uint16), 0, 0)
                for k in sizes)
        with pytest.raises(ValueError, match="must have 128 elements"):
            dot_product(a, b)

    def test_matrix_matches_scalar_bitwise(self, rng):
        q = make_set(random_unit(rng, 4))
        d = make_set(random_unit(rng, 5))
        mat = dot_matrix(q.floats, d.floats)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == dot_product(q[i], d[j])


def angle(s, i, j):
    """The angle ``match_all`` gives between rows ``i`` and ``j`` of ``s``."""
    return match_row(s, i, row_set(s, j))["min_angle"]


class TestAngularDistance:
    def test_identical_is_zero(self):
        d = make_set([one_hot(3)])
        assert angle(d, 0, 0) == 0.0

    def test_orthogonal_is_half_pi(self):
        s = make_set([one_hot(0), one_hot(1)])
        assert abs(angle(s, 0, 1) - math.pi / 2) <= 1e-9

    def test_dot_half(self):
        # two unit vectors engineered to have dot product 0.5
        a = np.zeros(DESCRIPTOR_LEN)
        b = np.zeros(DESCRIPTOR_LEN)
        a[0] = 1.0
        b[0], b[1] = 0.5, math.sqrt(3) / 2
        s = make_set([a, b])
        assert abs(angle(s, 0, 1) - 1.047198) <= 1e-6
        assert abs(angle(s, 0, 1) - math.acos(0.5)) <= 1e-12

    def test_clamps_rounding_excursions(self, rng):
        d = make_set(random_unit(rng))
        assert angle(d, 0, 0) >= 0.0


class TestMatchOne:
    """One query matched on its own: ``match_all`` of a one-row set."""

    def test_planted_identity_match(self):
        db = make_set([one_hot(i) for i in range(5)])
        res = match_row(db, 2, db)
        assert res["matched"] and res["best_index"] == 2
        assert res["min_angle"] == 0.0
        assert abs(res["second_min_angle"] - math.pi / 2) < 1e-9

    def test_duplicate_best_is_rejected(self, rng):
        v = random_unit(rng)[0]
        db = make_set([v, v, one_hot(0)])
        res = match_row(db, 0, db)
        assert res["min_angle"] == res["second_min_angle"]
        assert not res["matched"]

    @pytest.mark.parametrize("raw_exact", [False, True])
    def test_duplicate_at_angle_zero_is_rejected(self, raw_exact):
        # min == second == 0: only the ratio test's strict "<" (0 < 0.6 * 0
        # is false) rejects the match, on either search path
        db = make_set([one_hot(0), one_hot(0), one_hot(1)])
        if raw_exact:
            db = DescriptorSet.from_raws("d", db.raws, db.xy)
        res = match_all(db, db)
        assert res.min_angle[0] == res.second_min_angle[0] == 0.0
        assert not res.matched[0]

    def test_single_entry_db_uses_pi_surrogate(self, rng):
        db = make_set(random_unit(rng))
        res = match_row(db, 0, db)
        assert res["second_min_angle"] == SECOND_MIN_SURROGATE
        assert res["matched"]  # min <= pi/2 < 0.6 * pi always

    def test_planted_noisy_match(self):
        q, db, truth = generate_synthetic(20, seed=8, match_fraction=1.0,
                                          noise_sigma=0.01)
        for i, j in truth[:5]:
            res = match_row(q, i, db)
            assert res["matched"] and res["best_index"] == j

    def test_tie_breaks_to_smallest_index(self, rng):
        v = random_unit(rng)[0]
        other = random_unit(rng)[0]
        db = make_set([other, v, v])
        res = match_row(make_set([v]), 0, db)
        assert res["best_index"] == 1

    def test_empty_db_rejected(self, rng):
        q = make_set(random_unit(rng))
        empty = DescriptorSet("e", np.empty((0, DESCRIPTOR_LEN)),
                              np.empty((0, DESCRIPTOR_LEN), dtype=np.uint16),
                              np.empty((0, 2), dtype=np.uint16))
        with pytest.raises(ValueError):
            match_row(q, 0, empty)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_domain(self, bad, rng):
        db = make_set(random_unit(rng, 3))
        with pytest.raises(ValueError):
            match_row(db, 0, db, bad)


class TestMatchAll:
    def test_self_match_argmin_identity(self):
        q, db, _ = generate_synthetic(40, seed=13, match_fraction=0.0,
                                      noise_sigma=0.0)
        results = match_all(db, db, 0.6)
        assert results.best.tolist() == list(range(len(db)))
        # self-dot can land a few ulps under 1.0; clamp keeps it at most 1.0
        assert (results.min_angle <= 1e-6).all()

    def test_empty_queries(self, rng):
        db = make_set(random_unit(rng, 3))
        empty = DescriptorSet("e", np.empty((0, DESCRIPTOR_LEN)),
                              np.empty((0, DESCRIPTOR_LEN), dtype=np.uint16),
                              np.empty((0, 2), dtype=np.uint16))
        with pytest.raises(ValueError):  # as run_pipeline rejects it
            match_all(empty, db, 0.6)

    def test_full_recall_on_exact_copies(self):
        q, db, truth = generate_synthetic(30, seed=21, match_fraction=1.0,
                                          noise_sigma=0.0)
        results = match_all(q, db, 0.6)
        assert all(results.matched[i] and results.best[i] == j
                   for i, j in truth)

    def test_order_preserved_and_consistent_with_match_one(self, rng):
        q = make_set(random_unit(rng, 6))
        db = make_set(random_unit(rng, 9))
        batch = report_rows(match_all(q, db, 0.6))
        for k, res in enumerate(batch):
            assert res["query_index"] == k
            assert {**match_row(q, k, db), "query_index": k} == res


class TestInvariants:
    def test_argmin_angle_equals_argmax_dot(self, rng):
        q = make_set(random_unit(rng, 8))
        db = make_set(random_unit(rng, 30))
        dots = dot_matrix(q.floats, db.floats)
        results = match_all(q, db, 0.6)
        assert results.best.tolist() == np.argmax(dots, axis=1).tolist()

    def test_two_minimum_scan_equals_sort(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            angles = rng.uniform(0, math.pi / 2, n)
            first, second = np.sort(angles)[:2]
            # single-pass scan
            lo = hi = math.inf
            for a in angles:
                if a < lo:
                    lo, hi = a, lo
                elif a < hi:
                    hi = a
            assert (lo, hi) == (first, second)

    def test_threshold_extremes(self, rng):
        q = make_set(random_unit(rng, 10))
        db = make_set(random_unit(rng, 10))
        near_one = match_all(q, db, 1.0 - 1e-12)
        assert near_one.matched[
            near_one.min_angle < near_one.second_min_angle].all()
        near_zero = match_all(q, db, 1e-12)
        assert not near_zero.matched[near_zero.min_angle > 0].any()


class TestBlasPath:
    """Raw-exact sets take one BLAS GEMM per tile; it must give the bits of
    the strict left-to-right :func:`dot_matrix`."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([1 << 15, 5800, 40]), st.integers(1, 20),
           st.integers(1, 5), st.booleans())
    def test_bit_equal_to_strict_order(self, seed, m, n, top, tile, cols,
                                       near_one_hot):
        rng = np.random.default_rng(seed)
        q_raws = rng.integers(0, top + 1, (m, DESCRIPTOR_LEN)).astype(np.uint16)
        d_raws = rng.integers(0, top + 1, (n, DESCRIPTOR_LEN)).astype(np.uint16)
        if near_one_hot:  # dots just below, at and above 2**30 (angle 0)
            for raws in (q_raws, d_raws):
                raws[:] = 0
                raws[:, 0] = rng.choice([0x7FFF, 0x8000], len(raws))
                raws[np.arange(len(raws)), rng.integers(1, 3, len(raws))] = \
                    rng.integers(0, 300, len(raws))
        d_raws[rng.integers(n)] = q_raws[0]  # an exact angle-0 pair
        q = DescriptorSet.from_raws("q", q_raws, np.zeros((m, 2)))
        d = DescriptorSet.from_raws("d", d_raws, np.zeros((n, 2)))
        assert np.array_equal(search.exact_dots(q.floats, d.floats),
                              dot_matrix(q.floats, d.floats))
        strict_q = DescriptorSet("q", q.floats, q.raws, q.xy)
        strict_d = DescriptorSet("d", d.floats, d.raws, d.xy)
        assert not strict_q.raw_exact and not strict_d.raw_exact
        with mock.patch.multiple(search, TILE_DOTS=tile, TILE_ROWS=1,
                                 TILE_COLS=cols):
            assert report_rows(match_all(q, d)) == report_rows(
                match_all(strict_q, strict_d))

    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    def test_clipped_dots_go_to_earliest_index(self, cols):
        # dots 2**30 - 2**27, 2**30, 2**30 + 5000 and 2**30 + 10000: the last
        # three clip to angle 0, and the first of them is the minimum's index
        q_raws = np.zeros((1, DESCRIPTOR_LEN), dtype=np.uint16)
        q_raws[0, :2] = [0x8000, 100]
        d_raws = np.zeros((4, DESCRIPTOR_LEN), dtype=np.uint16)
        d_raws[:, 0] = [0x7000, 0x8000, 0x8000, 0x8000]
        d_raws[:, 1] = [0, 0, 50, 100]
        q = DescriptorSet.from_raws("q", q_raws, np.zeros((1, 2)))
        d = DescriptorSet.from_raws("d", d_raws, np.zeros((4, 2)))
        with mock.patch.multiple(search, TILE_DOTS=1, TILE_ROWS=1,
                                 TILE_COLS=cols):
            res = report_rows(match_all(q, d))[0]
        assert (res["best_index"], res["min_angle"],
                res["second_min_angle"]) == (1, 0.0, 0.0)

    @pytest.mark.parametrize("low", [0, 2 ** 30 - 2 ** 22])
    def test_arccos_is_strictly_decreasing_on_the_dot_grid(self, low):
        # The two ends of the grid w * 2**-30, w <= 2**30, that the raw path
        # ranks by the dot; the reference module docstring bounds the middle.
        step = 1 << 18
        for start in range(low, low + (1 << 22), step):
            w = np.arange(start, start + step + 1, dtype=np.float64)
            assert (np.diff(np.arccos(w * 2.0 ** -30)) < 0).all()

    def test_inexact_sets_keep_strict_order(self, rng):
        q = make_set(random_unit(rng, 8))
        db = make_set(random_unit(rng, 40))
        angles = np.arccos(np.clip(dot_matrix(q.floats, db.floats), 0.0, 1.0))
        results = match_all(q, db, 0.6)
        assert results.min_angle.tolist() == angles.min(axis=1).tolist()

    @pytest.mark.parametrize("raw_side", ["queries", "database"])
    def test_mixed_sets_keep_strict_order(self, rng, raw_side):
        # a text set next to a .siftdb set: the text floats are used, not raws
        q = make_set(random_unit(rng, 8))
        db = make_set(random_unit(rng, 40))
        if raw_side == "queries":
            q = DescriptorSet.from_raws("q", q.raws, q.xy)
        else:
            db = DescriptorSet.from_raws("d", db.raws, db.xy)
        angles = np.arccos(np.clip(dot_matrix(q.floats, db.floats), 0.0, 1.0))
        results = match_all(q, db, 0.6)
        assert results.min_angle.tolist() == angles.min(axis=1).tolist()

    @pytest.mark.parametrize("binary_side", ["queries", "database"])
    def test_mixed_match_streams_its_siftdb_side(self, tmp_path, binary_side):
        """A .siftd set against a .siftdb set takes the strict path, which
        reads the .siftdb side tile by tile: the peak stays below a quarter
        of that file, and its set still streams after the match."""
        rng = np.random.default_rng(12)
        text, binary = str(tmp_path / "t.siftd"), str(tmp_path / "b.siftdb")
        save_descriptor_set(make_set(random_unit(rng, 64)), text)
        save_descriptor_set(make_set(random_unit(rng, 65536)), binary)
        text_set = load_descriptor_set(text)

        def match(binary_set):
            if binary_side == "queries":
                return match_all(binary_set, text_set)
            return match_all(text_set, binary_set)

        tracemalloc.start()
        try:
            binary_set = load_descriptor_set(binary)
            streamed = match(binary_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(binary) // 4
        assert not isinstance(binary_set.raw_rows, np.ndarray)
        in_memory = match(DescriptorSet.from_raws("b", binary_set.raws,
                                                  binary_set.xy))
        for f in fields(streamed):
            assert np.array_equal(getattr(streamed, f.name),
                                  getattr(in_memory, f.name)), f.name

def listed_csv(rows):
    """A per-row csv.writer loop over report rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "matched", "best_index", "qx", "qy", "bx", "by",
                     "min_raw", "secmin_raw"])
    for row in rows:
        writer.writerow([row["query_index"], int(row["matched"]),
                         row["best_index"], *row["query_xy"], *row["best_xy"],
                         row["min_raw"], row["second_min_raw"]])
    return buf.getvalue()


def report_case(seed, engine, mode, m, n, raw_exact, copies, stream=None):
    """Match m random queries (the first ``copies`` duplicating database
    rows, and the last database row a copy of the first, so that copies of
    it tie) against n rows with one engine; returns (header, columns).
    With ``stream`` the sets are raw-exact and are also matched as streamed
    from ``.siftdb`` files by ``stream``: those columns must equal the
    in-memory ones, and they are the ones returned."""
    header = {"engine": engine, "queries": "q", "database": "d",
              "num_queries": m, "num_database": n}
    rng = np.random.default_rng(seed)
    db_rows = random_unit(rng, n)
    db_rows[-1] = db_rows[0]
    q_rows = random_unit(rng, m)
    copies = min(copies, m)
    q_rows[:copies] = db_rows[rng.integers(0, n, copies)]

    def build(rows, name):
        xy = rng.integers(0, 1 << 16, (len(rows), 2))
        if raw_exact or stream:  # as loaded from .siftdb
            return DescriptorSet.from_raws(
                name, make_set(rows).raws, xy)
        return DescriptorSet.from_floats(name, rows, xy)  # as from .siftd

    def match(q, db):
        if engine == "reference":
            threshold = 0.6 if mode == "exact_0_6" else 0.4
            header["threshold"] = threshold
            return match_all(q, db, threshold)
        run = run_pipeline(q, db, PipelineConfig(threshold_mode=mode))
        header.update({"threshold_mode": mode, "clock_hz": run.clock_hz,
                       "elapsed_seconds_at_clock":
                       run.elapsed_seconds_at_clock})
        return run.matches

    q, db = build(q_rows, "q"), build(db_rows, "d")
    columns = match(q, db)
    if stream:
        in_memory, columns = columns, match(stream(q), stream(db))
        for field in fields(columns):
            assert np.array_equal(getattr(columns, field.name),
                                  getattr(in_memory, field.name)), field.name
    return header, columns


def rows_of(columns, rows):
    """The verdicts of queries ``rows`` (a slice) of ``columns``."""
    values = (getattr(columns, field.name) for field in fields(columns))
    return MatchColumns(*(None if value is None else value[rows]
                          for value in values))


def report_pieces(header, columns, band=None):
    """The pieces of the report of ``columns``, JSON with head ``header``
    or CSV for ``None``, written ``band`` queries at a time (all at once by
    default).  The first band is laid out at once, so a ``ValueError`` of
    the writer is raised here."""
    report = MatchReport(header)
    band = band or len(columns)
    first = report.band(0, rows_of(columns, slice(0, band)))

    def pieces():
        yield from first
        for start in range(band, len(columns), band):
            yield from report.band(start, rows_of(columns,
                                                  slice(start, start + band)))
        yield from report.end()

    return pieces()


def report_json_chunks(header, columns, band=None):
    return report_pieces(header, columns, band)


def report_csv_chunks(columns, band=None):
    return report_pieces(None, columns, band)


def check_report(header, columns, chunk, band=None):
    rows = report_rows(columns)
    assert len(columns) == len(rows)
    with mock.patch.object(rowtext, "CHUNK_ROWS", chunk):
        pieces = list(report_json_chunks(header, columns, band))
        csv_text = b"".join(report_csv_chunks(columns, band))
    # Line lists, so that a failure names the first wrong line quickly.
    assert b"".join(pieces).decode("ascii").splitlines(True) == json.dumps(
        {**header, "matches": rows}, indent=2).splitlines(True)
    # The head, the pieces of rows and the tail.
    if band is None:
        assert len(pieces) == -(-len(rows) // chunk) + 2
    assert csv_text.decode("ascii").splitlines(True) == \
        listed_csv(rows).splitlines(True)


class TestBands:
    """Given ``emit``, an engine hands on its verdicts band by band, in
    query order, once every argument is checked; the bands join to the
    verdicts of one band."""

    @pytest.mark.parametrize("engine", ["reference", "pipeline"])
    @pytest.mark.parametrize("source", ["floats", "raws", "file"])
    def test_bands_join_to_one_band(self, streamed, engine, source):
        # Database row 0 is row 1 less one raw, so a query equal to row 1
        # has its largest dot at row 1 and the same pipeline angle at row
        # 0, which the follow-up pass finds; there is one in every band.
        rng = np.random.default_rng(8)
        raws = [make_set(random_unit(rng, count)).raws.copy()
                for count in (23, 5)]
        q_raws, db_raws = raws
        db_raws[0] = db_raws[1]
        db_raws[0, np.argmin(db_raws[1])] -= 1
        tied = [2, 9, 16, 22]
        q_raws[tied] = db_raws[1]
        sets = [DescriptorSet.from_raws(name, values, rng.integers(
            0, 1 << 16, (len(values), 2)))
            for name, values in (("q", q_raws), ("d", db_raws))]
        if source == "floats":
            sets = [DescriptorSet.from_floats(s.image_id, s.floats, s.xy)
                    for s in sets]
        if source == "file":
            sets = list(map(streamed, sets))
        q, db = sets

        def run(emit=None, cfg=PipelineConfig()):
            if engine == "reference":
                return match_all(q, db, 0.6, emit)
            return run_pipeline(q, db, cfg, emit)

        whole, bands = run(), []
        with mock.patch.object(search, "BAND_ROWS", 7):
            with pytest.raises(ValueError):  # checked before any band
                if engine == "reference":
                    match_all(q, db, 1.5, bands.append)
                else:
                    run(bands.append, PipelineConfig(clock_hz=5e-324))
            result = run(lambda *band: bands.append(band))
        assert [start for start, _ in bands] == [0, 7, 14, 21]
        assert all(isinstance(band, MatchColumns) for _, band in bands)
        if engine == "reference":
            assert result is None
        else:
            assert whole.matches.best[tied].tolist() == [0] * len(tied)
            modeled = modeled_run(len(q), len(db))
            for field in fields(RunReport):
                assert getattr(result, field.name) == \
                    getattr(modeled, field.name), field.name
            whole = whole.matches
        for field in fields(whole):
            value = getattr(whole, field.name)
            joined = [getattr(band, field.name) for _, band in bands]
            if value is None:
                assert joined == [None] * len(bands)
            else:
                joined = np.concatenate(joined)
                assert joined.dtype == value.dtype, field.name
                assert joined.tobytes() == value.tobytes(), field.name


class TestReportWriter:
    """The columnar row writer gives the bytes of json.dumps(indent=2) and
    of the per-row csv.writer loop over dict rows built from the columns."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["reference", "pipeline"]),
           st.sampled_from(["exact_0_6", "binary_10011"]),
           st.integers(1, 9), st.integers(1, 5),
           st.sampled_from(["floats", "raws", "file"]),
           st.integers(0, 9), st.integers(1, 4), st.integers(1, 4),
           st.none() | st.integers(1, 4))
    def test_bytes_equal_object_serialization(self, streamed, seed, engine,
                                              mode, m, n, source, copies,
                                              chunk, cols, band):
        # floats as from .siftd, raws as from_raws, or streamed from .siftdb;
        # tiles of 1 query row by ``cols`` database rows; the report written
        # in one band or ``band`` queries at a time
        with mock.patch.multiple(search, TILE_DOTS=1, TILE_ROWS=1,
                                 TILE_COLS=cols):
            case = report_case(seed, engine, mode, m, n, source != "floats",
                               copies, streamed if source == "file" else None)
        check_report(*case, chunk, band)

    @pytest.mark.parametrize("engine,m,n", [
        ("reference", 5, 1),   # second minimum is the pi surrogate
        ("pipeline", 5, 1),    # second minimum is the 0xFFFF sentinel
        ("pipeline", 7, 4),    # chunk boundary inside the rows
    ])
    def test_edge_shapes(self, engine, m, n):
        header, columns = report_case(3, engine, "exact_0_6", m, n, True, 2)
        if n == 1:
            assert set(columns.second_min_angle.tolist()) == {
                SECOND_MIN_SURROGATE if engine == "reference"
                else 0xFFFF * 2.0 ** -14}
        check_report(header, columns, 3)

    @pytest.mark.parametrize("column", ["min_angle", "second_min_angle"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_rejected(self, column, value):
        header, columns = report_case(4, "reference", "exact_0_6", 4, 3,
                                      False, 0)
        angles = getattr(columns, column).copy()
        angles[2] = value
        bad = replace(columns, **{column: angles})
        with pytest.raises(ValueError):  # what json.dumps does today
            json.dumps({**header, "matches": report_rows(bad)}, indent=2,
                       allow_nan=False)
        with pytest.raises(ValueError):
            report_json_chunks(header, bad)

    @pytest.mark.parametrize("engine", ["reference", "pipeline"])
    @pytest.mark.parametrize("m,n", [(rowtext.CHUNK_ROWS + 300, 8), (5, 1)],
                             ids=["fills", "one-row-db"])
    def test_reader_reads_back_what_the_writer_wrote(self, tmp_path, engine,
                                                     m, n):
        """``report_columns`` gives back the query indices and the
        ``matched`` column of a written report: one of several fills and
        pieces, and one against a one-row database."""
        header, columns = report_case(6, engine, "exact_0_6", m, n, True,
                                      m // 7)
        pieces = list(report_json_chunks(header, columns))
        path = tmp_path / "report.json"
        path.write_bytes(b"".join(pieces))
        index, matched = report_columns(str(path))
        assert index.tolist() == list(range(m))
        assert matched.dtype == bool
        assert np.array_equal(matched, columns.matched)
        if m > rowtext.CHUNK_ROWS:
            assert len(pieces) > 4 and 0 < matched.sum() < m
        if engine == "reference":
            assert b'"min_raw": null' in bytes(pieces[1])

    def test_non_finite_header_is_rejected(self):
        header, columns = report_case(5, "pipeline", "exact_0_6", 4, 3, True, 0)
        with pytest.raises(ValueError):
            report_json_chunks({**header, "elapsed_seconds_at_clock": math.inf},
                               columns)


# Angles whose text is easy to get wrong: both zeros (json writes -0.0), the
# smallest subnormal, the switch to exponent notation, and the pi surrogate.
EDGE_ANGLES = [0.0, -0.0, 5e-324, 1e-05, 1e-4, 1.5707963267948966, math.pi]


def random_columns(seed, m, raws):
    """A MatchColumns of m rows built directly, not by an engine: angles from
    EDGE_ANGLES or random finite bit patterns, integers spread over every
    digit count up to 2**31 (best) and 0xFFFF (xy and raws).  With raws and
    an odd seed the angles are the pipeline's instead, ``raw * 2**-14`` of
    the raws (every digit count, 0 and the exponent-form 2**-14 included),
    so that they are written as fixed-point values, not by ``repr``."""
    rng = np.random.default_rng(seed)

    def angles():
        bits = rng.integers(0, 1 << 64, m, dtype=np.uint64).view(np.float64)
        edge = rng.choice(EDGE_ANGLES, m)
        return np.where(np.isfinite(bits) & (rng.random(m) < 0.5), bits, edge)

    def ints(top, shape=m):  # about as many values of each digit count
        return rng.integers(0, top + 1, shape) >> rng.integers(
            0, top.bit_length() + 1, shape)

    def raw():
        return ints(0xFFFF).astype(np.uint16) if raws else None

    xy = ints(0xFFFF, (m, 2)).astype(np.uint16)
    columns = MatchColumns(ints(2 ** 31), angles(), angles(),
                           rng.random(m) < 0.5, xy, xy[::-1] ^ 0xFFFF, raw(),
                           raw())
    if raws and seed % 2:
        return replace(columns, min_angle=columns.min_raw * 2.0 ** -14,
                       second_min_angle=columns.second_min_raw * 2.0 ** -14)
    return columns


class TestRowText:
    """The shared row formatter writes every value as json and csv do."""

    # No shrinking: a smaller seed is not a simpler case.
    @settings(max_examples=5, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(101, 130))
    @example(seed=1, m=130)  # an odd seed: fixed-point angles with raws
    @pytest.mark.parametrize("raws", [True, False])
    @pytest.mark.parametrize("chunk", range(1, 8))
    def test_signed_zero_and_digit_widths(self, seed, m, raws, chunk):
        # m > 100 rows: query_index goes 9 -> 10 and 99 -> 100 digits inside
        # a piece for some chunk sizes and at a piece edge for others.
        columns = random_columns(seed, m, raws)
        header = {"engine": "pipeline" if raws else "reference"}
        rows = report_rows(columns)
        with mock.patch.object(rowtext, "CHUNK_ROWS", chunk):
            text = b"".join(report_json_chunks(header, columns))
            csv_text = b"".join(report_csv_chunks(columns))
        # Line lists, so that a failure names the first wrong line quickly.
        assert text.decode("ascii").splitlines(True) == json.dumps(
            {**header, "matches": rows}, indent=2).splitlines(True)
        assert csv_text.decode("ascii").splitlines(True) == \
            listed_csv(rows).splitlines(True)

    def test_pipeline_report_runs_no_repr(self, monkeypatch):
        """A pipeline report of several bands writes its UQ2.14 angles, 0
        and the 0xFFFF sentinel among them, as fixed-point decimals: no
        ``repr`` runs, and the bytes are json's."""
        m = 400
        calls = []
        monkeypatch.setattr(rowtext, "repr", lambda value: calls.append(
            value) or builtins.repr(value), raising=False)
        rng = np.random.default_rng(3)
        raw = rng.integers(0x80, 0x6488, (m, 2)).astype(np.uint16)
        raw[::7, 0] = 0  # a query equal to a database row
        raw[::5, 1] = 0xFFFF  # no second database row
        xy = np.zeros((m, 2), dtype=np.uint16)
        columns = MatchColumns(np.arange(m), raw[:, 0] * 2.0 ** -14,
                               raw[:, 1] * 2.0 ** -14, np.ones(m, dtype=bool),
                               xy, xy, raw[:, 0].copy(), raw[:, 1].copy())
        text = b"".join(report_json_chunks({}, columns, band=50))
        assert calls == []
        assert text.decode("ascii") == json.dumps(
            {"matches": report_rows(columns)}, indent=2)

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_fixed_point_grid_is_written_as_repr(self, monkeypatch, stride):
        """Every k * 2**-16 with integer 0 <= k < 2**18, which holds every
        UQ2.14 and UQ1.15 value, is written as ``repr`` writes it, in a
        column of every ``stride``-th k: strides 2 and 4 leave the last one
        and two of the 16 fraction places zero in every value, so those
        places are dropped.  ``repr`` runs only on the values below 1e-4,
        which it writes in exponent form."""
        calls = []
        monkeypatch.setattr(rowtext, "repr", lambda value: calls.append(
            value) or builtins.repr(value), raising=False)
        values = np.arange(0, 1 << 18, stride) * 2.0 ** -16
        text = b"".join(rowtext.RowText([values, "\n"]).pieces(len(values)))
        assert text.decode("ascii").splitlines() == list(
            map(repr, values.tolist()))
        assert calls == [v for v in values.tolist() if 0 < v < 1e-4]

    @pytest.mark.parametrize("odd", [-0.0, 4.0, 2.0 ** -17, 0.1,
                                     1.7976931348623157e308])
    def test_column_off_the_grid_is_written_by_repr(self, monkeypatch, odd):
        """One value off the fixed-point grid sends a column of grid values
        to ``repr``, one call per value: negative zero, 4.0 at the grid's
        top, a step finer than 2**-16, a value between steps, and the
        largest float, which is never scaled, so no warning is raised."""
        calls = []
        monkeypatch.setattr(rowtext, "repr", lambda value: calls.append(
            value) or builtins.repr(value), raising=False)
        values = np.array([0.5, odd, 1.25, odd, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = b"".join(rowtext.RowText([values, "\n"]).pieces(5))
        assert text.decode("ascii").splitlines() == list(
            map(repr, values.tolist()))
        assert len(calls) == len(values)

    def test_widest_repr_is_written_whole(self):
        """The 24-character repr of the negative smallest normal, and the
        largest subnormal, are written whole: the bytes are compared, as a
        narrower span would cut the text with no error."""
        tiny = 2.2250738585072014e-308
        values = np.array([-tiny, np.nextafter(tiny, 0), tiny,
                           -np.nextafter(tiny, 0), 0.5])
        assert len(repr(-tiny)) == rowtext._REPR_WIDTH == 24
        text = b"".join(rowtext.RowText([values, ",", values, "\n"])
                        .pieces(len(values)))
        assert text == "".join(f"{v!r},{v!r}\n" for v in values.tolist()
                               ).encode("ascii")

    @pytest.mark.parametrize("column", [[-1], [3, 0, -2]])
    def test_negative_integer_column_is_rejected(self, column):
        with pytest.raises(ValueError, match="negative value"):
            rowtext.RowText([np.array(column), "\n"])

    def test_random_columns_reach_the_edges(self):
        columns = random_columns(0, 130, True)
        for angles in (columns.min_angle, columns.second_min_angle):
            bits = set(angles.view(np.uint64).tolist())
            assert bits >= set(np.array(EDGE_ANGLES).view(np.uint64).tolist())
        assert columns.best.max() > 2 ** 30 and columns.best.min() < 10
        assert columns.min_raw.max() > 0x8000 and columns.min_raw.min() < 10
        grid = random_columns(1, 130, True)  # the example's seed
        for angles, raw in ((grid.min_angle, grid.min_raw),
                            (grid.second_min_angle, grid.second_min_raw)):
            assert np.array_equal(angles, raw * 2.0 ** -14)
            assert {0, 1} <= set(raw.tolist()) and raw.max() > 0x8000

    @staticmethod
    def write_peak(m, chunk, grid=True):
        """(tracemalloc peak of writing the JSON and CSV reports of ``m``
        rows of pipeline-like columns, ``chunk`` rows at a time; longest
        JSON piece; bytes of JSON).  With ``grid`` the angles are the
        pipeline's, ``raw * 2**-14``; else they are the reference's, the
        arccos of dots, off the fixed-point grid."""
        rng = np.random.default_rng(7)
        xy = rng.integers(0, 1 << 16, (m, 2)).astype(np.uint16)
        raw = rng.integers(0x1000, 0x6488, (m, 2)).astype(np.uint16)
        angles = raw * 2.0 ** -14 if grid else np.arccos(rng.random((m, 2)))
        columns = MatchColumns(rng.integers(0, 1 << 31, m), angles[:, 0],
                               angles[:, 1], rng.random(m) < 0.5, xy,
                               xy[::-1], raw[:, 0].copy(), raw[:, 1].copy())

        class Sink:  # a binary file that keeps nothing
            def write(self, data):
                memoryview(data)  # bytes, as a binary file takes them

            def writelines(self, pieces):
                for data in pieces:
                    self.write(data)

        with mock.patch.object(rowtext, "CHUNK_ROWS", chunk):
            lengths = list(map(len, report_json_chunks({}, columns)))
            tracemalloc.start()
            try:
                Sink().writelines(report_json_chunks({}, columns))
                Sink().writelines(report_csv_chunks(columns))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak, max(lengths), sum(lengths)

    @pytest.mark.parametrize("grid", [True, False],
                             ids=["pipeline-angles", "reference-angles"])
    def test_memory_is_pieces_plus_index_columns(self, grid):
        """Peak memory of both writers grows with the rows of a piece and
        an index column, not with the text of whole columns or the distinct
        angles: 40000 rows, 256 rows at a time, with angles on the
        fixed-point grid and off it."""
        m = 40000
        peak, piece, _ = self.write_peak(m, 256, grid)
        # Per row an 8-byte query_index column and, while an angle column
        # is checked for the fixed-point grid, its values scaled (8 bytes)
        # and as integers (4 bytes): 24 bytes with slack.  Pieces: the
        # 256-row grid, a slice of it, its text and the piece the sink's
        # loop still holds.  Measured: 0.91 MB with either angles; 3.4 MB
        # with the reference's written from a float table (sorted keys of
        # both columns, a text per distinct angle), which fails, as holding
        # the angle text of whole columns does.
        assert peak < 3 * piece + 24 * m

    def test_report_text_is_never_held_whole(self):
        """A report laid out in one grid holds that grid and a piece or two
        of its text: no copy of the whole text, and the head goes out as a
        piece of its own, not joined to a copy of the first piece."""
        m = 4096
        peak, _, text = self.write_peak(m, m)
        # The grid is about the text's size (its NUL padding is a few %).
        assert peak < 1.5 * text + 32 * m
