import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siftmatch import search
from siftmatch.descriptors import DESCRIPTOR_LEN, DescriptorSet, generate_synthetic
from siftmatch.reference import (
    SECOND_MIN_SURROGATE,
    angular_distance,
    dot_matrix,
    dot_product,
    match_all,
    match_one,
)


def make_set(rows, xy=None):
    rows = np.asarray(rows, dtype=np.float64)
    if xy is None:
        xy = np.zeros((rows.shape[0], 2), dtype=np.uint16)
    return DescriptorSet.from_floats("test", rows, xy)


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

    def test_matrix_matches_scalar_bitwise(self, rng):
        q = make_set(random_unit(rng, 4))
        d = make_set(random_unit(rng, 5))
        mat = dot_matrix(q.floats, d.floats)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == dot_product(q[i], d[j])


class TestAngularDistance:
    def test_identical_is_zero(self):
        d = make_set([one_hot(3)])[0]
        assert angular_distance(d, d) == 0.0

    def test_orthogonal_is_half_pi(self):
        s = make_set([one_hot(0), one_hot(1)])
        assert abs(angular_distance(s[0], s[1]) - math.pi / 2) <= 1e-9

    def test_dot_half(self):
        # two unit vectors engineered to have dot product 0.5
        a = np.zeros(DESCRIPTOR_LEN)
        b = np.zeros(DESCRIPTOR_LEN)
        a[0] = 1.0
        b[0], b[1] = 0.5, math.sqrt(3) / 2
        s = make_set([a, b])
        assert abs(angular_distance(s[0], s[1]) - 1.047198) <= 1e-6
        assert abs(angular_distance(s[0], s[1]) - math.acos(0.5)) <= 1e-12

    def test_clamps_rounding_excursions(self, rng):
        d = make_set(random_unit(rng))[0]
        assert angular_distance(d, d) >= 0.0


class TestMatchOne:
    def test_planted_identity_match(self):
        db = make_set([one_hot(i) for i in range(5)])
        res = match_one(db[2], db, 0.6)
        assert res.matched and res.best_index == 2
        assert res.min_angle == 0.0
        assert abs(res.second_min_angle - math.pi / 2) < 1e-9

    def test_duplicate_best_is_rejected(self, rng):
        v = random_unit(rng)[0]
        db = make_set([v, v, one_hot(0)])
        res = match_one(db[0], db, 0.6)
        assert res.min_angle == res.second_min_angle
        assert not res.matched

    def test_single_entry_db_uses_pi_surrogate(self, rng):
        db = make_set(random_unit(rng))
        res = match_one(db[0], db, 0.6)
        assert res.second_min_angle == SECOND_MIN_SURROGATE
        assert res.matched  # min <= pi/2 < 0.6 * pi always

    def test_planted_noisy_match(self):
        q, db, truth = generate_synthetic(20, seed=8, match_fraction=1.0,
                                          noise_sigma=0.01)
        for i, j in truth[:5]:
            res = match_one(q[i], db, 0.6, query_index=i)
            assert res.matched and res.best_index == j

    def test_tie_breaks_to_smallest_index(self, rng):
        v = random_unit(rng)[0]
        other = random_unit(rng)[0]
        db = make_set([other, v, v])
        res = match_one(make_set([v])[0], db, 0.6)
        assert res.best_index == 1

    def test_empty_db_rejected(self, rng):
        q = make_set(random_unit(rng))
        empty = DescriptorSet("e", np.empty((0, DESCRIPTOR_LEN)),
                              np.empty((0, DESCRIPTOR_LEN), dtype=np.uint16),
                              np.empty((0, 2), dtype=np.uint16))
        with pytest.raises(ValueError):
            match_one(q[0], empty)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_domain(self, bad, rng):
        db = make_set(random_unit(rng, 3))
        with pytest.raises(ValueError):
            match_one(db[0], db, bad)


class TestMatchAll:
    def test_self_match_argmin_identity(self):
        q, db, _ = generate_synthetic(40, seed=13, match_fraction=0.0,
                                      noise_sigma=0.0)
        results = match_all(db, db, 0.6)
        assert all(r.best_index == r.query_index for r in results)
        # self-dot can land a few ulps under 1.0; clamp keeps it at most 1.0
        assert all(r.min_angle <= 1e-6 for r in results)

    def test_empty_queries(self, rng):
        db = make_set(random_unit(rng, 3))
        empty = DescriptorSet("e", np.empty((0, DESCRIPTOR_LEN)),
                              np.empty((0, DESCRIPTOR_LEN), dtype=np.uint16),
                              np.empty((0, 2), dtype=np.uint16))
        assert match_all(empty, db, 0.6) == []

    def test_full_recall_on_exact_copies(self):
        q, db, truth = generate_synthetic(30, seed=21, match_fraction=1.0,
                                          noise_sigma=0.0)
        results = match_all(q, db, 0.6)
        assert all(results[i].matched and results[i].best_index == j
                   for i, j in truth)

    def test_order_preserved_and_consistent_with_match_one(self, rng):
        q = make_set(random_unit(rng, 6))
        db = make_set(random_unit(rng, 9))
        batch = match_all(q, db, 0.6)
        for k, res in enumerate(batch):
            assert res.query_index == k
            single = match_one(q[k], db, 0.6, query_index=k)
            assert single.min_angle == res.min_angle
            assert single.second_min_angle == res.second_min_angle
            assert single.best_index == res.best_index
            assert single.matched == res.matched


class TestInvariants:
    def test_argmin_angle_equals_argmax_dot(self, rng):
        q = make_set(random_unit(rng, 8))
        db = make_set(random_unit(rng, 30))
        dots = dot_matrix(q.floats, db.floats)
        results = match_all(q, db, 0.6)
        for k, res in enumerate(results):
            assert res.best_index == int(np.argmax(dots[k]))

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
        assert all(r.matched for r in near_one
                   if r.min_angle < r.second_min_angle)
        near_zero = match_all(q, db, 1e-12)
        assert not any(r.matched for r in near_zero if r.min_angle > 0)


class TestBlasPath:
    """Raw-exact sets take one BLAS GEMM per tile; it must give the bits of
    the strict left-to-right :func:`dot_matrix`."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([1 << 15, 5800, 40]), st.integers(1, 20))
    def test_bit_equal_to_strict_order(self, seed, m, n, top, tile):
        rng = np.random.default_rng(seed)
        q_raws = rng.integers(0, top + 1, (m, DESCRIPTOR_LEN)).astype(np.uint16)
        d_raws = rng.integers(0, top + 1, (n, DESCRIPTOR_LEN)).astype(np.uint16)
        d_raws[rng.integers(n)] = q_raws[0]  # an exact angle-0 pair
        q = DescriptorSet.from_raws("q", q_raws, np.zeros((m, 2)))
        d = DescriptorSet.from_raws("d", d_raws, np.zeros((n, 2)))
        assert np.array_equal(search.exact_dots(q.floats, d.floats),
                              dot_matrix(q.floats, d.floats))
        strict_q = DescriptorSet("q", q.floats, q.raws, q.xy)
        strict_d = DescriptorSet("d", d.floats, d.raws, d.xy)
        assert not strict_q.raw_exact and not strict_d.raw_exact
        with mock.patch.object(search, "TILE_DOTS", tile):
            assert match_all(q, d) == match_all(strict_q, strict_d)

    def test_inexact_sets_keep_strict_order(self, rng):
        q = make_set(random_unit(rng, 8))
        db = make_set(random_unit(rng, 40))
        angles = np.arccos(np.clip(dot_matrix(q.floats, db.floats), 0.0, 1.0))
        results = match_all(q, db, 0.6)
        assert [r.min_angle for r in results] == angles.min(axis=1).tolist()
