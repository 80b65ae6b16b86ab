"""Tests for the integer-array idioms the graph and the planner share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.arrays import csr_indptr, frozen, tally, unique_rows


class TestUniqueRows:
    @given(st.integers(0, 2**31), st.integers(1, 4), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_numpy_unique_axis0(self, seed, n_cols, large_ids):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        high = 2**62 if large_ids else int(rng.integers(1, 6))
        cols = [rng.integers(0, high, size=n, dtype=np.int64) for _ in range(n_cols)]
        if large_ids:  # force duplicates that only differ in the last column
            cols = [np.concatenate([c, c[: n // 2]]) for c in cols]
            cols[-1][-1] += 1
        want = np.unique(np.stack(cols, axis=1), axis=0)
        got = unique_rows(*cols)
        assert len(got) == n_cols
        for j, col in enumerate(got):
            assert col.dtype == np.int64
            assert col.tolist() == want[:, j].tolist()

    def test_empty_input_gives_fresh_empty_columns(self):
        a = np.empty(0, dtype=np.int64)
        got = unique_rows(a, a)
        assert [len(c) for c in got] == [0, 0]
        assert got[0] is not a

    def test_negative_values_sort_first(self):
        got = unique_rows(np.array([1, -1, 1, -1]), np.array([0, 5, 0, 4]))
        assert [c.tolist() for c in got] == [[-1, -1, 1], [4, 5, 0]]


class TestTally:
    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_equals_add_at(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 9)), int(rng.integers(0, 60))
        ids = rng.integers(0, n, size=k)
        weights = rng.integers(0, 2**40, size=k, dtype=np.int64)
        want = np.zeros(n, dtype=np.int64)
        np.add.at(want, ids, weights)
        got = tally(ids, weights, n)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


def test_csr_indptr_counts_rows_including_empty_ones():
    assert csr_indptr(np.array([0, 0, 3]), 5).tolist() == [0, 2, 2, 2, 3, 3]
    assert csr_indptr(np.empty(0, dtype=np.int64), 2).tolist() == [0, 0, 0]


def test_frozen_marks_read_only_in_place():
    a = np.arange(3)
    assert frozen(a) is a
    with pytest.raises(ValueError):
        a[0] = 1
