"""Tests for the R-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.brute import BruteForceIndex
from repro.index.rtree import RTree
from repro.util.geometry import Rect

from helpers import random_rects


def random_query(rng, extent=100.0, ndim=2):
    lo = rng.uniform(0, extent * 0.8, size=ndim)
    hi = lo + rng.uniform(0, extent * 0.4, size=ndim)
    return Rect(tuple(lo), tuple(hi))


class TestConstruction:
    def test_empty_tree(self):
        t = RTree(2)
        assert t.n_entries == 0
        assert t.query(Rect((0, 0), (1, 1))).tolist() == []

    def test_empty_from_rects(self):
        t = RTree.from_rects(np.empty((0, 2)), np.empty((0, 2)))
        assert t.n_entries == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RTree(0)
        with pytest.raises(ValueError):
            RTree(2, max_entries=2)
        with pytest.raises(ValueError):
            RTree(2, max_entries=8, min_entries=5)

    def test_insert_validation(self):
        t = RTree(2)
        with pytest.raises(ValueError):
            t.insert(0, np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            t.insert(0, np.array([1.0, 1.0]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "insert"])
class TestQueryCorrectness:
    def test_matches_brute_force(self, rng, bulk):
        los, his = random_rects(rng, 500, 2)
        tree = RTree.from_rects(los, his, bulk=bulk)
        brute = BruteForceIndex(los, his)
        for _ in range(30):
            q = random_query(rng)
            assert tree.query(q).tolist() == brute.query(q).tolist()

    def test_3d(self, rng, bulk):
        los, his = random_rects(rng, 200, 3)
        tree = RTree.from_rects(los, his, bulk=bulk)
        brute = BruteForceIndex(los, his)
        for _ in range(15):
            q = random_query(rng, ndim=3)
            assert tree.query(q).tolist() == brute.query(q).tolist()

    def test_all_and_none(self, rng, bulk):
        los, his = random_rects(rng, 100, 2)
        tree = RTree.from_rects(los, his, bulk=bulk)
        assert len(tree.query(Rect((-1000, -1000), (1000, 1000)))) == 100
        assert len(tree.query(Rect((-10, -10), (-5, -5)))) == 0

    def test_invariants(self, rng, bulk):
        los, his = random_rects(rng, 300, 2)
        tree = RTree.from_rects(los, his, bulk=bulk)
        tree.validate()
        assert tree.n_entries == 300
        assert tree.height >= 2


class TestStructure:
    def test_height_grows_logarithmically(self, rng):
        los, his = random_rects(rng, 1000, 2)
        tree = RTree.from_rects(los, his, max_entries=8)
        # 1000 entries at fanout 8: height around 4; never linear.
        assert 3 <= tree.height <= 6
        assert tree.node_count() > 1000 / 8

    def test_incremental_inserts_stay_valid(self, rng):
        tree = RTree(2, max_entries=4)
        los, his = random_rects(rng, 120, 2)
        for i in range(120):
            tree.insert(i, los[i], his[i])
            if i % 17 == 0:
                tree.validate()
        tree.validate()
        brute = BruteForceIndex(los, his)
        q = random_query(rng)
        assert tree.query(q).tolist() == brute.query(q).tolist()

    def test_duplicate_rects_handled(self):
        los = np.zeros((50, 2))
        his = np.ones((50, 2))
        tree = RTree.from_rects(los, his, bulk=False)
        tree.validate()
        assert len(tree.query(Rect((0.5, 0.5), (0.6, 0.6)))) == 50

    def test_query_dim_mismatch(self, rng):
        los, his = random_rects(rng, 10, 2)
        tree = RTree.from_rects(los, his)
        with pytest.raises(ValueError):
            tree.query(Rect((0,), (1,)))


@given(st.integers(0, 2**31), st.integers(5, 200))
@settings(max_examples=25, deadline=None)
def test_property_rtree_equals_brute(seed, n):
    rng = np.random.default_rng(seed)
    los, his = random_rects(rng, n, 2)
    tree = RTree.from_rects(los, his, bulk=bool(seed % 2))
    tree.validate()
    brute = BruteForceIndex(los, his)
    q = random_query(rng)
    assert tree.query(q).tolist() == brute.query(q).tolist()


class TestHilbertBulkLoad:
    def test_matches_brute_force(self, rng):
        los, his = random_rects(rng, 400, 2)
        tree = RTree.from_rects(los, his, bulk="hilbert")
        tree.validate()
        brute = BruteForceIndex(los, his)
        for _ in range(20):
            q = random_query(rng)
            assert tree.query(q).tolist() == brute.query(q).tolist()

    def test_3d(self, rng):
        los, his = random_rects(rng, 200, 3)
        tree = RTree.from_rects(los, his, bulk="hilbert")
        tree.validate()
        brute = BruteForceIndex(los, his)
        q = random_query(rng, ndim=3)
        assert tree.query(q).tolist() == brute.query(q).tolist()

    def test_same_height_as_str(self, rng):
        los, his = random_rects(rng, 500, 2)
        h_str = RTree.from_rects(los, his, bulk="str").height
        h_hil = RTree.from_rects(los, his, bulk="hilbert").height
        assert h_hil == h_str  # both pack leaves fully

    def test_bad_bulk_method(self, rng):
        los, his = random_rects(rng, 10, 2)
        with pytest.raises(ValueError, match="bulk-load"):
            RTree.from_rects(los, his, bulk="zorder")
