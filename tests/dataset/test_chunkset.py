"""Tests for packed chunk metadata (ChunkSet)."""

import numpy as np
import pytest

from repro.dataset.chunk import ChunkMeta
from repro.dataset.chunkset import ChunkSet
from repro.util.geometry import Rect


def simple_set(n=10, ndim=2):
    los = np.arange(n, dtype=float)[:, None] * np.ones(ndim)
    his = los + 0.5
    return ChunkSet(los, his, np.full(n, 100, dtype=np.int64))


class TestConstruction:
    def test_defaults(self):
        cs = simple_set()
        assert len(cs) == 10 and cs.ndim == 2
        assert not cs.placed
        assert cs.total_bytes == 1000

    def test_from_metas_roundtrip(self):
        metas = [
            ChunkMeta(i, Rect((i, 0), (i + 1, 1)), 50 + i, n_items=i + 1, node=0, disk=0)
            for i in range(5)
        ]
        cs = ChunkSet.from_metas(metas)
        assert cs.meta(3) == metas[3]

    def test_from_metas_requires_dense_ids(self):
        metas = [ChunkMeta(1, Rect((0,), (1,)), 10)]
        with pytest.raises(ValueError, match="dense"):
            ChunkSet.from_metas(metas)

    def test_invalid_mbrs(self):
        with pytest.raises(ValueError):
            ChunkSet(np.array([[1.0]]), np.array([[0.0]]), np.array([10]))

    def test_negative_sizes(self):
        with pytest.raises(ValueError):
            ChunkSet(np.zeros((1, 1)), np.ones((1, 1)), np.array([-1]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ChunkSet(np.zeros((2, 1)), np.ones((2, 1)), np.array([1]))


class TestQueries:
    def test_intersecting(self):
        cs = simple_set()
        hits = cs.intersecting(Rect((2.2, 2.2), (4.1, 4.1)))
        # chunks 3 and 4 overlap; chunk 2 [2,2.5] misses (2.2..) -- no wait
        # chunk i spans [i, i+0.5]; query [2.2,4.1] hits chunk 2 (2..2.5),
        # 3 (3..3.5), 4 (4..4.5)
        assert hits.tolist() == [2, 3, 4]

    def test_bounds(self):
        cs = simple_set(5)
        assert cs.bounds == Rect((0, 0), (4.5, 4.5))

    def test_centers(self):
        cs = simple_set(2)
        np.testing.assert_allclose(cs.centers[1], [1.25, 1.25])

    def test_hilbert_order_is_permutation_and_deterministic(self, rng):
        los = rng.uniform(0, 100, size=(64, 2))
        cs = ChunkSet(los, los + 1, np.full(64, 10, dtype=np.int64))
        order = cs.hilbert_order()
        assert sorted(order.tolist()) == list(range(64))
        assert order.tolist() == cs.hilbert_order().tolist()

    def test_hilbert_order_locality(self, rng):
        los = rng.uniform(0, 100, size=(200, 2))
        cs = ChunkSet(los, los + 0.5, np.full(200, 10, dtype=np.int64))
        order = cs.hilbert_order()
        c = cs.centers
        consecutive = np.linalg.norm(c[order[1:]] - c[order[:-1]], axis=1).mean()
        shuffled = rng.permutation(200)
        baseline = np.linalg.norm(c[shuffled[1:]] - c[shuffled[:-1]], axis=1).mean()
        assert consecutive < 0.5 * baseline


class TestPlacement:
    def test_with_placement(self):
        cs = simple_set()
        node = np.arange(10, dtype=np.int32) % 3
        disk = np.zeros(10, dtype=np.int32)
        placed = cs.with_placement(node, disk)
        assert placed.placed and not cs.placed
        assert placed.node.tolist() == node.tolist()


class TestSubset:
    def test_subset_renumbering(self):
        cs = simple_set()
        sub = cs.subset(np.array([2, 5, 7]))
        assert len(sub) == 3
        assert sub.mbr(0) == cs.mbr(2)
        assert sub.mbr(2) == cs.mbr(7)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            simple_set().subset(np.array([], dtype=np.int64))
