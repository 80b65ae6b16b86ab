"""Tests for the vectorized sorted-MBR scan index."""

import numpy as np
import pytest

from repro.index.brute import BruteForceIndex
from repro.index.scan import ScanIndex
from repro.util.geometry import Rect

from helpers import random_rects


class TestScanIndex:
    def test_matches_brute_force(self, rng):
        los, his = random_rects(rng, 500, 2)
        scan = ScanIndex(los, his)
        brute = BruteForceIndex(los, his)
        for _ in range(40):
            lo = rng.uniform(0, 90, size=2)
            q = Rect(tuple(lo), tuple(lo + rng.uniform(0, 40, size=2)))
            assert scan.query(q).tolist() == brute.query(q).tolist()

    @pytest.mark.parametrize("ndim", [1, 3, 4])
    def test_matches_brute_force_other_dims(self, rng, ndim):
        los, his = random_rects(rng, 200, ndim)
        scan = ScanIndex(los, his)
        brute = BruteForceIndex(los, his)
        for _ in range(15):
            lo = rng.uniform(0, 80, size=ndim)
            q = Rect(tuple(lo), tuple(lo + rng.uniform(0, 30, size=ndim)))
            assert scan.query(q).tolist() == brute.query(q).tolist()

    def test_results_sorted(self, rng):
        los, his = random_rects(rng, 300, 2)
        ids = ScanIndex(los, his).query(Rect((0, 0), (100, 100)))
        assert ids.dtype == np.int64
        assert np.all(np.diff(ids) > 0)
        assert len(ids) == 300

    def test_empty_population(self):
        scan = ScanIndex(np.empty((0, 2)), np.empty((0, 2)))
        assert scan.n_entries == 0
        assert scan.query(Rect((0, 0), (1, 1))).tolist() == []

    def test_disjoint_query(self, rng):
        los, his = random_rects(rng, 100, 2)
        scan = ScanIndex(los, his)
        assert scan.query(Rect((500, 500), (600, 600))).tolist() == []

    def test_zero_width_rects(self):
        # Point MBRs: boundary-touching queries must still hit them.
        los = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        scan = ScanIndex(los, los.copy())
        assert scan.query(Rect((2.0, 2.0), (2.0, 2.0))).tolist() == [1]
        assert scan.query(Rect((0.0, 0.0), (2.0, 2.0))).tolist() == [0, 1]

    def test_boundary_touching(self):
        los = np.array([[0.0, 0.0], [5.0, 0.0]])
        his = np.array([[5.0, 5.0], [9.0, 5.0]])
        scan = ScanIndex(los, his)
        # Query sharing only an edge with each rect intersects both.
        assert scan.query(Rect((5.0, 0.0), (5.0, 5.0))).tolist() == [0, 1]

    def test_build_from_chunkset(self, rng):
        from repro.dataset.chunkset import ChunkSet

        los, his = random_rects(rng, 60, 2)
        cs = ChunkSet(los, his, np.full(60, 10, dtype=np.int64))
        idx = ScanIndex.build(cs)
        q = Rect((10, 10), (70, 70))
        assert idx.query(q).tolist() == cs.intersecting(q).tolist()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScanIndex(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ScanIndex(np.ones((2, 2)), np.zeros((2, 2)))  # lo > hi

    def test_query_dim_mismatch(self, rng):
        los, his = random_rects(rng, 10, 2)
        with pytest.raises(ValueError):
            ScanIndex(los, his).query(Rect((0,), (1,)))


def test_every_loader_builds_a_scan_index(rng):
    """The single-process loader, the ADR facade, the router's topology
    and every shard of a cluster all index their chunks with a
    ScanIndex; nothing selects another implementation."""
    from repro.dataset.loader import load_dataset
    from repro.frontend.adr import ADR
    from repro.shard.cluster import ShardCluster
    from repro.shard.topology import ShardTopology
    from repro.store.chunk_store import MemoryChunkStore

    from helpers import make_functional_setup, small_machine

    in_space, _, chunks, _, _ = make_functional_setup(rng)
    adr = ADR(machine=small_machine())
    indexes = {
        "ADR.load": adr.load("d", in_space, chunks).index,
        "load_dataset": load_dataset(
            MemoryChunkStore(), "d", in_space, chunks, n_nodes=2
        ).index,
        "ShardTopology.build": ShardTopology.build(
            "d", in_space, chunks, n_shards=3
        ).index,
    }
    cluster = ShardCluster.build("d", in_space, chunks, n_shards=3)
    for sid, shard in enumerate(cluster.shard_adrs):
        indexes[f"shard {sid}"] = shard.index("d")
    for where, index in indexes.items():
        assert type(index) is ScanIndex, where
