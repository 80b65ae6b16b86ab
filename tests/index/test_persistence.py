"""Pickle persistence round-trips for every SpatialIndex type.

The dataset loader persists one index per dataset; a reloaded index
must answer queries identically to the one that was saved -- including
over degenerate MBR populations (zero-width, boundary-touching,
single-chunk).
"""

import pickle

import numpy as np
import pytest

from repro.index import (
    BruteForceIndex,
    HierarchicalBitmapIndex,
    RTree,
    ScanIndex,
    SpatialIndex,
)
from repro.util.geometry import Rect

from helpers import random_rects

ALL_INDEX_TYPES = [
    BruteForceIndex,
    RTree,
    ScanIndex,
    HierarchicalBitmapIndex,
]


def degenerate_populations(rng):
    """(label, los, his) triples covering the nasty MBR shapes."""
    los, his = random_rects(rng, 120, 2)
    zero_width = los.copy()
    # Rectangles that touch exactly along shared edges at x = 0/5/10.
    touching_lo = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]])
    touching_hi = np.array([[5.0, 5.0], [10.0, 5.0], [10.0, 10.0]])
    return [
        ("random", los, his),
        ("zero-width", zero_width, zero_width.copy()),
        ("boundary-touching", touching_lo, touching_hi),
        ("single-chunk", np.array([[2.0, 3.0]]), np.array([[4.0, 9.0]])),
    ]


def probe_queries(rng, n=12):
    rects = [
        Rect((0.0, 0.0), (100.0, 100.0)),   # everything
        Rect((5.0, 5.0), (5.0, 5.0)),       # a point on shared edges
        Rect((-10.0, -10.0), (-5.0, -5.0)),  # nothing
    ]
    for _ in range(n):
        lo = rng.uniform(0, 90, size=2)
        rects.append(Rect(tuple(lo), tuple(lo + rng.uniform(0, 30, size=2))))
    return rects


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestPersistence:
    def test_save_load_query_equality(self, rng, tmp_path, index_cls):
        for label, los, his in degenerate_populations(rng):
            idx = index_cls.from_rects(los, his)
            path = tmp_path / f"{index_cls.__name__}-{label}.idx"
            idx.save(path)
            loaded = SpatialIndex.load(path)
            assert isinstance(loaded, index_cls)
            assert loaded.n_entries == idx.n_entries
            for q in probe_queries(rng):
                a, b = idx.query(q), loaded.query(q)
                assert a.tolist() == b.tolist(), (index_cls, label, q)

    def test_empty_population_round_trip(self, tmp_path, index_cls):
        idx = index_cls.from_rects(np.empty((0, 2)), np.empty((0, 2)))
        path = tmp_path / "empty.idx"
        idx.save(path)
        loaded = SpatialIndex.load(path)
        assert isinstance(loaded, index_cls)
        assert loaded.n_entries == 0
        assert loaded.query(Rect((0, 0), (1, 1))).tolist() == []


def test_load_rejects_non_index(tmp_path):
    path = tmp_path / "junk.idx"
    with open(path, "wb") as fh:
        pickle.dump({"not": "an index"}, fh)
    with pytest.raises(TypeError):
        SpatialIndex.load(path)
