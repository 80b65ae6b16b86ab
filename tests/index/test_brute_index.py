"""Tests for the brute-force baseline index."""

import numpy as np
import pytest

from repro.index.brute import BruteForceIndex
from repro.util.geometry import Rect

from helpers import random_rects


class TestBruteForce:
    def test_build_from_chunkset(self, rng):
        from repro.dataset.chunkset import ChunkSet

        los, his = random_rects(rng, 50, 2)
        cs = ChunkSet(los, his, np.full(50, 10, dtype=np.int64))
        idx = BruteForceIndex.build(cs)
        q = Rect((0, 0), (50, 50))
        assert idx.query(q).tolist() == cs.intersecting(q).tolist()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BruteForceIndex(np.zeros((2, 2)), np.zeros((3, 2)))
