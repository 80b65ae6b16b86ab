"""Tests for the d-dimensional Hilbert curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.geometry import Rect
from repro.util.hilbert import (
    hilbert_index,
    hilbert_indices,
    hilbert_point,
    hilbert_sort_keys,
)


@pytest.mark.parametrize("bits,ndim", [(1, 2), (4, 2), (3, 3), (2, 4), (2, 5)])
class TestCurveInvariants:
    def test_bijective(self, bits, ndim):
        n = 1 << (bits * ndim)
        points = [hilbert_point(i, bits, ndim) for i in range(n)]
        assert len(set(points)) == n

    def test_inverse(self, bits, ndim):
        n = 1 << (bits * ndim)
        for i in range(0, n, max(1, n // 97)):
            assert hilbert_index(hilbert_point(i, bits, ndim), bits) == i

    def test_adjacency(self, bits, ndim):
        """Consecutive curve positions are neighbouring grid cells --
        the locality property declustering and tiling rely on."""
        n = 1 << (bits * ndim)
        prev = hilbert_point(0, bits, ndim)
        for i in range(1, n):
            cur = hilbert_point(i, bits, ndim)
            assert sum(abs(a - b) for a, b in zip(prev, cur)) == 1
            prev = cur


class TestScalar:
    def test_1d_identity(self):
        assert hilbert_index((5,), 4) == 5
        assert hilbert_point(5, 4, 1) == (5,)

    def test_2d_order1(self):
        # The classic 4-cell U shape.
        pts = [hilbert_point(i, 1, 2) for i in range(4)]
        assert len(set(pts)) == 4
        assert pts[0] == (0, 0)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_index((16, 0), 4)
        with pytest.raises(ValueError):
            hilbert_index((-1, 0), 4)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_point(1 << 8, 4, 2)
        with pytest.raises(ValueError):
            hilbert_point(-1, 4, 2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            hilbert_index((0, 0), 0)
        with pytest.raises(ValueError):
            hilbert_point(0, 4, 0)

    def test_large_bits_arbitrary_precision(self):
        # 3 dims x 30 bits = 90-bit indices: beyond int64, must work.
        coords = ((1 << 30) - 1, 12345, 987654)
        idx = hilbert_index(coords, 30)
        assert hilbert_point(idx, 30, 3) == coords


class TestVectorized:
    @given(
        st.integers(1, 8),
        st.integers(2, 4),
        st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar(self, bits, ndim, seed):
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 1 << bits, size=(50, ndim))
        vec = hilbert_indices(coords, bits)
        scalar = [hilbert_index(c, bits) for c in coords]
        assert vec.tolist() == scalar

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("bits", [1, 8, 16])
    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_keys_bit_identical_to_scalar(self, ndim, bits, seed):
        """The in-place bit-op path against the scalar reference at the
        curve orders the planner and the declusterer use, corner cells
        and a block boundary included."""
        rng = np.random.default_rng(seed)
        top = (1 << bits) - 1
        coords = rng.integers(0, top + 1, size=(40, ndim))
        coords[0], coords[1] = 0, top
        vec = hilbert_indices(coords, bits)
        assert vec.dtype == np.int64
        assert vec.tolist() == [hilbert_index(c, bits) for c in coords]

    def test_blocks_concatenate(self, monkeypatch):
        import repro.util.hilbert as hilbert_module

        coords = np.random.default_rng(5).integers(0, 1 << 12, size=(1000, 3))
        whole = hilbert_indices(coords, 12)
        monkeypatch.setattr(hilbert_module, "_BLOCK", 64)
        assert hilbert_indices(coords, 12).tolist() == whole.tolist()

    def test_input_left_untouched(self):
        coords = np.array([[3, 9], [12, 1]], dtype=np.int64)
        before = coords.copy()
        hilbert_indices(coords, 4)
        assert np.array_equal(coords, before)

    def test_empty(self):
        out = hilbert_indices(np.empty((0, 3), dtype=np.int64), 4)
        assert out.shape == (0,)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="int64"):
            hilbert_indices(np.zeros((1, 4), dtype=np.int64), 16)

    def test_out_of_range_coords(self):
        with pytest.raises(ValueError):
            hilbert_indices(np.array([[0, 16]]), 4)

    def test_1d(self):
        out = hilbert_indices(np.array([[3], [7]]), 4)
        assert out.tolist() == [3, 7]


class TestSortKeys:
    def test_locality(self, rng):
        """Nearby points get nearby keys more often than random pairs."""
        bbox = Rect((0, 0), (1, 1))
        pts = rng.uniform(0, 1, size=(500, 2))
        keys = hilbert_sort_keys(pts, bbox, bits=10)
        order = np.argsort(keys)
        consecutive = np.linalg.norm(pts[order[1:]] - pts[order[:-1]], axis=1)
        shuffled = rng.permutation(500)
        random_pairs = np.linalg.norm(pts[shuffled[1:]] - pts[shuffled[:-1]], axis=1)
        assert consecutive.mean() < 0.5 * random_pairs.mean()

    def test_boundary_points_in_range(self):
        bbox = Rect((0, 0), (1, 1))
        keys = hilbert_sort_keys(np.array([[0.0, 0.0], [1.0, 1.0]]), bbox, bits=8)
        assert (keys >= 0).all() and (keys < 1 << 16).all()

    def test_degenerate_dimension(self):
        bbox = Rect((0, 5), (1, 5))  # zero extent in y
        keys = hilbert_sort_keys(np.array([[0.2, 5.0], [0.9, 5.0]]), bbox, bits=8)
        assert keys[0] != keys[1]

    def test_single_point_1d_input(self):
        bbox = Rect((0, 0), (1, 1))
        keys = hilbert_sort_keys(np.array([0.5, 0.5]), bbox, bits=8)
        assert keys.shape == (1,)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            hilbert_sort_keys(np.zeros((3, 3)), Rect((0, 0), (1, 1)))
