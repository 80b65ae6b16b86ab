"""Tests for Map functions (mappings)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import AffineMapping, GridMapping, IdentityMapping
from repro.util.geometry import Rect


def spaces():
    s_in = AttributeSpace.regular("in3", ("x", "y", "t"), (0, 0, 0), (10, 20, 5))
    s_out = AttributeSpace.regular("out2", ("u", "v"), (0, 0), (1, 1))
    return s_in, s_out


class TestIdentityMapping:
    def test_points_unchanged(self, rng):
        s = AttributeSpace.regular("s", ("x", "y"), (0, 0), (1, 1))
        m = IdentityMapping(s)
        pts = rng.uniform(0, 1, size=(20, 2))
        np.testing.assert_array_equal(m.map_points(pts), pts)

    def test_project_rect_identity(self):
        s = AttributeSpace.regular("s", ("x", "y"), (0, 0), (1, 1))
        m = IdentityMapping(s)
        r = Rect((0.1, 0.2), (0.5, 0.6))
        assert m.project_rect(r) == r

    def test_footprint_grows_projection(self):
        s = AttributeSpace.regular("s", ("x", "y"), (0, 0), (1, 1))
        m = IdentityMapping(s, footprint=(0.1, 0.2))
        out = m.project_rect(Rect((0.5, 0.5), (0.6, 0.6)))
        assert out == Rect((0.4, 0.3), (0.7, 0.8))

    def test_bad_points_shape(self):
        s = AttributeSpace.regular("s", ("x", "y"), (0, 0), (1, 1))
        with pytest.raises(ValueError):
            IdentityMapping(s).map_points(np.zeros((3, 3)))


class TestAffineMapping:
    def test_dim_select_projection(self):
        s_in, s_out = spaces()
        m = AffineMapping(s_in, s_out, scale=(0.1, 0.05), offset=(0, 0), dim_select=(0, 1))
        pts = np.array([[10.0, 20.0, 3.0]])
        np.testing.assert_allclose(m.map_points(pts), [[1.0, 1.0]])

    def test_between_bounds_maps_corners(self):
        s_in, s_out = spaces()
        m = AffineMapping.between_bounds(s_in, s_out, dim_select=(0, 1))
        np.testing.assert_allclose(m.map_points(np.array([[0.0, 0.0, 2.0]])), [[0, 0]])
        np.testing.assert_allclose(m.map_points(np.array([[10.0, 20.0, 2.0]])), [[1, 1]])

    def test_zero_scale_rejected(self):
        s_in, s_out = spaces()
        with pytest.raises(ValueError):
            AffineMapping(s_in, s_out, scale=(0, 1), offset=(0, 0), dim_select=(0, 1))

    def test_bad_dim_select(self):
        s_in, s_out = spaces()
        with pytest.raises(ValueError):
            AffineMapping(s_in, s_out, scale=(1, 1), offset=(0, 0), dim_select=(0, 5))

    def test_negative_footprint_rejected(self):
        s_in, s_out = spaces()
        with pytest.raises(ValueError):
            AffineMapping(
                s_in, s_out, scale=(1, 1), offset=(0, 0), dim_select=(0, 1),
                footprint=(-0.1, 0),
            )

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_project_rect_conservative(self, seed):
        """Every mapped item of a rect lies inside the rect's projection
        (the planner-safety property)."""
        rng = np.random.default_rng(seed)
        s_in, s_out = spaces()
        m = AffineMapping.between_bounds(s_in, s_out, dim_select=(0, 1), footprint=(0.02, 0.01))
        lo = rng.uniform(0, 5, size=3)
        hi = lo + rng.uniform(0, 4, size=3)
        rect = Rect(tuple(lo), tuple(hi))
        proj = m.project_rect(rect)
        pts = rng.uniform(lo, hi, size=(50, 3))
        box_lo, box_hi = m.point_footprints(pts)
        plo, phi = proj.as_arrays()
        assert (box_lo >= plo - 1e-9).all() and (box_hi <= phi + 1e-9).all()


class TestGridMapping:
    def test_cells_for_points(self):
        s_in, s_out = spaces()
        m = GridMapping(s_in, s_out, grid_shape=(10, 10), dim_select=(0, 1))
        cells = m.cells_for_coords(m.map_points(np.array([[0.0, 0.0, 0.0], [9.99, 19.99, 0.0]])))
        assert cells[0].tolist() == [0, 0]
        assert cells[1].tolist() == [9, 9]

    def test_upper_boundary_clamped(self):
        s_in, s_out = spaces()
        m = GridMapping(s_in, s_out, grid_shape=(10, 10), dim_select=(0, 1))
        cells = m.cells_for_coords(m.map_points(np.array([[10.0, 20.0, 0.0]])))
        assert cells[0].tolist() == [9, 9]

    def test_cell_ranges_footprint(self):
        s_in, s_out = spaces()
        m = GridMapping(s_in, s_out, grid_shape=(10, 10), dim_select=(0, 1), footprint=(0.1, 0.0))
        lo, hi = m.cell_ranges_for_points(np.array([[5.0, 10.0, 0.0]]))
        assert (hi[0] - lo[0]).tolist() == [2, 0]  # footprint spans 3 x-cells

    def test_zero_footprint_lo_equals_hi(self):
        s_in, s_out = spaces()
        m = GridMapping(s_in, s_out, grid_shape=(8, 8), dim_select=(0, 1))
        lo, hi = m.cell_ranges_for_points(np.array([[3.3, 7.7, 1.0]]))
        assert (lo == hi).all()

    def test_bad_grid_shape(self):
        s_in, s_out = spaces()
        with pytest.raises(ValueError):
            GridMapping(s_in, s_out, grid_shape=(10,), dim_select=(0, 1))
        with pytest.raises(ValueError):
            GridMapping(s_in, s_out, grid_shape=(0, 10), dim_select=(0, 1))
