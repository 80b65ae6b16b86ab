"""Tests for repro.util.geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.geometry import (
    Rect,
    pack_rects,
    rects_contain_points,
    rects_intersect_mask,
    union_rects,
)


def rect_strategy(ndim=2, lo=-100.0, hi=100.0):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=32)
    return st.lists(st.tuples(coord, coord), min_size=ndim, max_size=ndim).map(
        lambda pairs: Rect(
            tuple(min(a, b) for a, b in pairs), tuple(max(a, b) for a, b in pairs)
        )
    )


class TestRectConstruction:
    def test_basic(self):
        r = Rect((0, 0), (2, 3))
        assert r.ndim == 2
        assert r.volume == 6
        assert r.center == (1.0, 1.5)
        assert r.extents == (2.0, 3.0)

    def test_degenerate_allowed(self):
        r = Rect((1, 1), (1, 5))
        assert r.volume == 0.0

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            Rect((2, 0), (1, 5))

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            Rect((0, 0, 0), (1, 1))

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            Rect((), ())

    def test_from_points(self):
        pts = np.array([[1, 5], [3, 2], [2, 9]])
        r = Rect.from_points(pts)
        assert r == Rect((1, 2), (3, 9))

    def test_from_points_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.from_points(np.empty((0, 2)))

    def test_cube(self):
        assert Rect.cube(0, 1, 3) == Rect((0, 0, 0), (1, 1, 1))

    def test_hashable(self):
        assert len({Rect((0, 0), (1, 1)), Rect((0, 0), (1, 1))}) == 1


def parent_rect_bounds(lo, hi):
    """``Rect.__post_init__`` as it was, one generator per bound: the
    oracle for what the constructor accepts and how it refuses."""
    lo = tuple(float(x) for x in lo)
    hi = tuple(float(x) for x in hi)
    if len(lo) != len(hi):
        raise ValueError(f"lo has {len(lo)} dims but hi has {len(hi)}")
    if len(lo) == 0:
        raise ValueError("Rect must have at least one dimension")
    for i, (a, b) in enumerate(zip(lo, hi)):
        if a > b:
            raise ValueError(f"lo[{i}]={a} exceeds hi[{i}]={b}")
    return lo, hi


BOUND = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10),
    st.sampled_from([np.float64(1.5), np.int64(-2), np.nan, -0.0]),
)


def check_against_parent(lo, hi):
    try:
        want = parent_rect_bounds(lo, hi)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            Rect(lo, hi)
        assert str(got.value) == str(e)
        return
    r = Rect(lo, hi)
    assert np.array_equal(np.array([r.lo, r.hi]), np.array(want), equal_nan=True)
    assert all(type(x) is float for x in r.lo + r.hi)


class TestRectOracle:
    """``Rect`` converts with ``map(float, ...)`` and compares in one
    pass; it accepts and refuses exactly what the parent did, with the
    same text, NaN bounds included (``a > b`` is False for NaN)."""

    @given(st.lists(BOUND, max_size=4), st.lists(BOUND, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_same_acceptance_and_error_text(self, lo, hi):
        check_against_parent(lo, hi)

    @given(st.lists(st.tuples(BOUND, BOUND), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_same_on_equal_lengths(self, pairs):
        """Equal lengths, so the inverted-dimension check is what runs."""
        lo, hi = zip(*pairs)
        check_against_parent(lo, hi)

    def test_nan_bounds_accepted(self):
        r = Rect((np.nan, 0.0), (1.0, np.nan))
        assert np.isnan(r.lo[0]) and np.isnan(r.hi[1])


class TestRectPredicates:
    def test_intersects_overlap(self):
        assert Rect((0, 0), (2, 2)).intersects(Rect((1, 1), (3, 3)))

    def test_intersects_touching_edges(self):
        # closed boxes: shared boundary counts as intersection
        assert Rect((0, 0), (1, 1)).intersects(Rect((1, 0), (2, 1)))

    def test_disjoint(self):
        assert not Rect((0, 0), (1, 1)).intersects(Rect((2, 2), (3, 3)))

    def test_disjoint_in_one_dim_only(self):
        assert not Rect((0, 0), (1, 1)).intersects(Rect((0, 2), (1, 3)))

    def test_contains_point_boundary(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains_point((1.0, 0.0))
        assert not r.contains_point((1.00001, 0.5))

    def test_contains_rect(self):
        assert Rect((0, 0), (4, 4)).contains_rect(Rect((1, 1), (2, 2)))
        assert not Rect((0, 0), (4, 4)).contains_rect(Rect((1, 1), (5, 2)))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            Rect((0, 0), (1, 1)).intersects(Rect((0,), (1,)))


class TestRectCombinators:
    def test_intersection(self):
        out = Rect((0, 0), (2, 2)).intersection(Rect((1, 1), (3, 3)))
        assert out == Rect((1, 1), (2, 2))

    def test_intersection_disjoint_is_none(self):
        assert Rect((0, 0), (1, 1)).intersection(Rect((2, 2), (3, 3))) is None

    def test_union(self):
        assert Rect((0, 0), (1, 1)).union(Rect((2, 2), (3, 3))) == Rect((0, 0), (3, 3))

    def test_expanded(self):
        assert Rect((1, 1), (2, 2)).expanded(1) == Rect((0, 0), (3, 3))

    def test_expanded_negative_collapse_rejected(self):
        with pytest.raises(ValueError):
            Rect((0, 0), (1, 1)).expanded(-0.6)

    def test_enlargement(self):
        base = Rect((0, 0), (1, 1))
        assert base.enlargement(Rect((0, 0), (2, 1))) == pytest.approx(1.0)
        assert base.enlargement(Rect((0.2, 0.2), (0.8, 0.8))) == pytest.approx(0.0)

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=100)
    def test_intersection_symmetric(self, a, b):
        assert a.intersection(b) == b.intersection(a)
        assert a.intersects(b) == b.intersects(a)

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=100)
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=100)
    def test_intersection_contained_in_both(self, a, b):
        out = a.intersection(b)
        if out is None:
            assert not a.intersects(b)
        else:
            assert a.contains_rect(out) and b.contains_rect(out)


class TestVectorizedPredicates:
    def test_mask_matches_scalar(self, rng):
        los = rng.uniform(0, 90, size=(200, 3))
        his = los + rng.uniform(0, 10, size=(200, 3))
        q = Rect((20, 20, 20), (50, 50, 50))
        mask = rects_intersect_mask(los, his, q)
        for i in range(200):
            expected = Rect(tuple(los[i]), tuple(his[i])).intersects(q)
            assert mask[i] == expected

    def test_pack_rects_roundtrip(self):
        rects = [Rect((0, 0), (1, 1)), Rect((2, 3), (4, 5))]
        los, his = pack_rects(rects)
        assert los.shape == (2, 2)
        np.testing.assert_allclose(his[1], (4, 5))

    def test_pack_rects_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            pack_rects([Rect((0, 0), (1, 1)), Rect((0,), (1,))])

    def test_pack_rects_empty_rejected(self):
        with pytest.raises(ValueError):
            pack_rects([])

    def test_contain_points(self):
        los = np.array([[0.0, 0.0], [5.0, 5.0]])
        his = np.array([[2.0, 2.0], [6.0, 6.0]])
        pts = np.array([[1.0, 1.0], [5.5, 5.5], [3.0, 3.0]])
        m = rects_contain_points(los, his, pts)
        assert m.tolist() == [[True, False, False], [False, True, False]]

    def test_union_rects(self):
        u = union_rects([Rect((0, 0), (1, 1)), Rect((-1, 2), (0, 3))])
        assert u == Rect((-1, 0), (1, 3))

    def test_union_rects_empty_rejected(self):
        with pytest.raises(ValueError):
            union_rects([])

    def test_mask_dim_mismatch(self):
        with pytest.raises(ValueError):
            rects_intersect_mask(np.zeros((3, 2)), np.ones((3, 2)), Rect((0,), (1,)))
