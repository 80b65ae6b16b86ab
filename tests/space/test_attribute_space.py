"""Tests for the attribute space service."""

import pytest

from repro.space.attribute_space import AttributeSpace, AttributeSpaceRegistry, Dimension
from repro.util.geometry import Rect


def earth():
    return AttributeSpace.regular(
        "earth", ("lon", "lat"), (-180, -90), (180, 90)
    )


class TestDimension:
    def test_extent(self):
        assert Dimension("x", -1, 3).extent == 4

    def test_bad_range(self):
        with pytest.raises(ValueError):
            Dimension("x", 2, 1)

    def test_empty_name(self):
        with pytest.raises(ValueError):
            Dimension("", 0, 1)


class TestAttributeSpace:
    def test_bounds(self):
        assert earth().bounds == Rect((-180, -90), (180, 90))

    def test_regular_constructor_mismatch(self):
        with pytest.raises(ValueError):
            AttributeSpace.regular("s", ("x",), (0, 0), (1,))

    def test_duplicate_dim_names(self):
        with pytest.raises(ValueError):
            AttributeSpace("s", (Dimension("x", 0, 1), Dimension("x", 0, 1)))

    def test_no_dims(self):
        with pytest.raises(ValueError):
            AttributeSpace("s", ())

    def test_contains_and_clip(self):
        s = earth()
        assert s.contains(Rect((0, 0), (10, 10)))
        assert not s.contains(Rect((170, 0), (190, 10)))
        assert s.clip(Rect((170, 0), (190, 10))) == Rect((170, 0), (180, 10))
        assert s.clip(Rect((181, 91), (200, 95))) is None

    def test_validate_query_clips(self):
        s = earth()
        assert s.validate_query(Rect((170, 0), (190, 10))) == Rect((170, 0), (180, 10))

    def test_validate_query_outside(self):
        with pytest.raises(ValueError, match="outside"):
            earth().validate_query(Rect((181, 91), (185, 95)))

    def test_validate_query_wrong_dims(self):
        with pytest.raises(ValueError, match="dims"):
            earth().validate_query(Rect((0,), (1,)))


class TestRegistry:
    def test_register_get(self):
        reg = AttributeSpaceRegistry()
        s = reg.register(earth())
        assert reg.get("earth") is s
        assert "earth" in reg and len(reg) == 1

    def test_idempotent_reregister(self):
        reg = AttributeSpaceRegistry()
        reg.register(earth())
        reg.register(earth())  # identical: fine
        assert len(reg) == 1

    def test_conflicting_reregister(self):
        reg = AttributeSpaceRegistry()
        reg.register(earth())
        other = AttributeSpace.regular("earth", ("lon", "lat"), (0, 0), (1, 1))
        with pytest.raises(ValueError, match="different definition"):
            reg.register(other)

    def test_missing(self):
        with pytest.raises(KeyError, match="not registered"):
            AttributeSpaceRegistry().get("nope")
