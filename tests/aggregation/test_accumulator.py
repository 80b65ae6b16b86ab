"""Tests for per-processor accumulator management."""

import numpy as np
import pytest

from repro.aggregation.accumulator import AccumulatorSet
from repro.aggregation.functions import MeanAggregation, SumAggregation


class TestAllocation:
    def test_allocate_and_get(self):
        s = AccumulatorSet(SumAggregation(1))
        acc = s.allocate(3, n_cells=10, ghost=False)
        assert s.get(3) is acc
        assert acc.data.shape == (10, 1)
        assert not acc.ghost
        assert 3 in s and len(s) == 1

    def test_double_allocate_rejected(self):
        s = AccumulatorSet(SumAggregation(1))
        s.allocate(0, 4, ghost=False)
        with pytest.raises(KeyError):
            s.allocate(0, 4, ghost=True)

    def test_missing_get(self):
        with pytest.raises(KeyError):
            AccumulatorSet(SumAggregation(1)).get(0)

    def test_memory_budget_enforced(self):
        spec = SumAggregation(1)
        s = AccumulatorSet(spec, memory_limit=spec.acc_bytes(10))
        s.allocate(0, 6, ghost=False)
        with pytest.raises(MemoryError, match="budget"):
            s.allocate(1, 6, ghost=False)

    def test_bytes_in_use_and_clear(self):
        """The bytes in use count against the budget until ``clear``
        releases them with the accumulators."""
        spec = MeanAggregation(2)
        s = AccumulatorSet(spec, memory_limit=spec.acc_bytes(5))
        s.allocate(0, 5, ghost=False)
        with pytest.raises(MemoryError, match="budget"):
            s.allocate(1, 1, ghost=False)
        s.clear()
        assert len(s) == 0
        s.allocate(1, 5, ghost=False)
        assert len(s) == 1


class TestAggregationPaths:
    def test_aggregate_and_output(self):
        s = AccumulatorSet(SumAggregation(1))
        s.allocate(0, 3, ghost=False)
        s.aggregate(0, np.array([1, 1]), np.array([2.0, 3.0]))
        assert s.get(0).data[1, 0] == 5.0

    def test_combine_from(self):
        spec = SumAggregation(1)
        owner = AccumulatorSet(spec)
        other = AccumulatorSet(spec)
        owner.allocate(0, 2, ghost=False)
        other.allocate(0, 2, ghost=True)
        other.aggregate(0, np.array([0]), np.array([7.0]))
        owner.combine_from(0, other.get(0).data)
        assert owner.get(0).data[0, 0] == 7.0

    def test_combine_into_ghost_rejected(self):
        s = AccumulatorSet(SumAggregation(1))
        s.allocate(0, 2, ghost=True)
        with pytest.raises(ValueError, match="ghost"):
            s.combine_from(0, np.zeros((2, 1)))

    def test_combine_shape_mismatch(self):
        s = AccumulatorSet(SumAggregation(1))
        s.allocate(0, 2, ghost=False)
        with pytest.raises(ValueError):
            s.combine_from(0, np.zeros((3, 1)))

    def test_ghosts_and_locals_iterators(self):
        s = AccumulatorSet(SumAggregation(1))
        s.allocate(0, 2, ghost=False)
        s.allocate(1, 2, ghost=True)
        s.allocate(2, 2, ghost=True)
        assert sorted(a.output_chunk for a in s.ghosts()) == [1, 2]
        assert [a.output_chunk for a in s if not a.ghost] == [0]
