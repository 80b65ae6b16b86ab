"""Tests for partial aggregation and the FRA global combine."""

import numpy as np

from helpers import make_functional_setup
from repro.aggregation.functions import (
    MeanAggregation,
    MinAggregation,
    SumAggregation,
)
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.shard.partial import (
    PartialAggregationSpec,
    as_partial,
    combine_partials,
)
from repro.util.geometry import Rect
from repro.util.units import MB


def make_adr_and_query(rng, aggregation, value_components=1, strategy="FRA"):
    in_space, _, chunks, mapping, grid = make_functional_setup(
        rng, value_components=value_components
    )
    adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
    adr.load("d", in_space, chunks)
    query = RangeQuery(
        "d", Rect((0, 0), (10, 10)), mapping, grid,
        aggregation=aggregation, strategy=strategy,
    )
    return adr, query


class TestPartialAggregationSpec:
    def test_layout_is_the_inner_accumulator(self):
        inner = MeanAggregation(2)
        partial = PartialAggregationSpec(inner)
        assert partial.value_components == inner.value_components
        assert partial.acc_components == inner.acc_components  # noqa: ADR302 -- integer layout counts
        # The raw accumulator travels as the "output".
        assert partial.output_components == inner.acc_components  # noqa: ADR302 -- integer layout counts
        assert partial.acc_dtype == inner.acc_dtype  # noqa: ADR302 -- dtype identity, not values
        assert partial.idempotent == inner.idempotent

    def test_output_is_a_copy_of_the_accumulator(self):
        partial = PartialAggregationSpec(SumAggregation(1))
        acc = partial.initialize(4)
        partial.aggregate(acc, np.array([0, 0, 3]), np.array([[1.0], [2.0], [5.0]]))
        out = partial.output(acc)
        np.testing.assert_array_equal(out, acc)
        out[0, 0] = 99.0
        assert not np.isclose(acc[0, 0], 99.0)

    def test_combine_delegates_to_inner(self):
        partial = PartialAggregationSpec(MinAggregation(1))
        a = partial.initialize(2)
        b = partial.initialize(2)
        partial.aggregate(a, np.array([0]), np.array([[3.0]]))
        partial.aggregate(b, np.array([0]), np.array([[1.0]]))
        partial.combine(a, b)
        assert a[0, 0] == 1.0

    def test_as_partial_wraps_the_resolved_spec(self):
        _, _, chunks, mapping, grid = make_functional_setup(
            np.random.default_rng(0), value_components=2
        )
        query = RangeQuery(
            "d", Rect((0, 0), (10, 10)), mapping, grid,
            aggregation=MinAggregation(2), strategy="FRA",
        )
        wrapped = as_partial(query)
        assert isinstance(wrapped.aggregation, PartialAggregationSpec)
        assert wrapped.aggregation.inner.value_components == 2
        # The original query is untouched (dataclasses.replace).
        assert isinstance(query.aggregation, MinAggregation)


class TestCombinePartials:
    def test_single_partial_roundtrips_to_full_result(self, rng):
        """``combine(init, x) == x``: one shard's raw accumulator,
        combined into a fresh init and finalized once, must equal the
        plain (non-partial) execution bit for bit."""
        adr, query = make_adr_and_query(rng, MeanAggregation(1))
        full = adr.execute(query)
        partial = adr.execute(as_partial(query))
        spec = query.spec()
        values, n_combines = combine_partials(
            spec, query.grid, partial.output_ids, [(0, partial)]
        )
        assert n_combines == len(partial.output_ids)
        assert len(values) == len(full.chunk_values)
        for a, b in zip(values, full.chunk_values):
            assert np.array_equal(a, b, equal_nan=True)

    def test_split_partials_recombine_exactly(self, rng):
        """Aggregating two disjoint item halves separately and merging
        the raw accumulators equals aggregating everything at once."""
        adr, query = make_adr_and_query(rng, MeanAggregation(1))
        full = adr.execute(query)
        lo = RangeQuery(
            query.dataset, Rect((0, 0), (10, 5)), query.mapping, query.grid,
            aggregation=query.aggregation, strategy=query.strategy,
        )
        hi = RangeQuery(
            query.dataset, Rect((0, 5), (10, 10)), query.mapping, query.grid,
            aggregation=query.aggregation, strategy=query.strategy,
        )
        p_lo = adr.execute(as_partial(lo))
        p_hi = adr.execute(as_partial(hi))
        values, _ = combine_partials(
            query.spec(), query.grid, full.output_ids, [(0, p_lo), (1, p_hi)]
        )
        # Chunks straddling the split boundary are re-read by both
        # halves, so only exact region splits recombine; the mean over
        # y<5 plus the mean over y>=5 covers every item exactly once.
        for o, a, b in zip(full.output_ids, values, full.chunk_values):
            np.testing.assert_allclose(
                a, b, equal_nan=True, err_msg=f"output chunk {int(o)}"
            )

    def test_shard_order_is_deterministic(self, rng):
        adr, query = make_adr_and_query(rng, MinAggregation(2), value_components=2)
        partial = adr.execute(as_partial(query))
        spec = query.spec()
        a, _ = combine_partials(
            spec, query.grid, partial.output_ids,
            [(1, partial), (0, partial)],
        )
        b, _ = combine_partials(
            spec, query.grid, partial.output_ids,
            [(0, partial), (1, partial)],
        )
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)

    def test_missing_outputs_fall_back_to_init(self, rng):
        """A shard contributing nothing to some output chunk leaves
        that chunk at the spec's initial value (and costs no combine)."""
        from dataclasses import replace

        adr, query = make_adr_and_query(rng, "sum")
        partial = adr.execute(as_partial(query))
        spec = query.spec()
        trimmed = replace(
            partial,
            output_ids=partial.output_ids[:-1],
            chunk_values=partial.chunk_values[:-1],
        )
        values, n_combines = combine_partials(
            spec, query.grid, partial.output_ids, [(0, trimmed)]
        )
        assert n_combines == len(partial.output_ids) - 1
        missing = int(partial.output_ids[-1])
        init = spec.output(spec.initialize(query.grid.cells_in_chunk(missing)))
        assert np.array_equal(values[-1], init, equal_nan=True)
