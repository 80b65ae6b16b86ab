"""Tests for the parallel functional engine.

The headline invariant of the whole reproduction: for any workload,
the FRA, SRA, DA and hybrid executions produce the same answer as the
serial reference -- the planner moves work and data around but never
changes the result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import (
    BestValueComposite,
    MaxAggregation,
    MeanAggregation,
    SumAggregation,
)
from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.decluster.hilbert import HilbertDeclusterer
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_query
from repro.planner.validate import validate_plan
from repro.runtime.engine import execute_plan
from repro.runtime.serial import execute_serial

from helpers import make_functional_setup


def build_problem(chunks, mapping, grid, spec, n_procs, memory, seed=0):
    """Assemble a geometry-derived problem over payload chunks."""
    metas = [c.meta for c in chunks]
    inputs = ChunkSet.from_metas(metas)
    decl = HilbertDeclusterer()
    inputs = decl.place(inputs, n_procs)
    outputs = decl.place(grid.chunkset(), n_procs)
    graph = ChunkGraph.from_geometry(inputs, outputs, mapping)
    acc = np.asarray(
        [spec.acc_bytes(grid.cells_in_chunk(o)) for o in range(grid.n_chunks)],
        dtype=np.int64,
    )
    return PlanningProblem(
        n_procs=n_procs,
        memory_per_proc=np.int64(memory),
        inputs=inputs,
        outputs=outputs,
        graph=graph,
        acc_nbytes=acc,
    )


STRATEGIES = ["FRA", "SRA", "DA", "HYBRID"]
SPECS = [SumAggregation(1), MeanAggregation(1), MaxAggregation(1)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
class TestStrategiesEqualSerial:
    def test_equal(self, rng, strategy, spec):
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        # ~72-byte accumulator chunks: a 256-byte budget forces tiling
        prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=256)
        plan = plan_query(prob, strategy)
        validate_plan(plan)
        assert plan.n_tiles > 1  # memory chosen to force real tiling
        result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        serial = execute_serial(chunks, mapping, grid, spec)
        assert set(result.output_ids.tolist()) == set(serial)
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)], equal_nan=True)


class TestFootprintFanOut:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fan_out_still_equal(self, rng, strategy):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng, footprint=(0.08, 0.05))
        prob = build_problem(chunks, mapping, grid, spec, n_procs=4, memory=1 << 14)
        plan = plan_query(prob, strategy)
        result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        serial = execute_serial(chunks, mapping, grid, spec)
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)])


class TestBestValueComposite:
    @pytest.mark.parametrize("strategy", ["FRA", "DA"])
    def test_composite_equal(self, rng, strategy):
        spec = BestValueComposite(2)
        _, _, chunks, mapping, grid = make_functional_setup(rng, value_components=2)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=1 << 15)
        plan = plan_query(prob, strategy)
        result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        serial = execute_serial(chunks, mapping, grid, spec)
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)], equal_nan=True)


class TestCountersAndBookkeeping:
    def test_reads_match_plan(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=1 << 14)
        plan = plan_query(prob, "FRA")
        result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        assert result.n_reads == len(plan.reads)
        assert result.bytes_read == plan.total_read_bytes
        assert result.n_combines == len(plan.ghost_transfers)
        assert result.n_tiles == plan.n_tiles

    def test_da_has_no_combines(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=1 << 14)
        result = execute_plan(
            plan_query(prob, "DA"), lambda i: chunks[i], mapping, grid, spec
        )
        assert result.n_combines == 0

    def test_enforce_memory_holds_budget(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=2, memory=1 << 14)
        plan = plan_query(prob, "DA")
        # must not raise: the tiling honoured the budget
        execute_plan(plan, lambda i: chunks[i], mapping, grid, spec, enforce_memory=True)

    def test_dataset_source(self, rng):
        from repro.dataset.dataset import Dataset
        from repro.space.attribute_space import AttributeSpace

        spec = SumAggregation(1)
        in_space, _, chunks, mapping, grid = make_functional_setup(rng)
        ds = Dataset.from_chunks("d", in_space, chunks)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=2, memory=1 << 15)
        plan = plan_query(prob, "FRA")
        result = execute_plan(plan, ds, mapping, grid, spec)
        serial = execute_serial(chunks, mapping, grid, spec)
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)])

    def test_bad_source_type(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=2, memory=1 << 15)
        plan = plan_query(prob, "FRA")
        with pytest.raises(TypeError):
            execute_plan(plan, "not chunks", mapping, grid, spec)

    def test_result_accessors(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        prob = build_problem(chunks, mapping, grid, spec, n_procs=2, memory=1 << 15)
        result = execute_plan(plan_query(prob, "FRA"), lambda i: chunks[i], mapping, grid, spec)
        o = int(result.output_ids[0])
        np.testing.assert_array_equal(result.value_of(o), result.chunk_values[0])
        with pytest.raises(KeyError):
            result.value_of(10_000)
        full = result.assemble(grid)
        assert full.shape == grid.grid_shape + (1,)


class TestEmptyResults:
    """A query selecting nothing must assemble to an all-NaN grid,
    not crash on ``chunk_values[0]``."""

    def test_assemble_with_no_chunk_values(self, rng):
        from repro.runtime.engine import QueryResult

        _, _, _, _, grid = make_functional_setup(rng)
        empty = QueryResult(
            strategy="FRA",
            output_ids=np.empty(0, dtype=np.int64),
            chunk_values=[],
            n_tiles=0, n_reads=0, bytes_read=0, n_combines=0, n_aggregations=0,
        )
        full = empty.assemble(grid)
        assert full.shape == grid.grid_shape + (1,)
        assert np.isnan(full).all()

    @staticmethod
    def empty_problem(rng):
        from helpers import make_chunkset

        return PlanningProblem(
            n_procs=2,
            memory_per_proc=np.int64(1 << 14),
            inputs=make_chunkset(rng, 0, placed_on=2),
            outputs=make_chunkset(rng, 0, placed_on=2),
            graph=ChunkGraph(0, 0, np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64)),
        )

    def test_empty_problem_executes_and_assembles(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        plan = plan_query(self.empty_problem(rng), "FRA")
        result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        assert result.chunk_values == [] and result.n_tiles == 0
        full = result.assemble(grid)
        assert full.shape == grid.grid_shape + (1,)
        assert np.isnan(full).all()

    def test_empty_plan_same_on_both_backends(self, rng):
        """Both backends assemble an empty plan's result in one place,
        so it keeps the cross-backend contract: every phase key, the
        plan's tile count, complete."""
        from repro.runtime.phases import PHASES

        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        plan = plan_query(self.empty_problem(rng), "FRA")
        seq, par = (
            execute_plan(plan, lambda i: chunks[i], mapping, grid, spec, backend=b)
            for b in ("sequential", "parallel")
        )
        assert set(seq.phase_times) == set(par.phase_times) == set(PHASES)
        assert seq.n_tiles == par.n_tiles == plan.n_tiles
        assert seq.completeness == par.completeness == 1.0


@given(seed=st.integers(0, 2**31), strategy=st.sampled_from(STRATEGIES),
       n_procs=st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_property_parallel_equals_serial(seed, strategy, n_procs):
    """Random workloads, random machine widths: parallel == serial."""
    rng = np.random.default_rng(seed)
    spec = SumAggregation(1)
    _, _, chunks, mapping, grid = make_functional_setup(
        rng, n_items=150, items_per_chunk=int(rng.integers(5, 30)),
        grid_cells=(8, 8), chunk_cells=(int(rng.integers(2, 5)), int(rng.integers(2, 5))),
    )
    memory = int(rng.integers(1 << 11, 1 << 16))
    prob = build_problem(chunks, mapping, grid, spec, n_procs=n_procs, memory=memory)
    plan = plan_query(prob, strategy)
    validate_plan(plan)
    result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
    serial = execute_serial(chunks, mapping, grid, spec)
    for o, vals in zip(result.output_ids, result.chunk_values):
        np.testing.assert_allclose(vals, serial[int(o)])
