"""Tests for the functional engine.

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
from repro.dataset.graph import ChunkGraph
from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_query
from repro.planner.validate import validate_plan
from repro.runtime.engine import execute_plan
from repro.runtime.kernels import RoutingCache
from repro.runtime.serial import execute_serial
from repro.store.chunk_store import MemoryChunkStore
from repro.util.geometry import Rect

from helpers import build_problem, make_functional_setup


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
        by_id = result.as_dict()
        np.testing.assert_array_equal(by_id[o], result.chunk_values[0])
        assert len(by_id) == len(result.output_ids) and 10_000 not in by_id
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

    def test_empty_plan_keeps_the_counter_contract(self, rng):
        """An empty plan's result is assembled in the one place every
        result is, so it keeps the counter contract: every phase key,
        the plan's tile count, complete."""
        from repro.runtime.phases import PHASES

        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        plan = plan_query(self.empty_problem(rng), "FRA")
        res = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        assert set(res.phase_times) == set(PHASES)
        assert res.n_tiles == plan.n_tiles
        assert res.completeness == 1.0 and res.n_reads == 0


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


class BatchCountingStore(MemoryChunkStore):
    """A memory store that counts the read batches the executor asks for."""

    def __init__(self) -> None:
        super().__init__()
        self.batches = 0

    def read_batch(self, dataset, chunk_ids):
        self.batches += 1
        return super().read_batch(dataset, chunk_ids)


def same_result(a, b) -> bool:
    """Bitwise-equal values, output ids and counters."""
    return (
        a.output_ids.tolist() == b.output_ids.tolist()
        and all(np.array_equal(x, y, equal_nan=True)
                for x, y in zip(a.chunk_values, b.chunk_values, strict=True))
        and (a.n_reads, a.bytes_read, a.n_aggregations, a.n_combines, a.chunk_errors)
        == (b.n_reads, b.bytes_read, b.n_aggregations, b.n_combines, b.chunk_errors)
    )


class TestRoutingMemo:
    """The per-dataset routing memo keeps one entry per read batch: a
    repeated query routes nothing, and no entry ever changes an answer."""

    REGION = Rect((1.0, 0.5), (9.0, 8.5))

    @staticmethod
    def adr_over(setup, store=None, memory=256):
        in_space, _, chunks, _, _ = setup
        adr = ADR(MachineConfig(n_procs=3, memory_per_proc=memory), store=store, cache_bytes=0)
        adr.load("d", in_space, chunks)
        return adr

    def query(self, setup, on_error="raise"):
        _, _, _, mapping, grid = setup
        return RangeQuery("d", self.REGION, mapping, grid, aggregation="sum",
                          strategy="FRA", on_error=on_error)

    def test_repeat_hits_once_per_batch(self, rng):
        setup = make_functional_setup(rng, footprint=(0.05, 0.05))
        store = BatchCountingStore()
        adr, q = self.adr_over(setup, store=store), self.query(setup)
        first = adr.execute(q)
        assert first.n_tiles > 1  # a tight budget: several tiles, several batches
        store.batches = 0
        second = adr.execute(q)
        assert store.batches > 1
        hits = second.cache_stats["routing_hits"] - first.cache_stats["routing_hits"]
        assert hits == store.batches
        assert second.cache_stats["routing_misses"] == first.cache_stats["routing_misses"]
        assert same_result(first, second)

    def test_multi_tile_plan_equal_with_and_without_memo(self, rng):
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng, footprint=(0.08, 0.05))
        prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=256)
        plan = plan_query(prob, "SRA")
        assert plan.n_tiles > 1
        cache = RoutingCache()
        runs = [
            execute_plan(plan, lambda i: chunks[i], mapping, grid, spec,
                         region=self.REGION, routing_cache=memo)
            for memo in (None, cache, cache)
        ]
        assert runs[2].cache_stats["routing_hits"] > 0
        assert same_result(runs[0], runs[1]) and same_result(runs[0], runs[2])

    def test_degraded_run_leaves_no_stale_entry(self, rng):
        """A batch with one corrupt chunk is memoized under the ids that
        survived, so the clean run after it misses and routes afresh."""
        setup = make_functional_setup(rng, footprint=(0.05, 0.05))
        victim = 3
        faults = FaultPlan.corrupt_chunk(victim, dataset="d", times=1)
        adr = self.adr_over(
            setup, store=FaultyChunkStore(MemoryChunkStore(), FaultInjector(faults)),
            memory=1 << 20,
        )
        bad = adr.execute(self.query(setup, on_error="degrade"))
        assert set(bad.chunk_errors) == {victim}
        clean = adr.execute(self.query(setup))
        want = self.adr_over(setup, memory=1 << 20).execute(self.query(setup))
        assert not clean.chunk_errors
        assert clean.cache_stats["routing_misses"] > bad.cache_stats["routing_misses"]
        assert same_result(clean, want)
