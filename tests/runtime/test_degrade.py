"""Degraded execution: unreadable chunks are skipped and reported.

The acceptance bar is exactness: a degraded run must be
**bit-identical** to a clean run of the same plan over chunks where
the unreadable one holds no items (values and every work counter but
the lost read), never merely close.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.aggregation.functions import SumAggregation
from repro.dataset.chunk import Chunk
from repro.faults import FaultPlan
from repro.planner.strategies import plan_query
from repro.runtime.engine import execute_plan
from repro.store.format import CorruptChunkError

from helpers import build_problem, faulty_reader, make_functional_setup


def make_plan(rng, strategy, n_procs=3, memory=1 << 11, n_items=250):
    _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=n_items)
    spec = SumAggregation(1)
    prob = build_problem(chunks, mapping, grid, spec, n_procs, memory)
    return plan_query(prob, strategy), chunks, mapping, grid, spec


def run(plan, chunks, mapping, grid, spec, victim=None, **kw):
    """Execute *plan* over *chunks*; with a *victim*, through the
    fault-injecting store stack with that chunk corrupt."""
    source = (
        (lambda i: chunks[i]) if victim is None
        else faulty_reader(chunks, FaultPlan.corrupt_chunk(victim))
    )
    return execute_plan(plan, source, mapping, grid, spec, **kw)


class TestDegradedExecution:
    VICTIM = 0

    def test_sequential_degrade_reports_exact_chunk(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        res = run(
            plan, chunks, mapping, grid, spec, on_error="degrade",
            victim=self.VICTIM,
        )
        assert set(res.chunk_errors) == {self.VICTIM}
        assert "CorruptChunkError" in res.chunk_errors[self.VICTIM]
        assert res.completeness == pytest.approx(1.0 - 1.0 / len(chunks))

    @pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
    def test_degraded_equals_run_without_the_victim(self, rng, strategy):
        plan, chunks, mapping, grid, spec = make_plan(rng, strategy)
        degraded = run(
            plan, chunks, mapping, grid, spec, on_error="degrade",
            victim=self.VICTIM,
        )
        emptied = list(chunks)
        victim = chunks[self.VICTIM]
        emptied[self.VICTIM] = Chunk(
            replace(victim.meta, n_items=0), victim.coords[:0], victim.values[:0]
        )
        clean = run(plan, emptied, mapping, grid, spec)
        assert degraded.output_ids.tolist() == clean.output_ids.tolist()
        for o, dv, cv in zip(degraded.output_ids, degraded.chunk_values, clean.chunk_values):
            assert np.array_equal(dv, cv, equal_nan=True), int(o)
        reads_lost = int((plan.reads.chunk == self.VICTIM).sum())
        assert degraded.n_reads == clean.n_reads - reads_lost
        assert (degraded.n_aggregations, degraded.n_combines) == (
            clean.n_aggregations, clean.n_combines
        )
        assert set(degraded.chunk_errors) == {self.VICTIM}
        assert degraded.completeness < 1.0 == clean.completeness

    def test_degraded_counters_count_successes_only(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        clean = run(plan, chunks, mapping, grid, spec)
        degraded = run(
            plan, chunks, mapping, grid, spec, on_error="degrade",
            victim=self.VICTIM,
        )
        assert degraded.n_reads == clean.n_reads - 1
        assert degraded.bytes_read < clean.bytes_read

    def test_default_raise_propagates_corruption(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        with pytest.raises(CorruptChunkError):
            run(
                plan, chunks, mapping, grid, spec,
                victim=self.VICTIM,
            )

    def test_on_error_validation(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        with pytest.raises(ValueError, match="on_error"):
            run(plan, chunks, mapping, grid, spec, on_error="shrug")

    def test_clean_run_reports_full_completeness(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        res = run(plan, chunks, mapping, grid, spec)
        assert res.completeness == 1.0 and res.chunk_errors == {}
