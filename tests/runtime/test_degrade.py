"""Degraded execution: unreadable chunks are skipped and reported.

The acceptance bar is the sequential backend: a degraded parallel run
must be **bit-identical** to the sequential run of the same plan
(values and work counters), never merely close.
"""

import pytest

from repro.aggregation.functions import SumAggregation
from repro.faults import FaultInjector, FaultPlan
from repro.planner.strategies import plan_query
from repro.runtime.engine import execute_plan
from repro.store.format import CorruptChunkError

from helpers import make_functional_setup
from test_parallel import assert_bitwise_equal, build_problem


def make_plan(rng, strategy, n_procs=3, memory=1 << 11, n_items=250):
    _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=n_items)
    spec = SumAggregation(1)
    prob = build_problem(chunks, mapping, grid, spec, n_procs, memory)
    return plan_query(prob, strategy), chunks, mapping, grid, spec


def run(plan, chunks, mapping, grid, spec, **kw):
    return execute_plan(plan, lambda i: chunks[i], mapping, grid, spec, **kw)


class TestDegradedExecution:
    VICTIM = 0

    def test_sequential_degrade_reports_exact_chunk(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        res = run(
            plan, chunks, mapping, grid, spec, on_error="degrade",
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
        )
        assert set(res.chunk_errors) == {self.VICTIM}
        assert "CorruptChunkError" in res.chunk_errors[self.VICTIM]
        assert res.completeness == pytest.approx(1.0 - 1.0 / len(chunks))

    @pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
    def test_degraded_backends_bit_identical(self, rng, strategy):
        plan, chunks, mapping, grid, spec = make_plan(rng, strategy)
        seq = run(
            plan, chunks, mapping, grid, spec, on_error="degrade",
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
        )
        par = run(
            plan, chunks, mapping, grid, spec, backend="parallel",
            on_error="degrade",
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
        )
        assert_bitwise_equal(seq, par)
        assert par.chunk_errors == seq.chunk_errors
        assert par.completeness == seq.completeness < 1.0

    def test_degraded_counters_count_successes_only(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        clean = run(plan, chunks, mapping, grid, spec)
        degraded = run(
            plan, chunks, mapping, grid, spec, on_error="degrade",
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
        )
        assert degraded.n_reads == clean.n_reads - 1
        assert degraded.bytes_read < clean.bytes_read

    def test_default_raise_propagates_corruption(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        with pytest.raises(CorruptChunkError):
            run(
                plan, chunks, mapping, grid, spec,
                fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
            )

    def test_parallel_raise_fails_the_query(self, rng):
        """Under ``on_error='raise'`` a corrupt chunk read in a worker
        fails the parallel query with the worker's error."""
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        with pytest.raises(RuntimeError, match="(?s)parallel worker.*CorruptChunkError"):
            run(
                plan, chunks, mapping, grid, spec, backend="parallel",
                fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
            )

    def test_on_error_validation(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        with pytest.raises(ValueError, match="on_error"):
            run(plan, chunks, mapping, grid, spec, on_error="shrug")

    def test_clean_run_reports_full_completeness(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        res = run(plan, chunks, mapping, grid, spec)
        assert res.completeness == 1.0 and res.chunk_errors == {}
