"""Worker-crash recovery and degraded execution on the parallel backend.

The acceptance bar is the sequential backend: a recovered or degraded
parallel run must be **bit-identical** to the sequential run of the
same plan (values and work counters), never merely close.
"""

import numpy as np
import pytest

from repro.aggregation.functions import SumAggregation
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.planner.strategies import plan_query
from repro.runtime.engine import execute_plan
from repro.runtime.parallel import RecoveryPolicy
from repro.store.format import CorruptChunkError

from helpers import make_functional_setup
from test_parallel import assert_bitwise_equal, build_problem

FAST_RECOVERY = RecoveryPolicy(
    max_restarts=2, inbox_timeout=10.0, poll_interval=0.1, grace_polls=5
)


def make_plan(rng, strategy, n_procs=3, memory=1 << 11, n_items=250):
    _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=n_items)
    spec = SumAggregation(1)
    prob = build_problem(chunks, mapping, grid, spec, n_procs, memory)
    return plan_query(prob, strategy), chunks, mapping, grid, spec


def run(plan, chunks, mapping, grid, spec, **kw):
    return execute_plan(plan, lambda i: chunks[i], mapping, grid, spec, **kw)


@pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
class TestCrashRecovery:
    def test_recovered_run_is_bit_identical(self, rng, strategy):
        plan, chunks, mapping, grid, spec = make_plan(rng, strategy)
        seq = run(plan, chunks, mapping, grid, spec)
        par = run(
            plan, chunks, mapping, grid, spec, backend="parallel",
            fault_injector=FaultInjector(FaultPlan.crash_worker(rank=1, after_reads=1)),
            recovery=FAST_RECOVERY,
        )
        assert_bitwise_equal(seq, par)
        assert par.completeness == 1.0 and par.chunk_errors == {}


    def test_crash_inside_a_reduce_batch_recovers(self, rng, strategy):
        """Under the default batch bound a tile's reads are fetched as
        one batch; a crash armed on a read in the middle of it fires
        mid-fetch, with the batch's earlier reads held but unapplied,
        and the re-execution is still bit-identical, counters included."""
        plan, chunks, mapping, grid, spec = make_plan(rng, strategy)
        schedule = plan.schedule().reads_of(0).tolist()
        assert len(schedule) >= 3
        middle = len(schedule) // 2
        rank = int(plan.reads.proc[schedule[middle]])
        earlier = sum(int(plan.reads.proc[r]) == rank for r in schedule[:middle])
        injector = FaultInjector(FaultPlan.crash_worker(rank=rank, after_reads=earlier))
        seq = run(plan, chunks, mapping, grid, spec)
        par = run(
            plan, chunks, mapping, grid, spec, backend="parallel",
            fault_injector=injector, recovery=FAST_RECOVERY,
        )
        assert injector.attempt == 1  # the crash fired; attempt 1 finished
        assert_bitwise_equal(seq, par)
        assert par.completeness == 1.0 and par.chunk_errors == {}


class TestRecoveryModes:
    def test_immediate_crash_before_any_read(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA")
        seq = run(plan, chunks, mapping, grid, spec)
        par = run(
            plan, chunks, mapping, grid, spec, backend="parallel",
            fault_injector=FaultInjector(FaultPlan.crash_worker(rank=0, after_reads=0)),
            recovery=FAST_RECOVERY,
        )
        assert_bitwise_equal(seq, par)

    def test_single_process_crash_recovers(self, rng):
        """n_procs=1: the only worker dies; the retry re-hosts rank 0."""
        plan, chunks, mapping, grid, spec = make_plan(rng, "DA", n_procs=1)
        seq = run(plan, chunks, mapping, grid, spec)
        par = run(
            plan, chunks, mapping, grid, spec, backend="parallel",
            fault_injector=FaultInjector(FaultPlan.crash_worker(rank=0, after_reads=1)),
            recovery=FAST_RECOVERY,
        )
        assert_bitwise_equal(seq, par)

    def test_dropped_message_recovers(self, rng):
        """A lost forward message stalls a peer; its inbox timeout marks
        the attempt failed and the re-execution lands bit-identical."""
        plan, chunks, mapping, grid, spec = make_plan(rng, "SRA")
        seq = run(plan, chunks, mapping, grid, spec)
        par = run(
            plan, chunks, mapping, grid, spec, backend="parallel",
            fault_injector=FaultInjector(FaultPlan.drop_messages(message_kind="seg")),
            recovery=RecoveryPolicy(
                max_restarts=2, inbox_timeout=3.0, poll_interval=0.1, grace_polls=5
            ),
        )
        assert_bitwise_equal(seq, par)

    def test_restart_budget_exhausted(self, rng):
        """A crash scoped to every attempt (attempt=None) defeats
        recovery; the restart budget surfaces in the error."""
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        always_crash = FaultPlan(
            (FaultSpec("worker_crash", rank=0, after_reads=0,
                       attempt=None, times=None),)
        )
        with pytest.raises(RuntimeError, match="restart"):
            run(
                plan, chunks, mapping, grid, spec, backend="parallel",
                fault_injector=FaultInjector(always_crash),
                recovery=RecoveryPolicy(
                    max_restarts=1, inbox_timeout=10.0,
                    poll_interval=0.1, grace_polls=5,
                ),
            )

    def test_zero_restart_budget_fails_fast(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        with pytest.raises(RuntimeError, match="restart"):
            run(
                plan, chunks, mapping, grid, spec, backend="parallel",
                fault_injector=FaultInjector(
                    FaultPlan.crash_worker(rank=0, after_reads=0)
                ),
                recovery=RecoveryPolicy(
                    max_restarts=0, inbox_timeout=10.0,
                    poll_interval=0.1, grace_polls=5,
                ),
            )


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
            recovery=FAST_RECOVERY,
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

    def test_parallel_raise_fails_without_restart(self, rng):
        """Deterministic data errors are non-retryable: re-execution
        cannot heal a corrupt file, so the query fails on attempt 0."""
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        with pytest.raises(RuntimeError, match="parallel worker"):
            run(
                plan, chunks, mapping, grid, spec, backend="parallel",
                fault_injector=FaultInjector(FaultPlan.corrupt_chunk(self.VICTIM)),
                recovery=FAST_RECOVERY,
            )

    def test_on_error_validation(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        with pytest.raises(ValueError, match="on_error"):
            run(plan, chunks, mapping, grid, spec, on_error="shrug")

    def test_clean_run_reports_full_completeness(self, rng):
        plan, chunks, mapping, grid, spec = make_plan(rng, "FRA", n_items=100)
        res = run(plan, chunks, mapping, grid, spec)
        assert res.completeness == 1.0 and res.chunk_errors == {}
