"""The multiprocess backend vs the sequential backend.

``backend="parallel"`` runs the plan with real worker processes,
shared-memory accumulators and queue-based ghost transfers, but shares
the fused kernels and the tile schedule with the sequential backend --
so its results (and its work counters) must match **bit for bit**, not
just within tolerance.
"""

import glob
import multiprocessing
import os
import queue
import time

import numpy as np
import pytest

from repro.aggregation.functions import MeanAggregation, SumAggregation
from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.decluster.hilbert import HilbertDeclusterer
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_query
from repro.runtime.engine import execute_plan
from repro.runtime.transport import QueueTransport, message_key

from helpers import make_chunkset, make_functional_setup

COUNTERS = ("n_reads", "bytes_read", "n_aggregations", "n_combines")


def build_problem(chunks, mapping, grid, spec, n_procs, memory):
    """Geometry-derived problem over payload chunks (as in test_engine)."""
    inputs = ChunkSet.from_metas([c.meta for c in chunks])
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


def run_both(chunks, mapping, grid, spec, strategy, n_procs=3, memory=1 << 11):
    prob = build_problem(chunks, mapping, grid, spec, n_procs, memory)
    plan = plan_query(prob, strategy)
    seq = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
    par = execute_plan(
        plan, lambda i: chunks[i], mapping, grid, spec, backend="parallel"
    )
    return plan, seq, par


def assert_bitwise_equal(seq, par):
    np.testing.assert_array_equal(par.output_ids, seq.output_ids)
    for pv, sv in zip(par.chunk_values, seq.chunk_values):
        assert np.array_equal(pv, sv, equal_nan=True)
    for name in COUNTERS:
        assert getattr(par, name) == getattr(seq, name), name


@pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
class TestParallelBitwiseEqual:
    def test_sum(self, rng, strategy):
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=250)
        _, seq, par = run_both(chunks, mapping, grid, SumAggregation(1), strategy)
        assert_bitwise_equal(seq, par)


class TestParallelNaNAndTiling:
    def test_mean_with_empty_cells(self, rng):
        """Mean leaves NaN in untouched cells; equal_nan comparison must
        still be bitwise across the process boundary."""
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=250)
        _, seq, par = run_both(chunks, mapping, grid, MeanAggregation(1), "FRA")
        assert any(np.isnan(v).any() for v in seq.chunk_values)
        assert_bitwise_equal(seq, par)

    def test_forced_tiling(self, rng):
        """A 256-byte budget forces multi-tile plans; ghost transfers go
        over real queues and must still land bit-for-bit."""
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=250)
        plan, seq, par = run_both(
            chunks, mapping, grid, SumAggregation(1), "FRA", memory=256
        )
        assert plan.n_tiles > 1
        assert_bitwise_equal(seq, par)


class TestBackendSelection:
    def test_unknown_backend(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=100)
        spec = SumAggregation(1)
        prob = build_problem(chunks, mapping, grid, spec, 2, 1 << 14)
        plan = plan_query(prob, "FRA")
        with pytest.raises(ValueError, match="unknown backend"):
            execute_plan(plan, lambda i: chunks[i], mapping, grid, spec,
                         backend="threads")


class TestParallelFailureModes:
    @pytest.mark.parametrize("on_error", ["degrade", "raise"])
    def test_worker_closes_its_arena_after_a_failed_read(self, rng, capfd, on_error):
        """A read error held in a batch slot is in a reference cycle with
        frames that hold arena views; the worker still closes its
        shared memory cleanly."""
        from repro.faults import FaultInjector, FaultPlan

        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=100)
        spec = SumAggregation(1)
        plan = plan_query(build_problem(chunks, mapping, grid, spec, 2, 1 << 14), "FRA")
        by_id = {c.chunk_id: c for c in chunks}
        try:
            execute_plan(plan, by_id.__getitem__, mapping, grid, spec, backend="parallel",
                         on_error=on_error, fault_injector=FaultInjector(FaultPlan.corrupt_chunk(0)))
        except RuntimeError:
            assert on_error == "raise"
        assert "BufferError" not in capfd.readouterr().err

    def test_worker_error_propagates(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=100)
        spec = SumAggregation(1)
        prob = build_problem(chunks, mapping, grid, spec, 2, 1 << 14)
        plan = plan_query(prob, "FRA")

        def bad_provider(i):
            raise OSError(f"disk for chunk {i} is gone")

        with pytest.raises(RuntimeError, match="parallel worker"):
            execute_plan(plan, bad_provider, mapping, grid, spec,
                         backend="parallel")

    def test_killed_worker_fails_the_query(self, rng):
        """A worker that dies without reporting (``os._exit`` inside its
        chunk provider, inherited through fork) fails the query within
        seconds, leaving no child process and no shared-memory segment."""
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=100)
        spec = SumAggregation(1)
        plan = plan_query(build_problem(chunks, mapping, grid, spec, 2, 1 << 14), "FRA")
        victim = int(plan.problem.input_global_ids[plan.reads.chunk[0]])
        parent = os.getpid()

        def provider(i):
            if i == victim and os.getpid() != parent:
                os._exit(3)
            return chunks[i]

        segments = set(glob.glob("/dev/shm/psm_*"))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            execute_plan(plan, provider, mapping, grid, spec, backend="parallel")
        assert time.monotonic() - start < 5
        assert multiprocessing.active_children() == []
        assert set(glob.glob("/dev/shm/psm_*")) == segments

    def test_empty_plan_short_circuits(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=100)
        spec = SumAggregation(1)
        prob = PlanningProblem(
            n_procs=2,
            memory_per_proc=np.int64(1 << 14),
            inputs=make_chunkset(rng, 0, placed_on=2),
            outputs=make_chunkset(rng, 0, placed_on=2),
            graph=ChunkGraph(0, 0, np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64)),
        )
        plan = plan_query(prob, "FRA")
        result = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec,
                              backend="parallel")
        assert result.chunk_values == [] and result.n_reads == 0


class TestQueueTransport:
    def test_duplicate_key_is_refused(self):
        """A second payload under a key still stashed fails the receive
        instead of overwriting the first."""
        k1, k2 = message_key("seg", 0, 1), message_key("seg", 0, 2)
        inbox = queue.Queue()
        for item in ((k1, "a"), (k1, "b"), (k2, "c")):
            inbox.put(item)
        transport = QueueTransport(0, [inbox], queue.Queue())
        with pytest.raises(RuntimeError, match=r"\('seg', 0, 1\) twice"):
            transport.recv_segments(0, 0, 2)
