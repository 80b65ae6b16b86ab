"""Tests for bounded threaded read-ahead (:mod:`repro.store.prefetch`).

The pipeline's contract: read-ahead changes *when* chunks are fetched
(placement order, bounded look-ahead) but never *what* the query
answers -- results, counters and fault behavior are identical to the
synchronous path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.decluster.hilbert import HilbertDeclusterer
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.plan import FaultPlan
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_query
from repro.runtime.engine import execute_plan
from repro.store.prefetch import PrefetchPolicy, TilePrefetcher, read_batches

from helpers import make_functional_setup


def build_problem(chunks, mapping, grid, spec, n_procs, memory):
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


def make_plan(seed, n_procs=3, memory=256, strategy="FRA"):
    from repro.aggregation.functions import SumAggregation

    rng = np.random.default_rng(seed)
    spec = SumAggregation(1)
    _, _, chunks, mapping, grid = make_functional_setup(
        rng, n_items=200, items_per_chunk=10
    )
    prob = build_problem(chunks, mapping, grid, spec, n_procs, memory)
    return plan_query(prob, strategy), chunks, mapping, grid, spec


class TestPolicy:
    def test_coerce(self):
        assert PrefetchPolicy.coerce(None) is None
        assert PrefetchPolicy.coerce(False) is None
        assert PrefetchPolicy.coerce(True) == PrefetchPolicy()
        policy = PrefetchPolicy(depth=2, workers=3)
        assert PrefetchPolicy.coerce(policy) is policy

    def test_bad_values_rejected(self):
        with pytest.raises(TypeError):
            PrefetchPolicy.coerce(3)
        with pytest.raises(ValueError):
            PrefetchPolicy(depth=0)
        with pytest.raises(ValueError):
            PrefetchPolicy(workers=0)


class TestPlacementOrder:
    """read_batches issues each tile's reads in ``(node, disk, chunk
    id)`` placement order, and TilePrefetcher claims them in exactly
    that order."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        strategy=st.sampled_from(["FRA", "SRA", "DA", "HYBRID"]),
    )
    def test_batches_cover_reads_in_placement_order(self, seed, strategy):
        plan, chunks, _, _, _ = make_plan(seed, strategy=strategy)
        problem = plan.problem
        reads = plan.reads
        batches = read_batches(plan)
        assert len(batches) == plan.n_tiles
        seen = [r for batch in batches for (r, _) in batch]
        assert sorted(seen) == list(range(len(reads)))
        in_global = problem.input_global_ids
        for t, batch in enumerate(batches):
            keys = []
            for r, gid in batch:
                c = int(reads.chunk[r])
                assert int(reads.tile[r]) == t
                assert int(in_global[c]) == gid
                keys.append(
                    (int(problem.inputs.node[c]), int(problem.inputs.disk[c]), gid)
                )
            assert keys == sorted(keys)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), depth=st.integers(1, 8))
    def test_prefetcher_issues_in_batch_order(self, seed, depth):
        plan, chunks, _, _, _ = make_plan(seed, strategy="DA")
        batches = read_batches(plan)
        pf = TilePrefetcher(
            lambda gid: chunks[gid], batches, PrefetchPolicy(depth=depth, workers=2)
        )
        try:
            for t, batch in enumerate(batches):
                pf.begin_tile(t)
                for r, gid in batch:
                    assert pf.get(r) is chunks[gid]
        finally:
            pf.close()
        # Claims happen under the lock, strictly in flattened batch
        # order, regardless of worker count or depth.
        assert pf.reads_issued == [
            (t, r, gid) for t, batch in enumerate(batches) for (r, gid) in batch
        ]

    def test_rank_restriction(self):
        plan, _, _, _, _ = make_plan(11, strategy="FRA")
        reads = plan.reads
        mine = read_batches(plan, ranks=frozenset({0}))
        got = sorted(r for batch in mine for (r, _) in batch)
        want = sorted(
            r for r in range(len(reads)) if int(reads.proc[r]) == 0
        )
        assert got == want


class TestFaultSurfacing:
    """Injected read faults fire inside the prefetch thread but
    surface at consumption exactly as on the synchronous path."""

    def run(self, plan, chunks, mapping, grid, spec, **kw):
        return execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec, **kw
        )

    def test_degraded_result_identical(self):
        plan, chunks, mapping, grid, spec = make_plan(7)
        args = (plan, chunks, mapping, grid, spec)
        fplan = FaultPlan.flaky_read(chunk_id=0, times=None)
        sync = self.run(
            *args, on_error="degrade", fault_injector=FaultInjector(fplan)
        )
        pre = self.run(
            *args, on_error="degrade", fault_injector=FaultInjector(fplan),
            prefetch=PrefetchPolicy(depth=3, workers=2),
        )
        assert sorted(sync.chunk_errors) == [0]
        assert sorted(pre.chunk_errors) == sorted(sync.chunk_errors)
        assert pre.completeness == sync.completeness
        assert pre.n_reads == sync.n_reads
        assert pre.output_ids.tolist() == sync.output_ids.tolist()
        for pv, sv in zip(pre.chunk_values, sync.chunk_values):
            assert np.array_equal(pv, sv, equal_nan=True)

    def test_slow_read_in_fetch_thread_changes_nothing(self):
        plan, chunks, mapping, grid, spec = make_plan(7)
        args = (plan, chunks, mapping, grid, spec)
        clean = self.run(*args)
        stalled = self.run(
            *args,
            fault_injector=FaultInjector(FaultPlan.slow_read(0.02, times=3)),
            prefetch=PrefetchPolicy(depth=3, workers=2),
        )
        assert stalled.n_reads == clean.n_reads
        assert stalled.output_ids.tolist() == clean.output_ids.tolist()
        for pv, sv in zip(stalled.chunk_values, clean.chunk_values):
            assert np.array_equal(pv, sv, equal_nan=True)

    def test_raise_surfaces_injected_fault(self):
        plan, chunks, mapping, grid, spec = make_plan(7)
        fplan = FaultPlan.flaky_read(chunk_id=0, times=None)
        with pytest.raises(InjectedFault):
            self.run(
                plan, chunks, mapping, grid, spec,
                fault_injector=FaultInjector(fplan), prefetch=True,
            )


class TestLifecycle:
    def test_close_idempotent_and_pending_get_fails(self):
        batches = [[(0, 0)], [(1, 1)], [(2, 2)]]
        pf = TilePrefetcher(lambda gid: gid, batches, PrefetchPolicy(depth=1))
        pf.begin_tile(0)
        assert pf.get(0) == 0
        pf.close()
        pf.close()
        # Read 2 is two tiles beyond the consumer, so the one-tile-ahead
        # gate guarantees it was never claimed before the close.
        with pytest.raises(RuntimeError, match="closed"):
            pf.get(2)
