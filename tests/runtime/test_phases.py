"""Tests for the phase pipeline (:mod:`repro.runtime.phases`).

These pin the executor's contract -- counters, ``phase_times`` key
set, batch bounds that change nothing, every segment applied where the
plan put its edge -- and that the simulator prices literally the same
:class:`PhaseSchedule` arrays the executor walks.
"""

import numpy as np
import pytest

from repro.aggregation.accumulator import AccumulatorSet
from repro.aggregation.extra import VarianceAggregation
from repro.aggregation.functions import BestValueComposite, MeanAggregation
from repro.planner.strategies import plan_query
from repro.faults import FaultPlan
from repro.runtime import phases
from repro.runtime.engine import BatchReader, execute_plan
from repro.runtime.phases import PHASES, PhaseExecutor, PhaseSchedule
from repro.runtime.serial import execute_serial
from repro.store.format import CorruptChunkError

from helpers import SMALL_COSTS, build_problem, faulty_reader, make_functional_setup, small_machine

COUNTERS = ("n_reads", "bytes_read", "n_aggregations", "n_combines")
#: the executor's own methods, which :func:`run_bounded` wraps afresh per run
REDUCE_BATCH, APPLY = PhaseExecutor._reduce_batch, PhaseExecutor._apply


@pytest.fixture
def workload(rng):
    spec = MeanAggregation(1)
    _, _, chunks, mapping, grid = make_functional_setup(rng)
    prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=256)
    return chunks, mapping, grid, spec, prob


class TestReadAhead:
    def test_read_ahead_request_raises(self, workload):
        """Execution reads synchronously; ``prefetch`` survives only as
        a keyword that must stay unset."""
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "FRA")
        with pytest.raises(ValueError, match="prefetch"):
            execute_plan(plan, lambda i: chunks[i], mapping, grid, spec, prefetch=True)
        res = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec, prefetch=None
        )
        assert res.n_reads > 0
        assert sorted(res.phase_times) == sorted(PHASES)


def planned_recipients(plan, r):
    """The processors read *r* forwards to, straight from the plan
    tables: the distinct ``edge_proc`` of the read's active edges (those
    into its tile's outputs), ascending, other than its reader."""
    reads = plan.reads
    fwd_indptr, fwd_ids = plan.problem.graph.forward_csr
    i = int(reads.chunk[r])
    lo, hi = fwd_indptr[i], fwd_indptr[i + 1]
    active = plan.tile_of_output[fwd_ids[lo:hi]] == int(reads.tile[r])
    procs = np.unique(plan.edge_proc[lo:hi][active]).tolist()
    return [q for q in procs if q != int(reads.proc[r])]


class TestPhaseSchedule:
    def test_cached_on_plan(self, workload):
        *_, prob = workload
        plan = plan_query(prob, "FRA")
        assert plan.schedule() is plan.schedule()

    def test_tile_slices_and_tallies(self, workload):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "SRA")
        sched = plan.schedule()
        assert isinstance(sched, PhaseSchedule)
        # cu arrays are tile-sorted and sliced by cu_bounds.
        assert np.all(np.diff(sched.cu_tile) >= 0)
        assert sched.cu_bounds[0] == 0 and sched.cu_bounds[-1] == len(sched.cu_tile)
        assert int(sched.cu_pairs.sum()) == len(plan.edge_arrays[0])
        # init_counts tallies every holder (owner + ghosts) once.
        assert int(sched.init_counts.sum()) == len(plan.holders_ids)
        # Every scheduled read appears in exactly one tile's slice.
        got = np.concatenate(
            [sched.reads_of(t) for t in range(plan.n_tiles)]
        )
        assert sorted(got.tolist()) == list(range(len(plan.reads)))


class TestSimulatorSharesSchedule:
    def test_sim_prices_the_executed_schedule(self, workload):
        from repro.sim.query_sim import _QuerySim

        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "FRA")
        sim = _QuerySim(
            plan, small_machine(n_procs=prob.n_procs), SMALL_COSTS,
            seed=0, overlap=True,
        )
        sched = plan.schedule()
        # Identity, not equality: the simulator walks the very arrays
        # the executor walks.
        assert sim.cu_tile is sched.cu_tile
        assert sim.cu_pairs is sched.cu_pairs
        assert sim.init_counts is sched.init_counts
        assert sim.gt_bounds is sched.gt_bounds
        assert sim.oh_bounds is sched.out_bounds


class TestCounterContract:
    def test_sequential_counters(self, workload):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "FRA")
        res = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        assert res.n_reads == len(plan.reads)
        per_read = prob.inputs.nbytes[plan.reads.chunk]
        assert res.bytes_read == int(per_read.sum())
        assert res.n_combines == len(plan.ghost_transfers.tile)
        assert res.completeness == 1.0 and not res.chunk_errors

    def test_spec_without_prereduce_matches_too(self, rng, monkeypatch):
        """Aggregations without a pre-reduction (variance, best value)
        take the executor's fallback -- one scalar ``aggregate`` per
        applied segment -- and still match the serial oracle."""
        calls = []
        scalar = AccumulatorSet.aggregate

        def counted(self, *args):
            calls.append(args[0])
            scalar(self, *args)

        monkeypatch.setattr(AccumulatorSet, "aggregate", counted)
        for spec in (VarianceAggregation(1), BestValueComposite(2)):
            _, _, chunks, mapping, grid = make_functional_setup(
                rng, value_components=spec.value_components
            )
            prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=512)
            plan = plan_query(prob, "FRA")
            calls.clear()
            seq = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
            assert len(calls) == seq.n_aggregations > 0, type(spec).__name__
            serial = execute_serial(chunks, mapping, grid, spec)
            for o, vals in zip(seq.output_ids.tolist(), seq.chunk_values):
                np.testing.assert_allclose(vals, serial[o], err_msg=type(spec).__name__)


def run_bounded(monkeypatch, bound, plan, chunks, mapping, grid, spec, faults=None, **kwargs):
    """``execute_plan`` with the reduce batch bound at *bound* bytes,
    reading through the fault-injecting store stack when *faults* is
    given; returns the result, the sizes of the batches the executor
    reduced, every segment it applied in order as ``(rank, edge, kind,
    output chunk, cell bytes, payload bytes)`` and the global chunk ids
    of each provider call, in order."""
    sizes, applied, reads = [], [], []

    def counting(self, t, batch):
        sizes.append(len(batch))
        return REDUCE_BATCH(self, t, batch)

    def logged(self, rank, edge, kind, o, cell_idx, payload):
        applied.append((rank, edge, kind, o, cell_idx.tobytes(), payload.tobytes()))
        return APPLY(self, rank, edge, kind, o, cell_idx, payload)

    monkeypatch.setattr(phases, "_BATCH_BYTES", bound)
    monkeypatch.setattr(PhaseExecutor, "_reduce_batch", counting)
    monkeypatch.setattr(PhaseExecutor, "_apply", logged)

    read = (
        (lambda ids: [chunks[i] for i in ids]) if faults is None
        else faulty_reader(chunks, faults).read
    )

    def provider(ids):
        reads.append(list(ids))
        return read(ids)

    res = execute_plan(plan, BatchReader(provider), mapping, grid, spec, **kwargs)
    return res, sizes, applied, reads


def assert_same_result(res, ref):
    assert res.output_ids.tolist() == ref.output_ids.tolist()
    for o, rv, sv in zip(ref.output_ids, res.chunk_values, ref.chunk_values):
        assert np.array_equal(rv, sv, equal_nan=True), f"chunk {int(o)}"
    for counter in COUNTERS + ("chunk_errors",):
        assert getattr(res, counter) == getattr(ref, counter), counter


def mid_batch_read(plan, forwarding=False):
    """A read in the middle of tile 0's schedule (one batch under the
    default bound), optionally one with forwarding recipients."""
    sched = plan.schedule()
    reads = sched.reads_of(0).tolist()
    inner = [r for r in reads[1:-1] if planned_recipients(plan, r) or not forwarding]
    assert inner, "tile 0 needs an inner read"
    return inner[len(inner) // 2]


class TestReduceBatches:
    """Local Reduction fetches a run of reads, groups it with one sort,
    then applies read by read: how the tile's reads are cut into
    batches must be invisible -- in the values, the counters and the
    order of every applied segment."""

    @pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
    def test_batch_bound_is_invisible(self, monkeypatch, workload, strategy):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, strategy)
        assert plan.n_tiles > 1
        args = (plan, chunks, mapping, grid, spec)
        two = 2 * int(prob.inputs.nbytes.max())
        whole, sizes, applied, reads = run_bounded(monkeypatch, float("inf"), *args)
        tile_reads = [len(plan.schedule().reads_of(t)) for t in range(plan.n_tiles)]
        assert sizes == [n for n in tile_reads if n] and max(sizes) > 2
        for bound, largest in ((0, 1), (two, 2)):
            res, sizes, other, other_reads = run_bounded(monkeypatch, bound, *args)
            assert max(sizes) == largest and sum(sizes) == len(plan.reads)
            assert_same_result(res, whole)
            # One provider call per batch; cut differently, the same
            # chunks are read in the same order.
            assert [len(ids) for ids in other_reads] == sizes
            assert sum(other_reads, []) == sum(reads, [])
            assert other == applied
        assert sum(reads, []) == [
            int(prob.input_global_ids[plan.reads.chunk[r]])
            for t in range(plan.n_tiles) for r in plan.schedule().reads_of(t)
        ]
        # Every segment lands on the processor the plan assigned its
        # edge to; one that leaves its reader goes to a recipient the
        # plan's edge assignment implies for that read.
        read_of = np.searchsorted(
            plan.reads.tile * prob.n_in + plan.reads.chunk,
            plan.edge_tile * prob.n_in + plan.edge_arrays[0],
        )
        forwarded = 0
        for rank, edge, *_ in applied:
            r = int(read_of[edge])
            assert rank == plan.edge_proc[edge]
            if rank != plan.reads.proc[r]:
                forwarded += 1
                assert rank in planned_recipients(plan, r)
        assert (forwarded > 0) == any(planned_recipients(plan, r) for r in range(len(plan.reads)))

    def test_degraded_read_inside_a_batch_applies_nothing(self, monkeypatch, workload):
        """A degraded read in the middle of a batch -- one whose items
        the plan forwards -- drops exactly its own segments: everything
        else is applied as in the clean run, in the same order."""
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "DA")
        victim_read = mid_batch_read(plan, forwarding=True)
        victim = int(plan.reads.chunk[victim_read])
        args = (monkeypatch, float("inf"), plan, chunks, mapping, grid, spec)
        _, _, clean, _ = run_bounded(*args)
        res, _, applied, _ = run_bounded(
            *args, on_error="degrade", faults=FaultPlan.corrupt_chunk(victim),
        )
        assert set(res.chunk_errors) == {victim}
        edge_in = plan.edge_arrays[0]
        kept = [c for c in clean if edge_in[c[1]] != victim]
        assert applied == kept and len(kept) < len(clean)

    def test_failed_read_inside_a_batch_raises_its_own_error(self, workload):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "DA")
        victim = int(plan.reads.chunk[mid_batch_read(plan)])
        with pytest.raises(CorruptChunkError, match="CRC"):
            execute_plan(
                plan, faulty_reader(chunks, FaultPlan.corrupt_chunk(victim)),
                mapping, grid, spec,
            )
