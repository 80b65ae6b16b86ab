"""Tests for the unified phase pipeline (:mod:`repro.runtime.phases`).

One :class:`PhaseExecutor` serves every backend; these tests pin the
cross-backend contract: the sequential and parallel backends agree
bit for bit -- values, counters and ``phase_times`` key set --
and the simulator prices literally the same :class:`PhaseSchedule`
arrays the functional backends execute.
"""

import numpy as np
import pytest

from repro.aggregation.accumulator import AccumulatorSet
from repro.aggregation.extra import VarianceAggregation
from repro.aggregation.functions import BestValueComposite, MeanAggregation
from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.decluster.hilbert import HilbertDeclusterer
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_query
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import engine, phases
from repro.runtime.engine import BatchReader, execute_plan
from repro.runtime.phases import PHASES, PhaseExecutor, PhaseSchedule
from repro.runtime.transport import InprocTransport
from repro.store.format import CorruptChunkError

from helpers import SMALL_COSTS, make_functional_setup, small_machine

COUNTERS = ("n_reads", "bytes_read", "n_aggregations", "n_combines")


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


@pytest.fixture
def workload(rng):
    spec = MeanAggregation(1)
    _, _, chunks, mapping, grid = make_functional_setup(rng)
    prob = build_problem(chunks, mapping, grid, spec, n_procs=3, memory=256)
    return chunks, mapping, grid, spec, prob


class TestBackendEquivalence:
    """The tentpole invariant: hosting is invisible."""

    @pytest.mark.parametrize("strategy", ["FRA", "DA"])
    @pytest.mark.parametrize("backend", ["parallel"])
    def test_bitwise_equal(self, workload, strategy, backend):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, strategy)
        assert plan.n_tiles > 1  # memory chosen to force real tiling
        seq = execute_plan(plan, lambda i: chunks[i], mapping, grid, spec)
        res = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec,
            backend=backend,
        )
        assert_same_result(res, seq)
        assert sorted(res.phase_times) == sorted(PHASES)
        assert sorted(seq.phase_times) == sorted(PHASES)

    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_read_ahead_request_raises(self, workload, backend):
        """Execution reads synchronously; ``prefetch`` survives only as
        a keyword that must stay unset."""
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "FRA")
        with pytest.raises(ValueError, match="prefetch"):
            execute_plan(
                plan, lambda i: chunks[i], mapping, grid, spec,
                backend=backend, prefetch=True,
            )
        res = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec, prefetch=None
        )
        assert res.n_reads > 0


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

    def test_recipients_match_edge_assignment(self, workload):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "DA")
        sched = plan.schedule()
        reads = plan.reads
        fwd_indptr, fwd_ids = prob.graph.forward_csr
        assert len(sched.recipients) == len(reads)
        for r in range(len(reads)):
            i = int(reads.chunk[r])
            lo, hi = fwd_indptr[i], fwd_indptr[i + 1]
            active = plan.tile_of_output[fwd_ids[lo:hi]] == int(reads.tile[r])
            want = set(np.unique(plan.edge_proc[lo:hi][active]).tolist())
            want.discard(int(reads.proc[r]))
            assert set(sched.recipients[r].tolist()) == want


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
        # the functional backends execute.
        assert sim.cu_tile is sched.cu_tile
        assert sim.cu_pairs is sched.cu_pairs
        assert sim.init_counts is sched.init_counts
        assert sim.gt_bounds is sched.tiles.gt_bounds
        assert sim.oh_bounds is sched.tiles.out_bounds


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
        applied segment -- and both backends agree on it bit for bit."""
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
            par = execute_plan(
                plan, lambda i: chunks[i], mapping, grid, spec, backend="parallel"
            )
            assert par.output_ids.tolist() == seq.output_ids.tolist()
            for a, b in zip(par.chunk_values, seq.chunk_values):
                assert np.array_equal(a, b, equal_nan=True), type(spec).__name__
            for counter in COUNTERS:
                assert getattr(par, counter) == getattr(seq, counter), counter


class LoggingTransport(InprocTransport):
    """An :class:`InprocTransport` that writes down what it is asked:
    ``calls`` is every message operation in order, payload bytes
    included (taken at the call: ghosts travel by reference)."""

    created = []

    def __init__(self):
        super().__init__()
        self.calls = []
        LoggingTransport.created.append(self)

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.split("_")[0] not in ("send", "recv", "emit"):
            return attr

        def logged(*args):
            seen = [
                [(kind, o, idx.tobytes(), rows.tobytes()) for kind, o, idx, rows in a]
                if isinstance(a, list) else a.tobytes() if isinstance(a, np.ndarray) else a
                for a in args
            ]
            self.calls.append((name, *seen))
            return attr(*args)

        return logged


def run_bounded(monkeypatch, bound, plan, chunks, mapping, grid, spec, **kwargs):
    """``execute_plan`` with the reduce batch bound at *bound* bytes;
    returns the result, the sizes of the batches the (sequential)
    executor reduced, its transport log and the global chunk ids of
    each provider call, in order."""
    sizes, reads = [], []
    reduce_batch = PhaseExecutor._reduce_batch

    def counting(self, t, batch):
        sizes.append(len(batch))
        return reduce_batch(self, t, batch)

    monkeypatch.setattr(phases, "_BATCH_BYTES", bound)
    monkeypatch.setattr(PhaseExecutor, "_reduce_batch", counting)
    monkeypatch.setattr(engine, "InprocTransport", LoggingTransport)
    LoggingTransport.created.clear()

    def provider(ids):
        reads.append(list(ids))
        return [chunks[i] for i in ids]

    res = execute_plan(plan, BatchReader(provider), mapping, grid, spec, **kwargs)
    log = LoggingTransport.created[-1] if LoggingTransport.created else None
    return res, sizes, log, reads


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
    inner = [r for r in reads[1:-1] if len(sched.recipients[r]) or not forwarding]
    assert inner, "tile 0 needs an inner read"
    return inner[len(inner) // 2]


class TestReduceBatches:
    """Local Reduction fetches a run of reads, groups it with one sort,
    then applies read by read: how the tile's reads are cut into
    batches must be invisible -- in the values, the counters and the
    order of every transport call."""

    @pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
    def test_batch_bound_is_invisible(self, monkeypatch, workload, strategy):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, strategy)
        assert plan.n_tiles > 1
        args = (plan, chunks, mapping, grid, spec)
        two = 2 * int(prob.inputs.nbytes.max())
        whole, sizes, log, reads = run_bounded(monkeypatch, float("inf"), *args)
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
            assert other.calls == log.calls
            par, *_ = run_bounded(monkeypatch, bound, *args, backend="parallel")
            assert_same_result(par, whole)
        assert sum(reads, []) == [
            int(prob.input_global_ids[plan.reads.chunk[r]])
            for t in range(plan.n_tiles) for r in plan.schedule().reads_of(t)
        ]
        par, *_ = run_bounded(monkeypatch, float("inf"), *args, backend="parallel")
        assert_same_result(par, whole)
        # The log is the message flow the schedule states, rank by rank.
        flow = plan.schedule().message_flow()
        sent = [(c[0], c[2], c[3], c[1]) for c in log.calls if c[0] == "send_segments"]
        assert sent == [
            ("send_segments", t, r, q)
            for p, kind, t, r, q in sorted(flow.sends(), key=lambda s: (s[2], s[3]))
            if kind == "seg"
        ]

    def test_degraded_read_inside_a_batch_ships_empty_messages(self, monkeypatch, workload):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "DA")
        victim_read = mid_batch_read(plan, forwarding=True)
        victim = int(plan.reads.chunk[victim_read])
        inject = lambda: FaultInjector(FaultPlan.corrupt_chunk(victim))  # noqa: E731
        seq, _, log, _ = run_bounded(
            monkeypatch, float("inf"), plan, chunks, mapping, grid, spec,
            on_error="degrade", fault_injector=inject(),
        )
        assert set(seq.chunk_errors) == {victim}
        shipped = {
            c[1]: c[4] for c in log.calls
            if c[0] == "send_segments" and c[3] == victim_read
        }
        recipients = plan.schedule().recipients[victim_read].tolist()
        assert shipped == {q: [] for q in recipients} and recipients
        # The peers of a worker host block on those messages: a parallel
        # run that finishes, bit-identically, received every one.
        par = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec, backend="parallel",
            on_error="degrade", fault_injector=inject(),
        )
        assert_same_result(par, seq)

    def test_failed_read_inside_a_batch_raises_its_own_error(self, workload):
        chunks, mapping, grid, spec, prob = workload
        plan = plan_query(prob, "DA")
        victim = int(plan.reads.chunk[mid_batch_read(plan)])
        with pytest.raises(CorruptChunkError, match="CRC"):
            execute_plan(
                plan, lambda i: chunks[i], mapping, grid, spec,
                fault_injector=FaultInjector(FaultPlan.corrupt_chunk(victim)),
            )
