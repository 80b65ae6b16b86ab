"""Tests for the query execution simulator.

The micro-scenarios have hand-computable exact times, which pins the
phase semantics (dependencies, pipelining, store-and-forward
messaging) rather than just "some number came out".
"""

import numpy as np
import pytest

from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_da, plan_fra, plan_query
from repro.sim.query_sim import simulate_query

from helpers import make_problem


def micro_problem(
    n_procs=1,
    in_bytes=(1000,),
    in_owner=(0,),
    out_bytes=(500,),
    out_owner=(0,),
    edges=((0, 0),),
    acc_bytes=None,
    memory=1 << 30,
):
    n_in, n_out = len(in_bytes), len(out_bytes)
    in_los = np.arange(n_in, dtype=float)[:, None] * np.ones(2)
    out_los = np.arange(n_out, dtype=float)[:, None] * np.ones(2)
    inputs = ChunkSet(
        in_los, in_los + 0.5, np.asarray(in_bytes, dtype=np.int64),
        node=np.asarray(in_owner, dtype=np.int32), disk=np.zeros(n_in, dtype=np.int32),
    )
    outputs = ChunkSet(
        out_los, out_los + 0.5, np.asarray(out_bytes, dtype=np.int64),
        node=np.asarray(out_owner, dtype=np.int32), disk=np.zeros(n_out, dtype=np.int32),
    )
    e_in = np.asarray([e[0] for e in edges], dtype=np.int64)
    e_out = np.asarray([e[1] for e in edges], dtype=np.int64)
    graph = ChunkGraph(n_in, n_out, e_in, e_out)
    return PlanningProblem(
        n_procs=n_procs,
        memory_per_proc=np.int64(memory),
        inputs=inputs,
        outputs=outputs,
        graph=graph,
        acc_nbytes=np.asarray(acc_bytes, dtype=np.int64) if acc_bytes else None,
    )


MACHINE = MachineConfig(
    n_procs=1,
    memory_per_proc=1 << 30,
    disk_bandwidth=1000.0,  # 1000 B/s: times read directly off byte counts
    disk_seek=0.5,
    link_bandwidth=2000.0,
    link_latency=0.25,
)
COSTS = ComputeCosts(init=0.1, reduction=2.0, combine=0.3, output=0.7)


class TestExactTimes:
    def test_single_proc_single_chunk(self):
        prob = micro_problem()
        plan = plan_fra(prob)
        res = simulate_query(plan, MACHINE, COSTS)
        # init 0.1; LR: seek 0.5 + 1000/1000 + reduce 2.0; GC none;
        # OH: 0.7 cpu + seek 0.5 + 500/1000 write
        expected = 0.1 + (0.5 + 1.0 + 2.0) + (0.7 + 0.5 + 0.5)
        assert res.total_time == pytest.approx(expected)
        assert res.phase_times["init"] == pytest.approx(0.1)
        assert res.phase_times["reduction"] == pytest.approx(3.5)
        assert res.phase_times["combine"] == pytest.approx(0.0)
        assert res.phase_times["output"] == pytest.approx(1.7)

    def test_pipelining_overlaps_read_and_compute(self):
        # Two chunks: reads serialize on the disk; compute of chunk 1
        # overlaps the read of chunk 2.
        prob = micro_problem(in_bytes=(1500, 1500), in_owner=(0, 0),
                             edges=((0, 0), (1, 0)))
        plan = plan_fra(prob)
        res = simulate_query(plan, MACHINE, COSTS)
        read = 0.5 + 1.5
        # LR = read1 + read2 + compute2 (compute1 hidden under read2)
        assert res.phase_times["reduction"] == pytest.approx(2 * read + 2.0)

    def test_overlap_false_serializes_reads_before_compute(self):
        prob = micro_problem(in_bytes=(1500, 1500), in_owner=(0, 0),
                             edges=((0, 0), (1, 0)))
        plan = plan_fra(prob)
        res = simulate_query(plan, MACHINE, COSTS, overlap=False)
        read = 0.5 + 1.5
        assert res.phase_times["reduction"] == pytest.approx(2 * read + 2 * 2.0)

    def test_da_remote_forwarding_chain(self):
        # Input on proc 0, output owned by proc 1: read, send, receive,
        # reduce at 1.
        prob = micro_problem(
            n_procs=2, in_owner=(0,), out_owner=(1,), in_bytes=(1000,)
        )
        plan = plan_da(prob)
        machine = MachineConfig(
            n_procs=2, memory_per_proc=1 << 30,
            disk_bandwidth=1000.0, disk_seek=0.5,
            link_bandwidth=2000.0, link_latency=0.25,
        )
        res = simulate_query(plan, machine, COSTS)
        lr = (0.5 + 1.0) + 0.5 + 0.25 + 0.5 + 2.0  # read, out-chan, latency, in-chan, reduce
        oh = 0.7 + 0.5 + 0.5
        assert res.total_time == pytest.approx(0.1 + lr + oh)
        assert res.sent_bytes.tolist() == [1000, 0]
        assert res.recv_bytes.tolist() == [0, 1000]

    def test_fra_ghost_combine_chain(self):
        # Two procs; input lives on proc 1 but output owned by proc 0:
        # FRA reduces on 1 into a ghost, then ships acc (800 B) to 0.
        prob = micro_problem(
            n_procs=2, in_owner=(1,), out_owner=(0,), acc_bytes=(800,)
        )
        plan = plan_fra(prob)
        machine = MachineConfig(
            n_procs=2, memory_per_proc=1 << 30,
            disk_bandwidth=1000.0, disk_seek=0.5,
            link_bandwidth=2000.0, link_latency=0.25,
        )
        res = simulate_query(plan, machine, COSTS)
        init = 0.1  # both procs initialize in parallel
        lr = 0.5 + 1.0 + 2.0
        gc = 0.4 + 0.25 + 0.4 + 0.3  # 800 B both channels + combine
        oh = 0.7 + 0.5 + 0.5
        assert res.total_time == pytest.approx(init + lr + gc + oh)
        assert res.phase_times["combine"] == pytest.approx(gc)


class TestConservation:
    @pytest.mark.parametrize("name", ["FRA", "SRA", "DA", "HYBRID"])
    def test_bytes_match_plan(self, rng, name):
        prob = make_problem(rng, n_procs=4, n_in=60, n_out=10, memory=300_000)
        plan = plan_query(prob, name)
        machine = MachineConfig(n_procs=4, memory_per_proc=300_000)
        res = simulate_query(plan, machine, ComputeCosts.from_ms(1, 5, 1, 1))
        assert res.read_bytes.sum() == plan.total_read_bytes
        sent, recv = plan.comm_bytes_per_proc()
        assert res.sent_bytes.tolist() == sent.tolist()
        assert res.recv_bytes.tolist() == recv.tolist()

    def test_proc_count_mismatch_rejected(self, rng):
        prob = make_problem(rng, n_procs=4)
        plan = plan_fra(prob)
        with pytest.raises(ValueError, match="processors"):
            simulate_query(plan, MachineConfig(n_procs=2, memory_per_proc=1 << 20), COSTS)


class TestJitter:
    def make(self, rng, sigma):
        prob = make_problem(rng, n_procs=4, n_in=80, n_out=8, memory=400_000)
        plan = plan_fra(prob)
        machine = MachineConfig(n_procs=4, memory_per_proc=400_000, io_jitter=sigma)
        return plan, machine

    def test_seed_reproducible(self, rng):
        plan, machine = self.make(rng, 0.5)
        a = simulate_query(plan, machine, COSTS, seed=7).total_time
        b = simulate_query(plan, machine, COSTS, seed=7).total_time
        assert a == b

    def test_different_seeds_differ(self, rng):
        plan, machine = self.make(rng, 0.5)
        a = simulate_query(plan, machine, COSTS, seed=1).total_time
        b = simulate_query(plan, machine, COSTS, seed=2).total_time
        assert a != b

    def test_zero_jitter_deterministic_across_seeds(self, rng):
        plan, machine = self.make(rng, 0.0)
        a = simulate_query(plan, machine, COSTS, seed=1).total_time
        b = simulate_query(plan, machine, COSTS, seed=2).total_time
        assert a == b

    def test_jitter_slows_io_bound_runs_on_average(self, rng):
        # With zero compute cost the run is disk-bound, so the max over
        # parallel jittered disks exceeds the jitter-free time.
        import dataclasses

        plan, machine0 = self.make(rng, 0.0)
        zero = ComputeCosts(0, 0, 0, 0)
        base = simulate_query(plan, machine0, zero).total_time
        machine1 = dataclasses.replace(machine0, io_jitter=1.0)
        times = [simulate_query(plan, machine1, zero, seed=s).total_time for s in range(5)]
        assert np.mean(times) > base


class TestOverlapAblation:
    @pytest.mark.parametrize("name", ["FRA", "DA"])
    def test_overlap_never_slower(self, rng, name):
        prob = make_problem(rng, n_procs=4, n_in=100, n_out=10, memory=300_000)
        plan = plan_query(prob, name)
        machine = MachineConfig(n_procs=4, memory_per_proc=300_000)
        costs = ComputeCosts.from_ms(1, 5, 1, 1)
        with_overlap = simulate_query(plan, machine, costs).total_time
        without = simulate_query(plan, machine, costs, overlap=False).total_time
        assert with_overlap <= without + 1e-9


class TestResultObject:
    def test_row_and_metrics(self, rng):
        prob = make_problem(rng, n_procs=2)
        plan = plan_fra(prob)
        machine = MachineConfig(n_procs=2, memory_per_proc=1 << 20)
        res = simulate_query(plan, machine, COSTS)
        assert "FRA" in res.row()
        assert res.computation_time >= float(res.cpu_busy.mean()) >= 0
        assert res.comm_volume_per_proc >= 0
        assert res.n_tiles == plan.n_tiles
