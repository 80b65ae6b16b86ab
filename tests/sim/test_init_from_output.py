"""Tests for the simulated initialization-from-output path (phase 1
retrieval + forwarding of existing output chunks)."""

import numpy as np

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.strategies import plan_da, plan_fra
from repro.sim.query_sim import simulate_query

from helpers import make_problem

MACHINE = MachineConfig(n_procs=3, memory_per_proc=1 << 20)
COSTS = ComputeCosts.from_ms(1, 5, 1, 1)


def paired_problems(rng):
    cold = make_problem(rng, n_procs=3, n_in=40, n_out=8, memory=1 << 20)
    warm = make_problem(
        np.random.default_rng(12345), n_procs=3, n_in=40, n_out=8, memory=1 << 20
    )
    warm.init_from_output = True
    return cold, warm


class TestInitFromOutput:
    def test_update_query_takes_longer(self, rng):
        cold, warm = paired_problems(rng)
        t_cold = simulate_query(plan_fra(cold), MACHINE, COSTS)
        t_warm = simulate_query(plan_fra(warm), MACHINE, COSTS)
        assert t_warm.phase_times["init"] > t_cold.phase_times["init"]
        assert t_warm.total_time > t_cold.total_time

    def test_extra_reads_are_the_output_chunks(self, rng):
        cold, warm = paired_problems(rng)
        r_cold = simulate_query(plan_fra(cold), MACHINE, COSTS)
        r_warm = simulate_query(plan_fra(warm), MACHINE, COSTS)
        extra = r_warm.read_bytes.sum() - r_cold.read_bytes.sum()
        assert extra == warm.outputs.nbytes.sum()

    def test_forwarding_to_ghost_holders_fra(self, rng):
        _, warm = paired_problems(rng)
        plan = plan_fra(warm)
        res = simulate_query(plan, MACHINE, COSTS)
        # init forwards output chunks owner -> every other holder, and
        # combine ships the same pairs back: sent bytes include both
        sent_plan, recv_plan = plan.comm_bytes_per_proc()
        assert res.sent_bytes.tolist() == sent_plan.tolist()
        assert res.recv_bytes.tolist() == recv_plan.tolist()
        assert len(plan.init_transfers) == len(plan.ghost_transfers)

    def test_da_update_has_no_init_forwarding(self, rng):
        _, warm = paired_problems(rng)
        plan = plan_da(warm)
        assert len(plan.init_transfers) == 0
        res = simulate_query(plan, MACHINE, COSTS)
        # still pays the owner-side output re-reads
        assert res.read_bytes.sum() > plan.total_read_bytes
