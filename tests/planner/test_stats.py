"""Tests for plan statistics: conservation laws and known totals."""

import pytest

from repro.planner.stats import plan_stats
from repro.planner.strategies import plan_da, plan_fra, plan_query, plan_sra

from helpers import make_problem


@pytest.fixture
def problem(rng):
    return make_problem(rng, n_procs=4, n_in=100, n_out=12, memory=300_000)


@pytest.mark.parametrize("name", ["FRA", "SRA", "DA", "HYBRID"])
class TestConservation:
    def test_every_edge_reduced_exactly_once(self, problem, name):
        st = plan_stats(plan_query(problem, name))
        assert st.reduction_pairs.sum() == problem.graph.n_edges

    def test_sent_equals_received(self, problem, name):
        st = plan_stats(plan_query(problem, name))
        assert st.sent_bytes.sum() == st.recv_bytes.sum()

    def test_read_bytes_match_plan(self, problem, name):
        plan = plan_query(problem, name)
        st = plan_stats(plan)
        assert st.read_bytes.sum() == plan.total_read_bytes

    def test_outputs_once_each(self, problem, name):
        st = plan_stats(plan_query(problem, name))
        assert st.output_chunks.sum() == problem.n_out

    def test_write_bytes(self, problem, name):
        st = plan_stats(plan_query(problem, name))
        assert st.write_bytes.sum() == problem.outputs.nbytes.sum()


class TestStrategySpecificTotals:
    def test_fra_init_allocations(self, problem):
        st = plan_stats(plan_fra(problem))
        assert st.init_chunks.sum() == problem.n_out * problem.n_procs

    def test_da_init_allocations(self, problem):
        st = plan_stats(plan_da(problem))
        assert st.init_chunks.sum() == problem.n_out
        assert st.combine_ops.sum() == 0

    def test_fra_combine_ops(self, problem):
        st = plan_stats(plan_fra(problem))
        assert st.combine_ops.sum() == problem.n_out * (problem.n_procs - 1)

    def test_sra_comm_at_most_fra(self, problem):
        fra = plan_stats(plan_fra(problem))
        sra = plan_stats(plan_sra(problem))
        assert sra.sent_bytes.sum() <= fra.sent_bytes.sum()

    def test_da_comm_is_input_forwarding_only(self, problem):
        plan = plan_da(problem)
        st = plan_stats(plan)
        assert st.sent_bytes.sum() == plan.input_transfers.total_bytes(
            problem.inputs.nbytes
        )

    def test_load_imbalance_at_least_one(self, problem):
        for name in ("FRA", "DA"):
            assert plan_stats(plan_query(problem, name)).load_imbalance >= 1.0
