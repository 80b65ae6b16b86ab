"""Tests for the hybrid (graph-based) strategy."""

import networkx as nx
import pytest

from repro.emulator import SATEmulator
from repro.machine.presets import ibm_sp
from repro.planner.hybrid import chunk_multigraph, plan_hybrid
from repro.planner.stats import plan_stats
from repro.planner.strategies import plan_da, plan_fra
from repro.planner.validate import validate_plan
from repro.sim.query_sim import simulate_query

from helpers import SMALL_COSTS, make_problem, small_machine


@pytest.fixture
def problem(rng):
    return make_problem(rng, n_procs=4, n_in=60, n_out=10, memory=400_000)


class TestHybridPlan:
    def test_validates(self, problem):
        validate_plan(plan_hybrid(problem))

    def test_with_machine_costs(self, problem):
        plan = plan_hybrid(problem, small_machine(), SMALL_COSTS)
        validate_plan(plan)
        assert plan.strategy == "HYBRID"

    def test_every_edge_assigned(self, problem):
        plan = plan_hybrid(problem)
        assert plan_stats(plan).reduction_pairs.sum() == problem.graph.n_edges

    def test_between_extremes_in_ghosts(self, problem):
        hybrid = plan_hybrid(problem)
        fra = plan_fra(problem)
        da = plan_da(problem)
        assert da.ghost_count <= hybrid.ghost_count <= fra.ghost_count

    def test_competitive_on_emulated_workload(self):
        """Hybrid should land near (or below) the better extreme."""
        sc = SATEmulator(base_chunks=2000).scenario(2, seed=5)
        m = ibm_sp(8)
        prob = sc.problem(m)
        times = {}
        for name, planner in (
            ("FRA", plan_fra),
            ("DA", plan_da),
            ("HYBRID", lambda p: plan_hybrid(p, m, sc.costs)),
        ):
            plan = planner(prob)
            validate_plan(plan)
            times[name] = simulate_query(plan, m, sc.costs).total_time
        best = min(times["FRA"], times["DA"])
        assert times["HYBRID"] <= 1.25 * best, times


class TestChunkMultigraph:
    def test_structure(self, problem):
        g = chunk_multigraph(problem)
        assert isinstance(g, nx.Graph)
        assert g.number_of_nodes() == problem.n_in + problem.n_out
        assert g.number_of_edges() == problem.graph.n_edges
        assert nx.is_bipartite(g)

    def test_node_attributes(self, problem):
        g = chunk_multigraph(problem)
        n = ("in", 0)
        assert g.nodes[n]["bytes"] == int(problem.inputs.nbytes[0])
        assert g.nodes[n]["proc"] == int(problem.input_owner[0])
