"""Tests for query-plan persistence (the planning service's cache)."""

import pickle

import numpy as np
import pytest

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.costmodel import CostModel
from repro.planner.plan import QueryPlan
from repro.planner.select import choose_strategy
from repro.planner.strategies import plan_da, plan_fra
from repro.planner.validate import PlanValidationError
from repro.sim.query_sim import simulate_query

from helpers import make_problem

COSTS = ComputeCosts.from_ms(1, 4, 1, 1)


class TestPlanPersistence:
    def test_roundtrip_preserves_structure(self, rng, tmp_path):
        prob = make_problem(rng, n_procs=3, n_in=60, n_out=10, memory=300_000)
        plan = plan_fra(prob)
        path = tmp_path / "q1.plan"
        plan.save(path)
        loaded = QueryPlan.load(path)
        assert loaded.strategy == plan.strategy
        assert loaded.n_tiles == plan.n_tiles
        assert loaded.tile_of_output.tolist() == plan.tile_of_output.tolist()
        assert loaded.holders_ids.tolist() == plan.holders_ids.tolist()
        assert loaded.edge_proc.tolist() == plan.edge_proc.tolist()

    def test_loaded_plan_simulates_identically(self, rng, tmp_path):
        prob = make_problem(rng, n_procs=3)
        plan = plan_da(prob)
        path = tmp_path / "q.plan"
        plan.save(path)
        loaded = QueryPlan.load(path)
        machine = MachineConfig(n_procs=3, memory_per_proc=1 << 20)
        a = simulate_query(plan, machine, COSTS)
        b = simulate_query(loaded, machine, COSTS)
        assert a.total_time == b.total_time
        assert a.sent_bytes.tolist() == b.sent_bytes.tolist()

    def test_derived_traffic_rebuilt_after_load(self, rng, tmp_path):
        prob = make_problem(rng, n_procs=3)
        plan = plan_fra(prob)
        _ = plan.reads, plan.ghost_transfers  # populate caches pre-save
        path = tmp_path / "q.plan"
        plan.save(path)
        loaded = QueryPlan.load(path)
        assert len(loaded.reads) == len(plan.reads)
        assert loaded.total_read_bytes == plan.total_read_bytes

    def test_substrate_dropped_on_save_and_rebuilt_after_load(self, tmp_path):
        """Save a plan whose problem has been planned four times, load
        it, and select again: equal to selecting on a fresh problem."""
        model = CostModel(MachineConfig(n_procs=3, memory_per_proc=1 << 20), COSTS)
        prob = make_problem(np.random.default_rng(77), n_procs=3, memory=300_000)
        choice = choose_strategy(prob, model)
        path = tmp_path / "auto.plan"
        choice.plan.save(path)
        with open(path, "rb") as fh:
            _, state = pickle.load(fh)
        assert not {"_hilbert_order", "edge_owner", "so_csr"} & set(vars(state["problem"]))
        again = choose_strategy(QueryPlan.load(path).problem, model)
        fresh = choose_strategy(
            make_problem(np.random.default_rng(77), n_procs=3, memory=300_000), model
        )
        assert again.selected == fresh.selected == choice.selected
        assert again.estimates == fresh.estimates == choice.estimates
        for attr in ("tile_of_output", "holders_indptr", "holders_ids", "edge_proc"):
            assert getattr(again.plan, attr).tolist() == getattr(fresh.plan, attr).tolist()
        assert not again.plan.problem.output_hilbert_order().flags.writeable

    def test_wrong_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.plan"
        with open(path, "wb") as fh:
            pickle.dump(("SomethingElse", {}), fh)
        with pytest.raises(TypeError):
            QueryPlan.load(path)

    def test_corrupted_plan_fails_validation(self, rng, tmp_path):
        prob = make_problem(rng, n_procs=3)
        plan = plan_fra(prob)
        plan.tile_of_output[0] = 999  # corrupt before saving
        path = tmp_path / "bad.plan"
        plan.save(path)
        with pytest.raises(PlanValidationError):
            QueryPlan.load(path)
