"""The planning substrate: what ``strategy='auto'`` computes once per
problem and shares between the four planners and their pricing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.costmodel import CostModel
from repro.planner.hybrid import plan_hybrid
from repro.planner.select import ALL_STRATEGIES, HYBRID, choose_strategy
from repro.planner.strategies import plan_query

from helpers import SMALL_COSTS, make_problem, small_machine

PLAN_ARRAYS = ("tile_of_output", "holders_indptr", "holders_ids", "edge_proc")


def build(seed: int, init_from_output: bool = False):
    """A problem that is a pure function of its arguments, so building
    it again gives a *fresh* one: nothing cached, nothing shared."""
    rng = np.random.default_rng(seed)
    problem = make_problem(
        rng,
        n_procs=int(rng.integers(1, 6)),
        n_in=int(rng.integers(1, 50)),
        n_out=int(rng.integers(1, 14)),
        memory=int(rng.integers(40_000, 400_000)),  # one to many tiles
        fan_out=int(rng.integers(1, 4)),
    )
    return dataclasses.replace(problem, init_from_output=init_from_output)


def plan_alone(problem, name, model):
    if name == HYBRID:
        return plan_hybrid(problem, machine=model.machine, costs=model.costs)
    return plan_query(problem, name)


def assert_same_choice(choice, seed, model, init_from_output=False):
    best = None
    for name in ALL_STRATEGIES:
        fresh = build(seed, init_from_output)
        plan = plan_alone(fresh, name, model)
        estimate = model.estimate(plan)
        assert choice.estimates[name] == estimate  # every float, exactly
        if best is None or estimate.total < best[1].total:
            best = (plan, estimate)
    assert choice.selected == best[0].strategy
    assert choice.plan.n_tiles == best[0].n_tiles
    for attr in PLAN_ARRAYS:
        got, want = getattr(choice.plan, attr), getattr(best[0], attr)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), attr


class TestSharedEqualsSeparate:
    @given(st.integers(0, 2**31), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_one_shared_problem_equals_four_fresh_ones(self, seed, per_tile):
        model = CostModel(small_machine(8), SMALL_COSTS, per_tile=per_tile)
        shared = build(seed)
        assert_same_choice(choose_strategy(shared, model), seed, model)
        # ADR.update and the benchmark harness set the flag only after
        # build_problem returned, on a problem that may have been planned
        shared.init_from_output = True
        assert_same_choice(
            choose_strategy(shared, model), seed, model, init_from_output=True
        )

    def test_each_plan_keeps_its_own_tables(self):
        model = CostModel(small_machine(8), SMALL_COSTS)
        shared = build(11)
        plans = {name: plan_alone(shared, name, model) for name in ALL_STRATEGIES}
        for plan in plans.values():
            model.estimate(plan)
        for name, plan in plans.items():
            alone = plan_alone(build(11), name, model)
            assert plan.reads.chunk.tolist() == alone.reads.chunk.tolist()
            assert plan.total_comm_bytes == alone.total_comm_bytes


class TestSubstrate:
    def shared_arrays(self, problem):
        return [
            problem.output_hilbert_order(), problem.edge_owner, *problem.so_csr,
            problem.output_chunks_per_proc, problem.write_bytes_per_proc,
        ]

    def test_computed_once_and_read_only(self):
        problem = build(7)
        first = self.shared_arrays(problem)
        assert all(a is b for a, b in zip(first, self.shared_arrays(problem)))
        assert not any(a.flags.writeable for a in first)
        with pytest.raises(ValueError):
            problem.output_hilbert_order()[0] = 0

    def test_fra_and_sra_share_the_edge_owner_array(self, rng):
        problem = make_problem(rng)
        assert plan_query(problem, "FRA").edge_proc is problem.edge_owner
        assert plan_query(problem, "SRA").edge_proc is problem.edge_owner

    def test_so_lists_match_the_definition(self, rng):
        problem = make_problem(rng, n_procs=5, n_in=70, n_out=11)
        indptr, procs = problem.so_csr
        for o in range(problem.n_out):
            want = problem.procs_with_input_for(o).tolist()
            assert procs[indptr[o] : indptr[o + 1]].tolist() == want

    def test_plan_independent_stats_rows(self, rng):
        problem = make_problem(rng, n_procs=3)
        chunks = np.zeros(3, dtype=np.int64)
        nbytes = np.zeros(3, dtype=np.int64)
        np.add.at(chunks, problem.output_owner, 1)
        np.add.at(nbytes, problem.output_owner, problem.outputs.nbytes)
        assert problem.output_chunks_per_proc.tolist() == chunks.tolist()
        assert problem.write_bytes_per_proc.tolist() == nbytes.tolist()

    def test_replace_starts_from_an_empty_substrate(self, rng):
        problem = make_problem(rng)
        problem.output_hilbert_order()
        copy = dataclasses.replace(problem, hilbert_bits=4)
        assert "_hilbert_order" not in vars(copy)
