"""Tests for the cost model and strategy selection."""

import numpy as np
import pytest

from repro.emulator import SATEmulator, VMEmulator
from repro.machine.config import ComputeCosts
from repro.machine.presets import ibm_sp
from repro.planner.costmodel import CostModel
from repro.planner.select import FIXED_STRATEGIES, choose_strategy
from repro.planner.strategies import plan_da, plan_fra, plan_query
from repro.sim.query_sim import simulate_query

from helpers import SMALL_COSTS, make_problem, small_machine


@pytest.fixture
def problem(rng):
    return make_problem(rng, n_procs=4, n_in=80, n_out=12, memory=500_000)


class TestEstimates:
    def test_positive_components(self, problem):
        m = small_machine()
        est = CostModel(m, SMALL_COSTS).estimate(plan_fra(problem))
        assert est.total > 0
        assert est.reduction > 0
        assert est.init >= 0 and est.combine >= 0 and est.output > 0

    def test_da_has_no_combine_cost(self, problem):
        est = CostModel(small_machine(), SMALL_COSTS).estimate(plan_da(problem))
        assert est.combine == 0.0

    def test_fra_combine_positive_when_multi_proc(self, problem):
        est = CostModel(small_machine(), SMALL_COSTS).estimate(plan_fra(problem))
        assert est.combine > 0.0

    def test_zero_compute_costs(self, problem):
        zero = ComputeCosts(0, 0, 0, 0)
        est = CostModel(small_machine(), zero).estimate(plan_fra(problem))
        assert est.total > 0  # I/O and comm still cost time

    def test_row_smoke(self, problem):
        row = CostModel(small_machine(), SMALL_COSTS).estimate(plan_fra(problem)).row()
        assert "est" in row

    def test_machine_proc_count_must_match_for_sim_but_not_model(self, problem):
        # the cost model itself doesn't require matching machines, but
        # using the plan's problem is the supported path
        est = CostModel(small_machine(4), SMALL_COSTS).estimate(plan_fra(problem))
        assert est.total > 0


class TestSelection:
    def test_returns_cheapest(self, problem):
        model = CostModel(small_machine(), SMALL_COSTS)
        choice = choose_strategy(problem, model, FIXED_STRATEGIES)
        estimates = choice.estimates
        assert set(estimates) == {"FRA", "SRA", "DA"}
        assert estimates[choice.selected].total == min(e.total for e in estimates.values())

    def test_subset_of_strategies(self, problem):
        model = CostModel(small_machine(), SMALL_COSTS)
        choice = choose_strategy(problem, model, ["FRA", "DA"])
        assert set(choice.estimates) == {"FRA", "DA"}

    def test_empty_candidates_rejected(self, problem):
        with pytest.raises(ValueError):
            choose_strategy(problem, CostModel(small_machine(), SMALL_COSTS), [])


class TestPrunePricing:
    """The model must price value-synopsis pruning: chunks the problem
    marks as prunable are never read or aggregated, so their reads,
    bytes and pairs must come off the estimate."""

    def _marked(self, problem, stride=2):
        from repro.planner.problem import PlanningProblem

        n_in = len(problem.inputs)
        return PlanningProblem(
            n_procs=problem.n_procs,
            memory_per_proc=problem.memory_per_proc,
            inputs=problem.inputs,
            outputs=problem.outputs,
            graph=problem.graph,
            acc_nbytes=problem.acc_nbytes,
            input_global_ids=np.arange(n_in, dtype=np.int64),
            pruned_input_ids=np.arange(0, n_in, stride, dtype=np.int64),
            pruned_bytes=int(problem.inputs.nbytes[::stride].sum()),
        )

    @pytest.mark.parametrize("per_tile", [False, True])
    def test_pruned_strictly_cheaper(self, problem, per_tile):
        model = CostModel(small_machine(), SMALL_COSTS, per_tile=per_tile)
        plain = model.estimate(plan_fra(problem)).total
        pruned = model.estimate(plan_fra(self._marked(problem))).total
        assert pruned < plain

    @pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA"])
    def test_all_strategies_priced(self, problem, strategy):
        model = CostModel(small_machine(), SMALL_COSTS)
        plain = model.estimate(plan_query(problem, strategy)).total
        pruned = model.estimate(
            plan_query(self._marked(problem), strategy)
        ).total
        assert pruned < plain

    def test_no_prune_info_is_identity(self, problem):
        """A problem without prune markings prices exactly as before."""
        from repro.planner.problem import PlanningProblem

        n_in = len(problem.inputs)
        unmarked = PlanningProblem(
            n_procs=problem.n_procs,
            memory_per_proc=problem.memory_per_proc,
            inputs=problem.inputs,
            outputs=problem.outputs,
            graph=problem.graph,
            acc_nbytes=problem.acc_nbytes,
            input_global_ids=np.arange(n_in, dtype=np.int64),
        )
        model = CostModel(small_machine(), SMALL_COSTS)
        assert model.estimate(plan_fra(unmarked)).total == pytest.approx(
            model.estimate(plan_fra(problem)).total
        )


class TestAccuracyAgainstSimulator:
    """Section 6 asks for 'simple but reasonably accurate' models; we
    require estimates within a factor of two of the simulator and the
    *ranking* of clearly separated strategies to be preserved."""

    @pytest.mark.parametrize("emu_cls,scale", [(SATEmulator, 1), (VMEmulator, 1)])
    def test_within_factor_two(self, emu_cls, scale):
        emu = emu_cls() if emu_cls is not SATEmulator else SATEmulator(base_chunks=3000)
        sc = emu.scenario(scale, seed=3)
        m = ibm_sp(8)
        prob = sc.problem(m)
        model = CostModel(m, sc.costs)
        for name in ("FRA", "DA"):
            plan = plan_query(prob, name)
            est = model.estimate(plan).total
            sim = simulate_query(plan, m, sc.costs).total_time
            assert est == pytest.approx(sim, rel=1.0), (name, est, sim)

    def test_ranking_preserved_when_gap_large(self):
        """SAT at scale 4 on 8 procs: DA clearly worse than FRA in the
        simulator; the model must agree on the winner."""
        sc = SATEmulator(base_chunks=2000).scenario(4, seed=3)
        m = ibm_sp(8)
        prob = sc.problem(m)
        model = CostModel(m, sc.costs)
        sims = {}
        ests = {}
        for name in ("FRA", "DA"):
            plan = plan_query(prob, name)
            sims[name] = simulate_query(plan, m, sc.costs).total_time
            ests[name] = model.estimate(plan).total
        sim_best = min(sims, key=sims.get)
        est_best = min(ests, key=ests.get)
        if abs(sims["FRA"] - sims["DA"]) > 0.25 * max(sims.values()):
            assert sim_best == est_best


class TestRefinedModel:
    """Section 6's refinement question: the per-tile model must beat
    the simple model exactly where the simple one is weakest."""

    def test_refined_estimates_positive_and_consistent(self, problem):
        m = small_machine()
        simple = CostModel(m, SMALL_COSTS).estimate(plan_fra(problem))
        refined = CostModel(m, SMALL_COSTS, per_tile=True).estimate(plan_fra(problem))
        assert refined.total > 0
        # per-tile barriers can only add serialization
        assert refined.total >= simple.total - 1e-9

    def test_single_tile_models_agree(self, rng):
        # with one tile there are no extra barriers: both models see
        # the same work
        prob = make_problem(rng, n_procs=4, memory=1 << 40)
        m = small_machine()
        plan = plan_fra(prob)
        assert plan.n_tiles == 1
        simple = CostModel(m, SMALL_COSTS).estimate(plan)
        refined = CostModel(m, SMALL_COSTS, per_tile=True).estimate(plan)
        assert refined.total == pytest.approx(simple.total, rel=0.01)

    def test_refined_beats_simple_on_many_tile_fra(self):
        """The documented weak spot: FRA at large P with many tiles."""
        sc = SATEmulator(base_chunks=3000).scenario(1, seed=3)
        m = ibm_sp(32)
        prob = sc.problem(m)
        plan = plan_query(prob, "FRA")
        assert plan.n_tiles > 1
        sim = simulate_query(plan, m, sc.costs).total_time
        err_simple = abs(CostModel(m, sc.costs).estimate(plan).total - sim) / sim
        err_refined = abs(
            CostModel(m, sc.costs, per_tile=True).estimate(plan).total - sim
        ) / sim
        assert err_refined < err_simple
        assert err_refined < 0.15
