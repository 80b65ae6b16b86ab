"""Tests for the strategy-selection choke point."""

import pytest

from repro.machine.config import ComputeCosts
from repro.planner.costmodel import CostModel
from repro.planner.select import (
    ALL_STRATEGIES,
    AUTO,
    DA,
    FIXED_STRATEGIES,
    FRA,
    HYBRID,
    SRA,
    StrategyChoice,
    choose_strategy,
    is_auto,
)
from repro.planner.strategies import plan_query
from repro.planner.validate import validate_plan

from helpers import SMALL_COSTS, make_problem, small_machine


@pytest.fixture
def problem(rng):
    return make_problem(rng, n_procs=4, n_in=80, n_out=12, memory=500_000)


@pytest.fixture
def model():
    return CostModel(small_machine(), SMALL_COSTS)


class TestNames:
    def test_canonical_sets(self):
        assert FIXED_STRATEGIES == (FRA, SRA, DA)
        assert ALL_STRATEGIES == (FRA, SRA, DA, HYBRID)
        assert AUTO not in ALL_STRATEGIES

    def test_is_auto_any_case(self):
        assert is_auto("AUTO")
        assert is_auto("auto")
        assert is_auto("Auto")
        assert not is_auto(FRA)
        assert not is_auto("")
        assert not is_auto(None)


class TestChooseStrategy:
    def test_returns_argmin_of_estimates(self, problem, model):
        choice = choose_strategy(problem, model)
        assert set(choice.estimates) == set(ALL_STRATEGIES)
        best_total = min(e.total for e in choice.estimates.values())
        assert choice.estimates[choice.selected].total == best_total
        assert choice.plan.strategy == choice.selected

    def test_plan_is_valid(self, problem, model):
        choice = choose_strategy(problem, model)
        validate_plan(choice.plan)

    def test_matches_explicit_planning(self, problem, model):
        """The selected plan must be exactly what planning the selected
        strategy explicitly would have produced (auto adds a choice,
        never a different plan)."""
        choice = choose_strategy(problem, model, FIXED_STRATEGIES)
        explicit = plan_query(problem, choice.selected)
        assert choice.plan.tile_of_output.tolist() == explicit.tile_of_output.tolist()
        assert choice.plan.edge_proc.tolist() == explicit.edge_proc.tolist()

    def test_ranking_sorted_cheapest_first(self, problem, model):
        choice = choose_strategy(problem, model)
        totals = [est.total for _, est in choice.ranking]
        assert totals == sorted(totals)
        assert choice.ranking[0][0] == choice.selected
        ranked = choice.ranking_dict()
        assert list(ranked.values()) == sorted(ranked.values())

    def test_candidate_subset(self, problem, model):
        choice = choose_strategy(problem, model, (FRA, DA))
        assert set(choice.estimates) == {FRA, DA}
        assert choice.selected in (FRA, DA)

    def test_lowercase_candidates_normalized(self, problem, model):
        choice = choose_strategy(problem, model, ("fra", "da"))
        assert set(choice.estimates) == {FRA, DA}

    def test_empty_candidates_rejected(self, problem, model):
        with pytest.raises(ValueError, match="at least one"):
            choose_strategy(problem, model, ())

    def test_duplicate_candidates_rejected(self, problem, model):
        with pytest.raises(ValueError, match="duplicate"):
            choose_strategy(problem, model, (FRA, "fra"))

    def test_auto_cannot_be_candidate(self, problem, model):
        with pytest.raises(ValueError, match="AUTO"):
            choose_strategy(problem, model, (FRA, AUTO))

    def test_duck_typed_model(self, problem):
        """Anything with estimate(plan) -> CostEstimate works."""

        class BiasedModel:
            def estimate(self, plan):
                est = CostModel(small_machine(), SMALL_COSTS).estimate(plan)
                if plan.strategy != SRA:  # make SRA always win
                    est = type(est)(
                        strategy=est.strategy,
                        init=est.init + 1e6,
                        reduction=est.reduction,
                        combine=est.combine,
                        output=est.output,
                    )
                return est

        choice = choose_strategy(problem, BiasedModel(), FIXED_STRATEGIES)
        assert choice.selected == SRA

    def test_table_marks_selection(self, problem, model):
        choice = choose_strategy(problem, model)
        table = choice.table()
        assert "->" in table
        assert isinstance(choice, StrategyChoice)


class TestPricedInOnePass:
    """The candidates are priced together; a plan's own estimate is the
    one-plan case of the same pass."""

    def test_estimates_equal_pricing_each_plan_alone(self, problem, model):
        choice = choose_strategy(problem, model, FIXED_STRATEGIES)
        alone = {name: model.estimate(plan_query(problem, name)) for name in FIXED_STRATEGIES}
        assert choice.estimates == alone
        assert choice.selected == min(alone, key=lambda name: alone[name].total)

    def test_no_plan_builds_traffic_tables(self, problem, model, monkeypatch):
        """Pricing reads each candidate's three decisions only: neither
        a loser nor the winner derives its reads or transfers."""
        import repro.planner.hybrid as hybrid
        import repro.planner.strategies as strategies

        built = []

        def spy(planner):
            def plan(*args, **kwargs):
                built.append(planner(*args, **kwargs))
                return built[-1]
            return plan

        monkeypatch.setattr(strategies, "plan_query", spy(strategies.plan_query))
        monkeypatch.setattr(hybrid, "plan_hybrid", spy(hybrid.plan_hybrid))
        choice = choose_strategy(problem, model)
        assert sorted(plan.strategy for plan in built) == sorted(ALL_STRATEGIES)
        assert any(plan is choice.plan for plan in built)
        tables = {"reads", "input_transfers", "ghost_transfers", "init_transfers", "edge_tile"}
        for plan in built:
            assert not tables & set(vars(plan)), plan.strategy
