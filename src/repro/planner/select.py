"""Strategy selection: the single choke point behind ``strategy='auto'``.

Kurc et al.'s Figures 8-9 show crossovers: no strategy wins on every
application, machine size or scaling mode, which is why Section 6
names automated selection from "simple but reasonably accurate cost
models" as the long-term goal.  :func:`choose_strategy` is that
decision, made in exactly one place: plan the problem with every
candidate strategy, price all the plans in one stacked pass of a cost
model (closed-form :class:`~repro.planner.costmodel.CostModel` or a
measurement-fitted :class:`~repro.planner.calibrate.CalibratedCostModel`
-- anything with an ``estimate(plan) -> CostEstimate`` method), and
return the argmin plus the full ranking so callers can audit the
decision.

Every layer that accepts ``strategy='auto'`` -- the ADR facade, batch
planning, the concurrent query service, the wire protocol, the shard
router -- routes through this function; strategy *names* are defined
here and nowhere else (lint rule ADR502 keeps hard-coded strategy
string literals out of the rest of the library).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.planner.costmodel import CostEstimate
from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem

__all__ = [
    "FRA",
    "SRA",
    "DA",
    "HYBRID",
    "AUTO",
    "FIXED_STRATEGIES",
    "ALL_STRATEGIES",
    "is_auto",
    "StrategyChoice",
    "choose_strategy",
]

#: Canonical strategy names (Figures 4, 5, 6, and the Section-5 hybrid).
FRA = "FRA"
SRA = "SRA"
DA = "DA"
HYBRID = "HYBRID"
#: The sentinel that defers the choice to :func:`choose_strategy`.
AUTO = "AUTO"

#: The paper's three baseline strategies, in its presentation order.
FIXED_STRATEGIES: Tuple[str, ...] = (FRA, SRA, DA)
#: Every concrete (executable) strategy -- the default candidate set.
ALL_STRATEGIES: Tuple[str, ...] = FIXED_STRATEGIES + (HYBRID,)


def is_auto(strategy: str) -> bool:
    """True when *strategy* requests automatic selection (any case)."""
    return isinstance(strategy, str) and strategy.upper() == AUTO


@dataclass
class StrategyChoice:
    """The outcome of one automatic selection: the winning plan plus
    the full priced ranking, so clients can audit the decision."""

    plan: QueryPlan
    selected: str
    estimates: Dict[str, CostEstimate]

    @property
    def ranking(self) -> List[Tuple[str, CostEstimate]]:
        """(strategy, estimate) cheapest first; ties keep the
        candidate order the estimates were produced in."""
        return sorted(self.estimates.items(), key=lambda kv: kv[1].total)

    def ranking_dict(self) -> Dict[str, float]:
        """JSON-safe ``{strategy: estimated_seconds}`` in rank order."""
        return {name: float(est.total) for name, est in self.ranking}

    def table(self) -> str:
        mark = lambda name: "->" if name == self.selected else "  "
        return "\n".join(
            f"{mark(name)} {est.row()}" for name, est in self.ranking
        )


def choose_strategy(
    problem: PlanningProblem,
    model,
    candidates: Sequence[str] = ALL_STRATEGIES,
) -> StrategyChoice:
    """Plan *problem* with every candidate strategy, price all the
    candidates with *model* at once, and return the cheapest plan plus
    the full ranking.

    Each planner makes only its three decisions (tile of every output,
    accumulator holders, processor of every edge); the model prices
    them in one stacked pass (``estimate_many(plans)``), so no plan --
    the winner included -- builds its traffic tables here.  *model* is
    duck-typed: one exposing only ``estimate(plan) -> CostEstimate`` is
    asked once per candidate.  A closed-form :class:`CostModel` also
    carries the machine/cost constants the hybrid planner weighs its
    tile partitioning with; a :class:`CalibratedCostModel` does not,
    and the hybrid then falls back to its nominal weights.
    """
    names = [str(c).upper() for c in candidates]
    if not names:
        raise ValueError("need at least one candidate strategy")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate candidate strategies in {names}")
    if AUTO in names:
        raise ValueError("AUTO cannot be its own candidate")

    from repro.planner.hybrid import plan_hybrid
    from repro.planner.strategies import plan_query

    plans = [
        plan_hybrid(
            problem,
            machine=getattr(model, "machine", None),
            costs=getattr(model, "costs", None),
        )
        if name == HYBRID
        else plan_query(problem, name)
        for name in names
    ]
    estimate_many = getattr(model, "estimate_many", None)
    estimates = (
        estimate_many(plans)
        if estimate_many is not None
        else [model.estimate(plan) for plan in plans]
    )
    # the first cheapest wins a tie, in candidate order
    best = min(range(len(plans)), key=lambda k: estimates[k].total)
    return StrategyChoice(
        plan=plans[best],
        selected=plans[best].strategy,
        estimates={plan.strategy: est for plan, est in zip(plans, estimates)},
    )
