"""Query planning service: the paper's primary contribution.

A query plan "specifies how parts of the final output are computed and
the order the input data chunks are retrieved for processing", built
in two steps (paper Section 2.3):

1. *Tiling* -- when the accumulator exceeds memory, output chunks are
   grouped into tiles, selected in Hilbert-curve order of their MBR
   mid-points so tiles stay spatially compact;
2. *Workload partitioning* -- the aggregation work for each tile is
   divided across processors.

Three strategies implement these steps (Section 3):

========  ==============================  ===========================
strategy  accumulator placement           communication
========  ==============================  ===========================
FRA       every chunk on every processor  ghosts -> owner at combine
SRA       ghosts only where local input   (fewer) ghosts -> owner
          projects to the chunk
DA        owner only, no ghosts           input chunks -> owner during
                                          local reduction
========  ==============================  ===========================

Extensions from the paper's Section 6 future work are also here: a
graph-partitioning *hybrid* strategy and closed-form *cost models*
that drive automatic strategy selection.
"""

from repro.planner.problem import PlanningProblem
from repro.planner.plan import QueryPlan
from repro.planner.strategies import plan_fra, plan_sra, plan_da, plan_query, STRATEGIES
from repro.planner.validate import validate_plan
from repro.planner.stats import PlanStats, plan_stats
from repro.planner.hybrid import plan_hybrid
from repro.planner.costmodel import CostModel
from repro.planner.select import (
    ALL_STRATEGIES,
    AUTO,
    FIXED_STRATEGIES,
    StrategyChoice,
    choose_strategy,
    is_auto,
)
from repro.planner.telemetry import MeasuredRun, TelemetryLog, plan_features
from repro.planner.calibrate import (
    CalibratedCostModel,
    CalibrationError,
    FitDiagnostics,
    calibrate,
)
from repro.planner.batch import BatchPlan, plan_batch, simulate_batch

__all__ = [
    "PlanningProblem",
    "QueryPlan",
    "plan_fra",
    "plan_sra",
    "plan_da",
    "plan_hybrid",
    "plan_query",
    "STRATEGIES",
    "validate_plan",
    "PlanStats",
    "plan_stats",
    "CostModel",
    "ALL_STRATEGIES",
    "AUTO",
    "FIXED_STRATEGIES",
    "StrategyChoice",
    "choose_strategy",
    "is_auto",
    "MeasuredRun",
    "TelemetryLog",
    "plan_features",
    "CalibratedCostModel",
    "CalibrationError",
    "FitDiagnostics",
    "calibrate",
    "BatchPlan",

    "plan_batch",
    "simulate_batch",
]
