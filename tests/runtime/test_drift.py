"""An executor that drifts from its plan is caught by the checks that
run on every query: the executor's placement assertions (edge on its
assigned processor, ``holds``, owner) and a
comparison against a clean run of the same plan (what the functional
corpus does).

Each drift is a monkeypatch on :class:`PhaseExecutor` or on the plan's
cached schedule.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.aggregation.functions import SumAggregation
from repro.planner.strategies import plan_query
from repro.runtime.engine import execute_plan
from repro.runtime.phases import PhaseExecutor

from helpers import build_problem, make_functional_setup


def planned(rng, strategy):
    """*strategy*'s plan over 3 ranks with 2 KiB budgets, and what
    executing it takes."""
    _, _, chunks, mapping, grid = make_functional_setup(rng, n_items=250)
    spec = SumAggregation(1)
    plan = plan_query(build_problem(chunks, mapping, grid, spec, 3, 1 << 11), strategy)
    return plan, chunks, mapping, grid, spec


@pytest.fixture(params=["FRA", "SRA", "HYBRID"])
def spread(request, rng):
    """A plan with edges off the owner and ghosts to combine."""
    plan, *rest = planned(rng, request.param)
    owner = plan.problem.output_owner[plan.edge_arrays[1]]
    assert (plan.edge_proc != owner).any() and len(plan.ghost_transfers)
    return plan, *rest


def run(spread):
    plan, chunks, mapping, grid, spec = spread
    return execute_plan(plan, chunks.__getitem__, mapping, grid, spec)


def combining(name, substitute):
    """A ``_combine`` that runs with ``self.<name>`` replaced by
    ``substitute(self.<name>)``."""
    clean = PhaseExecutor._combine

    def _combine(self, t):
        real = getattr(self, name)
        setattr(self, name, substitute(real))
        try:
            clean(self, t)
        finally:
            setattr(self, name, real)

    return _combine


def walking(pick):
    """A ``_combine`` that walks ``pick(transfers)`` in place of each
    tile's declared ghost transfers."""
    return combining("schedule", lambda schedule: SimpleNamespace(
        transfers_of=lambda t: pick(schedule.transfers_of(t))
    ))


def swap(monkeypatch, a, b):
    """Run phase *b* in *a*'s slot and *a* in *b*'s."""
    first, second = getattr(PhaseExecutor, a), getattr(PhaseExecutor, b)
    monkeypatch.setattr(PhaseExecutor, a, second)
    monkeypatch.setattr(PhaseExecutor, b, first)


def test_cross_rank_apply_fails_the_query(monkeypatch, spread):
    """Each edge aggregated into its output chunk's owner instead of
    the rank the plan assigned it to.  The owner holds the chunk too,
    and the global combine would sum the same values, so only the
    executor's placement check tells the runs apart."""
    clean = PhaseExecutor._apply

    def _apply(self, rank, edge, kind, o, cell_idx, payload):
        clean(self, int(self.problem.output_owner[o]), edge, kind, o, cell_idx, payload)

    monkeypatch.setattr(PhaseExecutor, "_apply", _apply)
    with pytest.raises(AssertionError, match="but the plan assigned it to processor"):
        run(spread)


@pytest.mark.parametrize("drift", ["skip_last", "twice", "before_reduce"])
def test_combine_drift_changes_the_answer(monkeypatch, spread, drift):
    clean = run(spread)
    if drift == "skip_last":
        monkeypatch.setattr(PhaseExecutor, "_combine", walking(lambda g: g[:-1]))
    elif drift == "twice":
        monkeypatch.setattr(PhaseExecutor, "_combine", walking(lambda g: np.r_[g, g[-1:]]))
    else:
        swap(monkeypatch, "_reduce", "_combine")
    got = run(spread)
    same_values = all(
        np.array_equal(a, b, equal_nan=True)
        for a, b in zip(got.chunk_values, clean.chunk_values)
    )
    assert not same_values or got.n_combines != clean.n_combines


@pytest.mark.parametrize("drift", ["output_first", "to_non_owner"])
def test_combine_drift_asserts(monkeypatch, spread, drift):
    if drift == "output_first":
        swap(monkeypatch, "_combine", "_output")
    else:  # every ghost shipped back to its own holder
        monkeypatch.setattr(PhaseExecutor, "_combine", combining("plan", lambda plan: (
            SimpleNamespace(ghost_transfers=replace(
                plan.ghost_transfers, dst=plan.ghost_transfers.src
            ))
        )))
    with pytest.raises(AssertionError):
        run(spread)
