"""Batch (multi-query) planning.

The paper's query planning service "determines a query plan to
efficiently process a *set of queries* based on the amount of
available resources in the back-end".  With several range queries
pending against the same dataset, the dominant shared resource is the
disk farm: queries whose ranges overlap retrieve many of the same
input chunks, and executing them back to back lets the second query
aggregate straight out of the buffers the first one filled (ADR's
storage-manager integration makes those buffers visible to
processing).

:func:`plan_batch` plans each query individually (any strategy) and
then *orders* the batch to maximize consecutive-query chunk overlap --
a greedy chain on shared input bytes (:func:`order_for_sharing`) -- so
the one-query reuse window captures as much of the overlap as possible.
:func:`repro.sim.query_sim.simulate_query` accepts the resulting
``cached_inputs`` set per query, and :func:`simulate_batch` runs the
whole ordered batch, reporting per-query times and the bytes the
sharing saved.  The concurrent front end
(:mod:`repro.frontend.queryservice`) shares scans without reordering:
it runs a batch in submission order over the LRU payload cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem
from repro.planner.strategies import plan_query

__all__ = [
    "BatchPlan",
    "plan_batch",
    "order_for_sharing",
    "simulate_batch",
    "BatchSimResult",
]


@dataclass
class BatchPlan:
    """Ordered plans for a set of queries over one dataset."""

    plans: List[QueryPlan]
    #: execution order: positions into ``plans``
    order: List[int]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.plans))):
            raise ValueError("order must be a permutation of the plans")

    def __len__(self) -> int:
        return len(self.plans)

    # -- sharing analysis ----------------------------------------------

    def query_chunk_sets(self) -> List[FrozenSet[int]]:
        """Global input chunk ids each query retrieves (dataset ids)."""
        out = []
        for plan in self.plans:
            gids = plan.problem.input_global_ids
            used = np.unique(plan.reads.chunk)
            out.append(frozenset(int(g) for g in gids[used]))
        return out

    def consecutive_shared_bytes(self) -> int:
        """Bytes of chunk reads the one-query reuse window can elide
        under the chosen order (first retrieval per window still pays)."""
        sets = self.query_chunk_sets()
        sizes = self._global_sizes()
        total = 0
        for a, b in zip(self.order, self.order[1:]):
            for g in sets[a] & sets[b]:
                total += sizes[g]
        return total

    def total_read_bytes(self) -> int:
        return sum(p.total_read_bytes for p in self.plans)

    def _global_sizes(self) -> Dict[int, int]:
        sizes: Dict[int, int] = {}
        for plan in self.plans:
            p = plan.problem
            for local, g in enumerate(p.input_global_ids):
                sizes[int(g)] = int(p.inputs.nbytes[local])
        return sizes

    def summary(self) -> str:
        shared = self.consecutive_shared_bytes()
        total = self.total_read_bytes()
        frac = shared / total if total else 0.0
        return (
            f"batch of {len(self)} queries, order {self.order}: "
            f"{shared / 2**20:.1f} MB of {total / 2**20:.1f} MB reads "
            f"shareable ({frac * 100:.0f}%)"
        )


def _overlap_matrix(sets: Sequence[FrozenSet[int]], sizes: Dict[int, int]) -> np.ndarray:
    k = len(sets)
    m = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            shared = sum(sizes[g] for g in sets[i] & sets[j])
            m[i, j] = m[j, i] = shared
    return m


def order_for_sharing(plans: Sequence[QueryPlan]) -> List[int]:
    """Execution order maximizing consecutive-query chunk overlap.

    The ordering is a greedy heaviest-edge chain over the pairwise
    shared-bytes matrix: start from the heaviest pair, then repeatedly
    append (or prepend) the query sharing the most bytes with the
    chain's current tail (or head).  Accepts plans built with *any*
    mix of strategies -- the overlap is a property of the planning
    problems' input chunk sets, not of the tiling.  With two or fewer
    plans (or no overlap at all) the submission order is returned
    unchanged.
    """
    batch = BatchPlan(list(plans), list(range(len(plans))))
    if len(plans) <= 2:
        return batch.order

    sets = batch.query_chunk_sets()
    sizes = batch._global_sizes()
    m = _overlap_matrix(sets, sizes)

    k = len(plans)
    i, j = np.unravel_index(np.argmax(m), m.shape)
    if m[i, j] == 0:
        return batch.order  # nothing shared; keep submission order
    chain = [int(i), int(j)]
    remaining = set(range(k)) - set(chain)
    while remaining:
        head, tail = chain[0], chain[-1]
        best, best_gain, at_tail = None, -1, True
        for c in remaining:
            if m[tail, c] > best_gain:
                best, best_gain, at_tail = c, int(m[tail, c]), True
            if m[head, c] > best_gain:
                best, best_gain, at_tail = c, int(m[head, c]), False
        if at_tail:
            chain.append(best)
        else:
            chain.insert(0, best)
        remaining.discard(best)
    return chain


def plan_batch(
    problems: Sequence[PlanningProblem],
    strategy: str = "FRA",
    reorder: bool = True,
) -> BatchPlan:
    """Plan a set of queries and order them for scan sharing (the
    greedy chain of :func:`order_for_sharing`)."""
    if not problems:
        raise ValueError("plan_batch needs at least one query")
    plans = [plan_query(p, strategy) for p in problems]
    order = order_for_sharing(plans) if reorder else list(range(len(plans)))
    return BatchPlan(plans, order)


@dataclass
class BatchSimResult:
    """Timing of an ordered batch execution."""

    per_query: List  # SimResult, in execution order
    order: List[int]
    total_time: float
    bytes_saved: int

    def row(self) -> str:
        times = ", ".join(f"{r.total_time:.2f}" for r in self.per_query)
        return (
            f"batch total {self.total_time:.2f} s "
            f"(queries: {times}; reads saved {self.bytes_saved / 2**20:.1f} MB)"
        )


def simulate_batch(
    batch: BatchPlan,
    machine: MachineConfig,
    costs: ComputeCosts,
    shared_scan: bool = True,
    seed: int = 0,
) -> BatchSimResult:
    """Simulate the ordered batch; with ``shared_scan`` each query
    reuses the chunks its predecessor read (one-query reuse window,
    modelling the storage manager's buffers)."""
    from repro.sim.query_sim import simulate_query

    results = []
    total = 0.0
    saved = 0
    prev_global: FrozenSet[int] = frozenset()
    sets = batch.query_chunk_sets()
    for pos, idx in enumerate(batch.order):
        plan = batch.plans[idx]
        problem = plan.problem
        cached_local: Optional[frozenset] = None
        if shared_scan and prev_global:
            g = problem.input_global_ids
            cached_local = frozenset(
                int(l) for l, gid in enumerate(g) if int(gid) in prev_global
            ) or None
        res = simulate_query(
            plan, machine, costs, seed=seed + pos, cached_inputs=cached_local
        )
        saved += plan.total_read_bytes - int(res.read_bytes.sum())
        results.append(res)
        total += res.total_time
        prev_global = sets[idx]
    return BatchSimResult(results, list(batch.order), total, saved)
