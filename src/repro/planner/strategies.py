"""The three query-processing strategies (paper Section 3).

Each function below is a direct transcription of the paper's tiling
and workload-partitioning pseudo-code (Figures 4, 5, 6), sharing the
Hilbert-ordered output chunk selection.  Two small deviations from the
pseudo-code, both noted inline:

- the first output chunk never opens an *empty* leading tile (the
  literal Figure-4 text increments the tile counter even when nothing
  has been assigned yet if a single chunk exceeds memory);
- under SRA the owner of an output chunk is charged memory alongside
  the processors of ``So`` -- the owner must hold the chunk to produce
  the final output even when it stores no projecting input (Figure 5
  accounts only for ``So``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem

__all__ = ["plan_fra", "plan_sra", "plan_da", "plan_query", "STRATEGIES"]


def _holders_csr(holder_lists: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    counts = np.asarray([len(h) for h in holder_lists], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    ids = (
        np.concatenate(holder_lists)
        if holder_lists and indptr[-1] > 0
        else np.empty(0, dtype=np.int64)
    )
    return indptr, ids.astype(np.int64)


def plan_fra(problem: PlanningProblem, order: np.ndarray | None = None) -> QueryPlan:
    """Fully Replicated Accumulator (Figure 4).

    The tile budget is the *minimum* memory over all processors, since
    every accumulator chunk of a tile is replicated on every
    processor.  Each processor aggregates its own local input chunks;
    partial results meet at the owner in the global-combine phase.

    ``order`` overrides the Hilbert output-chunk selection order (used
    by the tiling-order ablation); default is the paper's Hilbert sort.
    """
    order = problem.output_hilbert_order() if order is None else np.asarray(order)
    budget = int(problem.memory_per_proc.min())
    tile_of = np.empty(problem.n_out, dtype=np.int64)
    tile, used = 0, 0
    for o in order:
        size = int(problem.acc_nbytes[o])
        if used + size > budget and used > 0:
            tile += 1
            used = 0
        used += size
        tile_of[o] = tile
    n_tiles = tile + 1 if problem.n_out else 0

    P = problem.n_procs
    holders_indptr = np.arange(problem.n_out + 1, dtype=np.int64) * P
    holders_ids = np.arange(problem.n_out * P, dtype=np.int64) % P  # all, per output

    return QueryPlan(
        "FRA", problem, n_tiles, tile_of, holders_indptr, holders_ids,
        problem.edge_owner,
    )


def plan_sra(problem: PlanningProblem, order: np.ndarray | None = None) -> QueryPlan:
    """Sparsely Replicated Accumulator (Figure 5).

    A ghost chunk is allocated only on processors owning at least one
    projecting input chunk; a tile closes as soon as the next chunk
    would overflow *any* involved processor's remaining memory.
    """
    so_indptr, so_ids = problem.so_csr
    order = problem.output_hilbert_order() if order is None else np.asarray(order)
    mem = problem.memory_per_proc.astype(np.int64).copy()
    tile_of = np.empty(problem.n_out, dtype=np.int64)
    holder_lists: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * problem.n_out
    tile = 0
    opened = False  # something assigned to the current tile yet?
    for o in order:
        size = int(problem.acc_nbytes[o])
        owner = int(problem.output_owner[o])
        so = so_ids[so_indptr[o] : so_indptr[o + 1]]
        # so is sorted ascending; deviation: the owner always holds
        # its chunk even when it stores no projecting input.
        pos = np.searchsorted(so, owner)
        if pos < len(so) and so[pos] == owner:
            holders = so
        else:
            holders = np.concatenate((so[:pos], (owner,), so[pos:]))
        if opened and np.any(mem[holders] < size):
            tile += 1
            mem[:] = problem.memory_per_proc
            opened = False
        mem[holders] -= size
        tile_of[o] = tile
        holder_lists[o] = holders
        opened = True
    n_tiles = tile + 1 if problem.n_out else 0

    holders_indptr, holders_ids = _holders_csr(holder_lists)
    return QueryPlan(
        "SRA", problem, n_tiles, tile_of, holders_indptr, holders_ids,
        problem.edge_owner,
    )


def plan_da(problem: PlanningProblem, order: np.ndarray | None = None) -> QueryPlan:
    """Distributed Accumulator (Figure 6).

    No replication: each processor's working set is its local output
    chunks, tiled against its own memory with a *per-processor* tile
    counter; the global tile count is the maximum.  Every input chunk
    is forwarded to the owners of the output chunks it maps to.
    """
    order = problem.output_hilbert_order() if order is None else np.asarray(order)
    mem = problem.memory_per_proc.astype(np.int64).copy()
    tile_p = np.zeros(problem.n_procs, dtype=np.int64)
    opened = np.zeros(problem.n_procs, dtype=bool)
    tile_of = np.empty(problem.n_out, dtype=np.int64)
    for o in order:
        size = int(problem.acc_nbytes[o])
        p = int(problem.output_owner[o])
        if opened[p] and mem[p] < size:
            tile_p[p] += 1
            mem[p] = int(problem.memory_per_proc[p])
        mem[p] -= size
        tile_of[o] = tile_p[p]
        opened[p] = True
    n_tiles = int(tile_p.max()) + 1 if problem.n_out else 0

    holders_indptr = np.arange(problem.n_out + 1, dtype=np.int64)
    holders_ids = problem.output_owner.astype(np.int64).copy()
    _, edge_out = problem.graph.edge_arrays()
    edge_proc = problem.output_owner[edge_out].astype(np.int64)
    return QueryPlan(
        "DA", problem, n_tiles, tile_of, holders_indptr, holders_ids, edge_proc
    )


STRATEGIES: Dict[str, Callable[[PlanningProblem], QueryPlan]] = {
    "FRA": plan_fra,
    "SRA": plan_sra,
    "DA": plan_da,
}


def plan_query(problem: PlanningProblem, strategy: str) -> QueryPlan:
    """Plan with a named strategy (``"FRA"``, ``"SRA"``, ``"DA"``, or
    ``"HYBRID"`` -- the latter resolved lazily to avoid an import
    cycle with the hybrid module, which itself plans baselines)."""
    key = strategy.upper()
    if key == "HYBRID":
        from repro.planner.hybrid import plan_hybrid

        return plan_hybrid(problem)
    try:
        fn = STRATEGIES[key]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from "
            f"{sorted(STRATEGIES) + ['HYBRID']}"
        ) from None
    return fn(problem)
