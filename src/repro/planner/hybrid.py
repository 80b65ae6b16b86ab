"""Hybrid query-processing strategy (paper Section 6, future work).

"The strategies presented in this paper represent two extreme
approaches. [...] Our experimental results suggest that a hybrid
strategy may provide better performance.  For example, the tiling and
workload partitioning steps can be formulated as a multi-graph
partitioning problem, with input and output chunks representing the
graph vertices, and the mapping between input and output chunks [...]
representing the graph edges."

This module implements that suggestion.  Per output chunk the planner
chooses, in Hilbert selection order, between the two extremes --
*replicate* (SRA-style ghosts on the processors holding projecting
input) and *distribute* (all of the chunk's aggregation on one
processor, with the inputs forwarded there) -- by comparing their
estimated communication + computation cost given the current
per-processor load.  Distribute-mode chunks may be assigned to a
processor other than the owner when that repairs load imbalance (the
DA weakness the paper measures); the generalized plan representation
covers this with a two-element holder set {assignee, owner} and a
single ghost shipment back to the owner.

:func:`chunk_multigraph` exposes the underlying bipartite multigraph
as a :mod:`networkx` graph for analysis and for the hybrid bench's
cut statistics.
"""

from __future__ import annotations

from typing import List, Optional

import networkx as nx
import numpy as np

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem

__all__ = ["plan_hybrid", "chunk_multigraph"]


def chunk_multigraph(problem: PlanningProblem) -> nx.Graph:
    """The paper's multigraph: bipartite input/output chunk incidence.

    Nodes are ``("in", i)`` / ``("out", o)`` with ``bytes`` and
    ``proc`` attributes; edges carry the (unit) aggregation weight.
    """
    g = nx.Graph()
    for i in range(problem.n_in):
        g.add_node(
            ("in", i),
            bytes=int(problem.inputs.nbytes[i]),
            proc=int(problem.input_owner[i]),
        )
    for o in range(problem.n_out):
        g.add_node(
            ("out", o),
            bytes=int(problem.acc_nbytes[o]),
            proc=int(problem.output_owner[o]),
        )
    edge_in, edge_out = problem.graph.edge_arrays()
    for i, o in zip(edge_in, edge_out):
        g.add_edge(("in", int(i)), ("out", int(o)))
    return g


def plan_hybrid(
    problem: PlanningProblem,
    machine: Optional[MachineConfig] = None,
    costs: Optional[ComputeCosts] = None,
) -> QueryPlan:
    """Per-output-chunk replicate/distribute choice with load balancing.

    Without a machine description the model falls back to byte counts
    with a nominal compute weight, which preserves the decision
    structure (the bench passes the real machine).
    """
    link_bw = machine.link_bandwidth if machine else 100e6
    lr = costs.reduction if costs else 1e-3
    gc = costs.combine if costs else 1e-3

    so_indptr, so_ids = problem.so_csr
    fwd_indptr, fwd_ids = problem.graph.forward_csr
    rev_indptr, rev_ids = problem.graph.reverse_csr
    in_bytes = problem.inputs.nbytes
    in_owner = problem.input_owner
    out_owner = problem.output_owner

    order = problem.output_hilbert_order()
    P = problem.n_procs
    mem = problem.memory_per_proc.astype(np.int64).copy()
    load = np.zeros(P, dtype=float)  # accumulated LR seconds per proc

    tile = 0
    opened = False
    tile_of = np.empty(problem.n_out, dtype=np.int64)
    holder_lists: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * problem.n_out
    # edge_proc aligned with forward CSR; filled per output through the
    # graph's reverse -> forward edge index map.
    edge_proc = np.empty(problem.graph.n_edges, dtype=np.int64)
    fwd_pos = problem.graph.reverse_to_forward

    for o in order:
        o = int(o)
        owner = int(out_owner[o])
        ins = rev_ids[rev_indptr[o] : rev_indptr[o + 1]]
        so = so_ids[so_indptr[o] : so_indptr[o + 1]]
        fan_in = len(ins)
        size = int(problem.acc_nbytes[o])

        # Replicate cost: every non-owner processor in So ships one
        # ghost accumulator and the owner merges it.
        n_ghosts = len(so) - (1 if owner in so else 0)
        cost_rep = n_ghosts * (size / link_bw + gc)

        # Distribute cost to candidate q: forward every input chunk
        # stored away from q, plus the marginal load imbalance, plus a
        # ghost shipment when q is not the owner.
        work = lr * fan_in
        bytes_by_proc = np.bincount(in_owner[ins], weights=in_bytes[ins], minlength=P)
        in_total = bytes_by_proc.sum()  # whole bytes: every sum here is exact
        candidates = [owner]
        if fan_in:
            # the processor holding the most projecting input bytes
            candidates.append(int(bytes_by_proc.argmax()))
            candidates.append(int(load.argmin()))
        best_q, best_dist = owner, np.inf
        base_load = load.max()
        for q in dict.fromkeys(candidates):
            comm = float(in_total - bytes_by_proc[q]) / link_bw  # stored away from q
            ghost = 0.0 if q == owner else (size / link_bw + gc)
            imbalance = max(load[q] + work - max(base_load, work), 0.0)
            total = comm + ghost + imbalance
            if total < best_dist:
                best_q, best_dist = q, total

        if cost_rep <= best_dist:
            pos = np.searchsorted(so, owner)
            if pos < len(so) and so[pos] == owner:
                holders = so.copy()
            else:
                holders = np.concatenate((so[:pos], (owner,), so[pos:]))
            procs = in_owner[ins].astype(np.int64)
        else:
            holders = (
                np.asarray([owner], dtype=np.int64)
                if best_q == owner
                else np.asarray(sorted({owner, best_q}), dtype=np.int64)
            )
            procs = np.full(fan_in, best_q, dtype=np.int64)
            load[best_q] += work

        if opened and np.any(mem[holders] < size):
            tile += 1
            mem[:] = problem.memory_per_proc
            opened = False
        mem[holders] -= size
        opened = True
        tile_of[o] = tile
        holder_lists[o] = holders
        # write edge processors through the reverse->forward index map
        edge_proc[fwd_pos[rev_indptr[o] : rev_indptr[o + 1]]] = procs

    n_tiles = tile + 1 if problem.n_out else 0
    counts = np.asarray([len(h) for h in holder_lists], dtype=np.int64)
    holders_indptr = np.concatenate(([0], np.cumsum(counts)))
    holders_ids = (
        np.concatenate(holder_lists) if problem.n_out and counts.sum() else np.empty(0, dtype=np.int64)
    )
    return QueryPlan(
        "HYBRID",
        problem,
        n_tiles,
        tile_of,
        holders_indptr,
        holders_ids.astype(np.int64),
        edge_proc,
    )

