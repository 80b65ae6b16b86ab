"""Static plan statistics.

Everything Figure 9 measures -- communication volume and computation
work per processor -- is already determined by the plan, before any
execution.  :func:`load_grids` extracts it per (candidate, tile,
processor) for several candidate plans of one problem in one stacked
pass; the cost models price those grids, and :func:`plan_stats` is the
one-plan, whole-query view.  The discrete-event simulator then tells
how the totals translate into elapsed time (overlap, contention,
barriers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem

__all__ = ["LoadGrids", "load_grids", "PlanStats", "plan_stats"]


@dataclass(frozen=True)
class LoadGrids:
    """Work and traffic of ``S`` candidate plans of one problem.

    Every row is an ``(S, T, P)`` array of counts or byte sums per
    (candidate, tile, processor); ``T`` is the largest tile count, and a
    candidate's tiles past its own are zero.  Chunks that value-synopsis
    pruning will skip (:meth:`PlanningProblem.pruned_in_plan_mask`) are
    left out of every row: execution neither reads, aggregates nor
    forwards them.
    """

    problem: PlanningProblem
    #: accumulator chunks allocated (initialization work)
    allocs: np.ndarray
    #: (input chunk, accumulator chunk) aggregation pairs executed
    pairs: np.ndarray
    #: distinct input chunk reads and their bytes, at the input's owner
    reads: np.ndarray
    read_bytes: np.ndarray
    #: input chunks forwarded to a remote aggregating processor (local
    #: reduction): bytes out of the owner, bytes in, messages at each end
    lr_sent: np.ndarray
    lr_recv: np.ndarray
    lr_messages: np.ndarray
    #: ghost accumulators shipped to their owner (global combine): bytes
    #: out, bytes in, merges at the owner, messages at each end
    ghost_sent: np.ndarray
    ghost_recv: np.ndarray
    combine_ops: np.ndarray
    gc_messages: np.ndarray
    #: output chunks finalized and written by their owner, and the bytes
    outputs: np.ndarray
    write_bytes: np.ndarray
    #: with ``init_from_output``, the existing output chunk forwarded by
    #: its owner to every ghost holder (zero otherwise)
    init_sent: np.ndarray
    init_recv: np.ndarray

    @staticmethod
    def totals(row: np.ndarray) -> np.ndarray:
        """``(S, P)``: *row* over the whole query (exact: the grids hold
        integers, so the order of the sum does not matter)."""
        return row.sum(axis=1)

    def read_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(S, P)`` reads and read bytes over the whole query; with
        ``init_from_output`` owners also read their existing outputs."""
        reads, read_bytes = self.totals(self.reads), self.totals(self.read_bytes)
        p = self.problem
        if p.init_from_output:
            reads = reads + p.output_chunks_per_proc
            read_bytes = read_bytes + p.write_bytes_per_proc
        return reads, read_bytes


def load_grids(plans: Sequence[QueryPlan]) -> LoadGrids:
    """The :class:`LoadGrids` of *plans*, which share one problem, from
    their three decisions alone (tile of every output, accumulator
    holders, processor of every edge): the plans' own traffic tables
    (``reads``, ``input_transfers``, ``ghost_transfers``) are never
    built.  Each row is one ``np.bincount`` over every candidate at
    once, the candidate folded into the key."""
    p = plans[0].problem
    if any(plan.problem is not p for plan in plans):
        raise ValueError("plans priced together must share one problem")
    S, P, n_out = len(plans), p.n_procs, p.n_out
    T = max(max(plan.n_tiles for plan in plans), 1)
    n_in = max(p.n_in, 1)  # radix of the (candidate, tile, input) keys

    def grid(key, weights=None) -> np.ndarray:
        return np.bincount(key, weights, S * T * P).reshape(S, T, P)

    def stacked(rows) -> np.ndarray:  # np.stack, in one C call
        return np.concatenate(rows).reshape(S, -1)

    # (candidate, tile) of every output chunk, as one index, and the
    # output chunk of every (candidate, output) position
    out_st = stacked([plan.tile_of_output for plan in plans])
    out_st += T * np.arange(S)[:, None]
    out_of = np.arange(S * n_out) % max(n_out, 1)
    out_base = out_st.ravel() * P

    # Edges of chunks that pruning will skip leave here, once.
    edge_in, edge_out = p.graph.edge_arrays()
    edge_proc = stacked([plan.edge_proc for plan in plans])
    edge_owner = p.edge_owner
    pruned = p.pruned_in_plan_mask()
    if pruned is not None:
        keep = ~pruned[edge_in]
        edge_in, edge_out, edge_owner = edge_in[keep], edge_out[keep], edge_owner[keep]
        edge_proc = edge_proc[:, keep]
    edge_st = out_st[:, edge_out]
    edge_read = edge_st * n_in + edge_in

    # A chunk is read once per tile that aggregates it, by its owner,
    # and forwarded once per tile to every other processor aggregating it.
    r_st, r_chunk = np.divmod(np.unique(edge_read), n_in)
    read_at = r_st * P + p.input_owner[r_chunk]
    remote = edge_proc != edge_owner
    f_read, f_dst = np.divmod(np.unique((edge_read * P + edge_proc)[remote]), P)
    f_st, f_chunk = np.divmod(f_read, n_in)
    f_st *= P
    sent_at, recv_at = f_st + p.input_owner[f_chunk], f_st + f_dst
    f_bytes = p.inputs.nbytes[f_chunk]

    # Every holder allocates the accumulator; non-owners hold ghosts.
    counts = np.diff(stacked([plan.holders_indptr for plan in plans])).ravel()
    h_st = np.repeat(out_base, counts)
    h_out = np.repeat(out_of, counts)
    holder = np.concatenate([plan.holders_ids for plan in plans])
    owner = p.output_owner[h_out]
    ghost = holder != owner
    g_out = h_out[ghost]
    g_from, g_to = (h_st + holder)[ghost], (h_st + owner)[ghost]
    g_bytes = p.acc_nbytes[g_out]
    i_bytes = p.outputs.nbytes[g_out] if p.init_from_output else np.zeros(len(g_out))

    out_at = out_base + p.output_owner[out_of]
    combine_ops = grid(g_to)
    return LoadGrids(
        problem=p,
        allocs=grid(h_st + holder),
        pairs=grid((edge_st * P + edge_proc).ravel()),
        reads=grid(read_at),
        read_bytes=grid(read_at, p.inputs.nbytes[r_chunk]),
        lr_sent=grid(sent_at, f_bytes),
        lr_recv=grid(recv_at, f_bytes),
        lr_messages=grid(sent_at) + grid(recv_at),
        ghost_sent=grid(g_from, g_bytes),
        ghost_recv=grid(g_to, g_bytes),
        combine_ops=combine_ops,
        gc_messages=grid(g_from) + combine_ops,
        outputs=grid(out_at),
        write_bytes=grid(out_at, p.outputs.nbytes[out_of]),
        init_sent=grid(g_to, i_bytes),
        init_recv=grid(g_from, i_bytes),
    )


@dataclass(frozen=True)
class PlanStats:
    """Per-processor work/traffic totals for one plan.

    All arrays have shape ``(n_procs,)``.
    """

    strategy: str
    n_procs: int
    n_tiles: int
    #: accumulator chunk allocations (initialization work)
    init_chunks: np.ndarray
    #: (input chunk, accumulator chunk) aggregation pairs executed
    reduction_pairs: np.ndarray
    #: ghost accumulator chunks merged at the owner (combine work)
    combine_ops: np.ndarray
    #: output chunks finalized and written (output-handling work)
    output_chunks: np.ndarray
    #: distinct disk reads and bytes read from local disks
    read_count: np.ndarray
    read_bytes: np.ndarray
    #: bytes written to local disks (output handling)
    write_bytes: np.ndarray
    #: bytes sent / received over the network
    sent_bytes: np.ndarray
    recv_bytes: np.ndarray

    # -- aggregate views -------------------------------------------------

    @property
    def comm_bytes_per_proc(self) -> np.ndarray:
        """Send + receive volume per processor (Figure 9 a/b metric)."""
        return self.sent_bytes + self.recv_bytes

    @property
    def total_comm_bytes(self) -> int:
        return int(self.sent_bytes.sum())

    @property
    def load_imbalance(self) -> float:
        """max/mean of reduction pairs across processors (1.0 = perfect)."""
        mean = self.reduction_pairs.mean()
        return float(self.reduction_pairs.max() / mean) if mean > 0 else 1.0

    def table_row(self) -> str:
        return (
            f"{self.strategy:>6} | tiles {self.n_tiles:3d} | "
            f"comm/proc {self.comm_bytes_per_proc.mean() / 2**20:9.1f} MB | "
            f"read/proc {self.read_bytes.mean() / 2**20:9.1f} MB | "
            f"pairs max/mean {self.load_imbalance:5.2f}"
        )


def plan_stats(plan: QueryPlan) -> PlanStats:
    """The whole-query totals of *plan*'s :class:`LoadGrids`."""
    p = plan.problem
    g = load_grids([plan])

    def total(row: np.ndarray) -> np.ndarray:
        return g.totals(row)[0].astype(np.int64)

    read_count, read_bytes = (r[0].astype(np.int64) for r in g.read_totals())
    return PlanStats(
        strategy=plan.strategy,
        n_procs=p.n_procs,
        n_tiles=plan.n_tiles,
        init_chunks=total(g.allocs),
        reduction_pairs=total(g.pairs),
        combine_ops=total(g.combine_ops),
        # plan-independent rows come from the problem's shared substrate
        output_chunks=p.output_chunks_per_proc,
        read_count=read_count,
        read_bytes=read_bytes,
        write_bytes=p.write_bytes_per_proc,
        sent_bytes=total(g.lr_sent + g.ghost_sent + g.init_sent),
        recv_bytes=total(g.lr_recv + g.ghost_recv + g.init_recv),
    )
