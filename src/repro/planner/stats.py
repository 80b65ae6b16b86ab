"""Static plan statistics.

Everything Figure 9 measures -- communication volume and computation
work per processor -- is already determined by the plan, before any
execution.  :func:`plan_stats` extracts those per-processor totals;
the discrete-event simulator then tells how they translate into
elapsed time (overlap, contention, barriers), and the closed-form cost
model approximates the same from these numbers alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.planner.plan import QueryPlan
from repro.util.arrays import tally

__all__ = ["PlanStats", "plan_stats"]


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
    p = plan.problem
    P = p.n_procs

    init_chunks = np.bincount(plan.holders_ids, minlength=P).astype(np.int64)

    reduction_pairs = np.bincount(plan.edge_proc, minlength=P).astype(np.int64)

    g = plan.ghost_transfers
    combine_ops = np.bincount(g.dst, minlength=P).astype(np.int64) if len(g) else np.zeros(P, dtype=np.int64)

    # plan-independent rows come from the problem's shared substrate
    output_chunks = p.output_chunks_per_proc
    write_bytes = p.write_bytes_per_proc

    r = plan.reads
    read_count = np.bincount(r.proc, minlength=P).astype(np.int64)
    read_bytes = tally(r.proc, p.inputs.nbytes[r.chunk], P)
    if p.init_from_output:
        # Owners also read the existing output chunks once per tile.
        read_bytes += write_bytes
        read_count += output_chunks

    sent_bytes, recv_bytes = plan.comm_bytes_per_proc()

    return PlanStats(
        strategy=plan.strategy,
        n_procs=P,
        n_tiles=plan.n_tiles,
        init_chunks=init_chunks,
        reduction_pairs=reduction_pairs,
        combine_ops=combine_ops,
        output_chunks=output_chunks,
        read_count=read_count,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        sent_bytes=sent_bytes,
        recv_bytes=recv_bytes,
    )
