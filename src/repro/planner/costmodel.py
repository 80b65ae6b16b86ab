"""Closed-form cost models and automatic strategy selection.

Section 6 of the paper: "One of the long-term goals of our work on
query planning strategies is to develop simple but reasonably accurate
cost models to guide and automate the selection of an appropriate
strategy."  This module is that future work: it estimates a plan's
execution time phase by phase from plan statistics and the machine
description, assuming the execution service overlaps I/O,
communication and computation within each phase (so a phase costs
about the busiest processor's busiest resource).

The cost-model-accuracy bench compares these estimates against the
discrete-event simulator across the paper's whole experiment grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem
from repro.planner.stats import plan_stats
from repro.util.arrays import tally

__all__ = ["CostModel", "CostEstimate", "estimate_cost", "select_strategy"]


@dataclass(frozen=True)
class CostEstimate:
    """Estimated per-phase and total execution time, seconds."""

    strategy: str
    init: float
    reduction: float
    combine: float
    output: float

    @property
    def total(self) -> float:
        return self.init + self.reduction + self.combine + self.output

    def row(self) -> str:
        return (
            f"{self.strategy:>6}: est {self.total:8.2f} s "
            f"(I {self.init:6.2f} / LR {self.reduction:8.2f} / "
            f"GC {self.combine:6.2f} / OH {self.output:6.2f})"
        )


class CostModel:
    """Estimates plan cost on a given machine and application.

    Two granularities answer the paper's two Section-6 questions:

    - ``per_tile=False`` (default): the *simple* model -- whole-query
      per-processor totals, phase cost = busiest processor's busiest
      resource.  Accurate when tiles are homogeneous; underestimates
      when per-tile barriers dominate (many tiles, large machines),
      which is exactly "under what circumstances do the simple cost
      models provide inaccurate results".
    - ``per_tile=True``: the *refined* model -- the same resource
      reasoning applied tile by tile with a barrier after each phase,
      "how can we refine the cost model in situations where it does
      not provide reasonably accurate results".
    """

    def __init__(
        self, machine: MachineConfig, costs: ComputeCosts, per_tile: bool = False
    ) -> None:
        self.machine = machine
        self.costs = costs
        self.per_tile = per_tile

    def estimate(self, plan: QueryPlan) -> CostEstimate:
        if self.per_tile:
            return self._estimate_per_tile(plan)
        return self._estimate_simple(plan)

    # ------------------------------------------------------------------
    # Simple model: whole-query totals
    # ------------------------------------------------------------------

    def _estimate_simple(self, plan: QueryPlan) -> CostEstimate:
        m, c = self.machine, self.costs
        p = plan.problem
        P = p.n_procs
        stats = plan_stats(plan)
        pruned = p.pruned_in_plan_mask()

        # Value-synopsis pruning: chunks the backends will skip at
        # execution time contribute no reads, no aggregation pairs and
        # no forwards -- pricing them would systematically over-estimate
        # every `where=` query (and distort auto-selection rankings).
        read_count = stats.read_count.astype(float)
        read_bytes = stats.read_bytes.astype(float)
        reduction_pairs = stats.reduction_pairs.astype(float)
        it = plan.input_transfers
        t_chunk, t_src, t_dst = it.chunk, it.src, it.dst
        if pruned is not None:
            r = plan.reads
            drop = pruned[r.chunk]
            read_count -= np.bincount(r.proc[drop], minlength=P)
            read_bytes -= np.bincount(
                r.proc[drop], weights=p.inputs.nbytes[r.chunk[drop]], minlength=P
            )
            edge_in, _ = plan.edge_arrays
            edrop = pruned[edge_in]
            reduction_pairs -= np.bincount(plan.edge_proc[edrop], minlength=P)
            if len(t_chunk):
                keep = ~pruned[t_chunk]
                t_chunk, t_src, t_dst = t_chunk[keep], t_src[keep], t_dst[keep]

        # Initialization: pure CPU (plus optional output re-reads).
        t_init = c.init * stats.init_chunks.max(initial=0)
        if p.init_from_output:
            it = plan.init_transfers
            recv = tally(it.dst, p.outputs.nbytes[it.chunk], P)
            t_init += float(recv.max(initial=0)) / m.link_bandwidth
            t_init += (
                stats.output_chunks.max(initial=0) * m.disk_seek
                + float(stats.write_bytes.max()) / m.disk_bandwidth
            )

        # Local reduction: the busiest processor's busiest resource
        # (disk, CPU, NIC), since operations pipeline within the phase.
        io = read_count * m.disk_seek + read_bytes / m.disk_bandwidth
        if p.init_from_output:
            # those reads were charged to init above
            io = io - (
                stats.output_chunks * m.disk_seek
                + stats.write_bytes / m.disk_bandwidth
            )
        sent = tally(t_src, p.inputs.nbytes[t_chunk], P)
        recv = tally(t_dst, p.inputs.nbytes[t_chunk], P)
        # message handling is processor-driven (cpu_per_byte)
        cpu = c.reduction * reduction_pairs + (sent + recv) * m.cpu_per_byte
        net = np.maximum(sent, recv) / m.link_bandwidth
        t_lr = float(np.maximum(np.maximum(io, cpu), net).max(initial=0))

        # Global combine: ghost shipment + merge at the owner.
        gt = plan.ghost_transfers
        g_sent = tally(gt.src, p.acc_nbytes[gt.chunk], P)
        g_recv = tally(gt.dst, p.acc_nbytes[gt.chunk], P)
        t_gc = float(
            np.maximum(
                np.maximum(g_sent, g_recv) / m.link_bandwidth,
                c.combine * stats.combine_ops
                + (g_sent + g_recv) * m.cpu_per_byte,
            ).max(initial=0)
        )

        # Output handling: finalize + write locally.
        t_oh = float(
            (
                c.output * stats.output_chunks
                + stats.output_chunks * m.disk_seek
                + stats.write_bytes / m.disk_bandwidth
            ).max(initial=0)
        )

        return CostEstimate(plan.strategy, t_init, t_lr, t_gc, t_oh)

    # ------------------------------------------------------------------
    # Refined model: per-tile barriers
    # ------------------------------------------------------------------

    def _estimate_per_tile(self, plan: QueryPlan) -> CostEstimate:
        m, c = self.machine, self.costs
        p = plan.problem
        P = p.n_procs
        T = max(plan.n_tiles, 1)

        def grid(tile: np.ndarray, proc: np.ndarray, weights=None) -> np.ndarray:
            flat = np.bincount(tile * P + proc, weights=weights, minlength=T * P)
            return flat.astype(float).reshape(T, P)

        # Initialization: accumulator allocations per (tile, proc).
        counts = np.diff(plan.holders_indptr)
        flat_out = np.repeat(np.arange(p.n_out, dtype=np.int64), counts)
        alloc = grid(plan.tile_of_output[flat_out], plan.holders_ids)
        t_init = float((c.init * alloc).max(axis=1).sum())

        # Local reduction per tile.  As in the simple model, rows for
        # chunks that value-synopsis pruning will skip are dropped.
        pruned = p.pruned_in_plan_mask()
        r = plan.reads
        r_tile, r_proc, r_chunk = r.tile, r.proc, r.chunk
        if pruned is not None and len(r_chunk):
            keep = ~pruned[r_chunk]
            r_tile, r_proc, r_chunk = r_tile[keep], r_proc[keep], r_chunk[keep]
        io = grid(r_tile, r_proc) * m.disk_seek + grid(
            r_tile, r_proc, p.inputs.nbytes[r_chunk]
        ) / (m.disk_bandwidth * m.disks_per_node)
        edge_in, _ = plan.edge_arrays
        e_tile, e_proc = plan.edge_tile, plan.edge_proc
        if pruned is not None and len(edge_in):
            ekeep = ~pruned[edge_in]
            e_tile, e_proc = e_tile[ekeep], e_proc[ekeep]
        pairs = grid(e_tile, e_proc)
        it = plan.input_transfers
        i_tile, i_src, i_dst, i_chunk = it.tile, it.src, it.dst, it.chunk
        if pruned is not None and len(i_chunk):
            ikeep = ~pruned[i_chunk]
            i_tile, i_src = i_tile[ikeep], i_src[ikeep]
            i_dst, i_chunk = i_dst[ikeep], i_chunk[ikeep]
        sent = grid(i_tile, i_src, p.inputs.nbytes[i_chunk])
        recv = grid(i_tile, i_dst, p.inputs.nbytes[i_chunk])
        cpu = c.reduction * pairs + (sent + recv) * m.cpu_per_byte
        net = np.maximum(sent, recv) / m.link_bandwidth
        t_lr = float(np.maximum(np.maximum(io, cpu), net).max(axis=1).sum())

        # Global combine per tile.
        g = plan.ghost_transfers
        g_sent = grid(g.tile, g.src, p.acc_nbytes[g.chunk])
        g_recv = grid(g.tile, g.dst, p.acc_nbytes[g.chunk])
        g_ops = grid(g.tile, g.dst)
        gc_cpu = c.combine * g_ops + (g_sent + g_recv) * m.cpu_per_byte
        t_gc = float(
            np.maximum(np.maximum(g_sent, g_recv) / m.link_bandwidth, gc_cpu)
            .max(axis=1)
            .sum()
        )

        # Output handling per tile.
        out_tile = plan.tile_of_output
        owner = p.output_owner.astype(np.int64)
        outs = grid(out_tile, owner)
        writes = grid(out_tile, owner, p.outputs.nbytes)
        t_oh = float(
            (
                c.output * outs
                + outs * m.disk_seek
                + writes / (m.disk_bandwidth * m.disks_per_node)
            )
            .max(axis=1)
            .sum()
        )

        # Initialization-from-output: owners re-read + forward, charged
        # at whole-query granularity (it is rare and small).
        if p.init_from_output:
            base = self._estimate_simple(plan)
            extra = base.init - float(
                (c.init * alloc).max(axis=1).sum()
            )
            t_init += max(extra, 0.0)

        return CostEstimate(plan.strategy, t_init, t_lr, t_gc, t_oh)


def estimate_cost(
    plan: QueryPlan, machine: MachineConfig, costs: ComputeCosts
) -> CostEstimate:
    """Functional wrapper around :class:`CostModel`."""
    return CostModel(machine, costs).estimate(plan)


def select_strategy(
    problem: PlanningProblem,
    machine: MachineConfig,
    costs: ComputeCosts,
    strategies: Optional[Iterable[str]] = None,
) -> Tuple[QueryPlan, Dict[str, CostEstimate]]:
    """Plan with every candidate strategy, estimate each, return the
    cheapest plan plus all estimates (for reporting).

    Back-compat wrapper: the selection itself lives at the single
    choke point :func:`repro.planner.select.choose_strategy`; its
    accuracy against the simulator is quantified in
    ``benchmarks/bench_costmodel_accuracy.py``.
    """
    from repro.planner.select import FIXED_STRATEGIES, choose_strategy

    names = tuple(strategies) if strategies is not None else FIXED_STRATEGIES
    choice = choose_strategy(problem, CostModel(machine, costs), names)
    return choice.plan, choice.estimates
