"""Closed-form cost models.

Section 6 of the paper: "One of the long-term goals of our work on
query planning strategies is to develop simple but reasonably accurate
cost models to guide and automate the selection of an appropriate
strategy."  This module is that future work: it estimates a plan's
execution time phase by phase from its load grids
(:func:`~repro.planner.stats.load_grids`) and the machine
description, assuming the execution service overlaps I/O,
communication and computation within each phase (so a phase costs
about the busiest processor's busiest resource).  The selection itself
is :func:`repro.planner.select.choose_strategy`, which prices every
candidate in one :meth:`CostModel.estimate_many` call.

The cost-model-accuracy bench compares these estimates against the
discrete-event simulator across the paper's whole experiment grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.plan import QueryPlan
from repro.planner.stats import load_grids

__all__ = ["CostModel", "CostEstimate"]


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
        return self.estimate_many([plan])[0]

    def estimate_many(self, plans: Sequence[QueryPlan]) -> List[CostEstimate]:
        """Price candidate plans of one problem in one stacked pass over
        their :func:`~repro.planner.stats.load_grids`.

        Both granularities apply the same per-resource formulas: the
        refined model to every tile's grid, then a barrier after each
        phase (the busiest processor per tile, tiles one after another);
        the simple model to the whole-query totals, as one tile.
        """
        g = load_grids(plans)
        m, c, p = self.machine, self.costs, g.problem
        disk_bw = m.disk_bandwidth * (m.disks_per_node if self.per_tile else 1)

        def rows(row: np.ndarray) -> np.ndarray:
            if self.per_tile or row.shape[1] == 1:
                return row
            return g.totals(row)[:, None, :]

        # Initialization: accumulator allocations.
        init = c.init * rows(g.allocs)

        # Local reduction: the busiest processor's busiest resource
        # (disk, CPU, NIC), since operations pipeline within the phase;
        # message handling is processor-driven (cpu_per_byte).
        io = rows(g.reads) * m.disk_seek + rows(g.read_bytes) / disk_bw
        sent, recv = rows(g.lr_sent), rows(g.lr_recv)
        cpu = c.reduction * rows(g.pairs) + (sent + recv) * m.cpu_per_byte
        net = np.maximum(sent, recv) / m.link_bandwidth
        reduction = np.maximum(np.maximum(io, cpu), net)

        # Global combine: ghost shipment + merge at the owner.
        sent, recv = rows(g.ghost_sent), rows(g.ghost_recv)
        combine = np.maximum(
            np.maximum(sent, recv) / m.link_bandwidth,
            c.combine * rows(g.combine_ops) + (sent + recv) * m.cpu_per_byte,
        )

        # Output handling: finalize + write locally.
        outs = rows(g.outputs)
        output = c.output * outs + outs * m.disk_seek + rows(g.write_bytes) / disk_bw

        # Busiest processor per tile, tiles one after another: a running
        # sum adds them in order, so padding tiles change no bit of a
        # candidate's cost.  -> (phase, candidate)
        phases = np.concatenate([init, reduction, combine, output]).max(axis=2)
        phases = phases.reshape(4, len(plans), -1)
        cost = np.cumsum(phases, axis=2)[:, :, -1]
        if p.init_from_output:
            # Owners re-read and forward the existing output, charged at
            # whole-query granularity (it is rare and small).
            whole = c.init * g.totals(g.allocs).max(axis=1)
            whole += g.totals(g.init_recv).max(axis=1) / m.link_bandwidth
            whole += (
                p.output_chunks_per_proc.max(initial=0) * m.disk_seek
                + float(p.write_bytes_per_proc.max()) / m.disk_bandwidth
            )
            cost[0] = np.maximum(cost[0], whole)
        return [
            CostEstimate(plan.strategy, *phase_costs)
            for plan, phase_costs in zip(plans, cost.T.tolist())
        ]
