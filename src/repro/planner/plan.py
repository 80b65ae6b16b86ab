"""Query plans.

A :class:`QueryPlan` is the common product of every strategy (FRA,
SRA, DA, hybrid).  Its representation generalizes all of them with
three decisions:

- ``tile_of_output`` -- which tile (processing round) each output
  chunk belongs to;
- ``holders`` -- which processors hold an accumulator chunk for each
  output chunk (the owner always does; additional holders are ghost
  chunks);
- ``edge_proc`` -- for every (input chunk, output chunk) incidence,
  the processor that performs that aggregation.

All execution-relevant traffic derives mechanically from those three:

- *reads*: an input chunk is read (from its owner's local disk) in
  every tile where at least one of its edges is active;
- *input transfers*: an edge processed away from the input owner's
  processor forwards the input chunk there (the DA communication);
- *ghost transfers*: every non-owner holder ships its accumulator
  chunk to the owner in the global-combine phase (the FRA/SRA
  communication);
- *init transfers*: with ``init_from_output``, owners forward the
  existing output chunk to every other holder during initialization.

The derived traffic tables are cached NumPy recarray-style tuples, and
both the functional engine and the discrete-event simulator consume
them, so correctness tests on one engine pin down the quantities the
other one times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.planner.problem import PlanningProblem
from repro.util.arrays import tally, unique_rows

__all__ = ["QueryPlan", "Transfers", "Reads"]


@dataclass(frozen=True)
class Reads:
    """Distinct disk reads: parallel arrays (tile, chunk, proc)."""

    tile: np.ndarray
    chunk: np.ndarray
    proc: np.ndarray

    def __len__(self) -> int:
        return len(self.tile)


@dataclass(frozen=True)
class Transfers:
    """Distinct point-to-point sends: (tile, chunk, src, dst)."""

    tile: np.ndarray
    chunk: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def __len__(self) -> int:
        return len(self.tile)

    def total_bytes(self, chunk_nbytes: np.ndarray) -> int:
        return int(chunk_nbytes[self.chunk].sum())


@dataclass
class QueryPlan:
    strategy: str
    problem: PlanningProblem
    n_tiles: int
    tile_of_output: np.ndarray
    holders_indptr: np.ndarray
    holders_ids: np.ndarray
    edge_proc: np.ndarray

    def __post_init__(self) -> None:
        p = self.problem
        self.tile_of_output = np.asarray(self.tile_of_output, dtype=np.int64)
        self.holders_indptr = np.asarray(self.holders_indptr, dtype=np.int64)
        self.holders_ids = np.asarray(self.holders_ids, dtype=np.int64)
        self.edge_proc = np.asarray(self.edge_proc, dtype=np.int64)
        if self.tile_of_output.shape != (p.n_out,):
            raise ValueError("tile_of_output must have one entry per output chunk")
        if self.holders_indptr.shape != (p.n_out + 1,):
            raise ValueError("holders_indptr must be (n_out + 1,)")
        if self.edge_proc.shape != (p.graph.n_edges,):
            raise ValueError("edge_proc must have one entry per graph edge")

    # -- accumulator placement ------------------------------------------

    def holders_of(self, output_id: int) -> np.ndarray:
        """Processors holding an accumulator chunk for *output_id*."""
        return self.holders_ids[
            self.holders_indptr[output_id] : self.holders_indptr[output_id + 1]
        ]

    @cached_property
    def n_holder_entries(self) -> int:
        return int(len(self.holders_ids))

    @cached_property
    def ghost_count(self) -> int:
        """Total ghost chunk allocations (holders beyond the owner)."""
        return self.n_holder_entries - self.problem.n_out

    # -- edges ------------------------------------------------------------

    @cached_property
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(edge_in, edge_out) aligned with ``edge_proc``."""
        return self.problem.graph.edge_arrays()

    @cached_property
    def edge_tile(self) -> np.ndarray:
        _, edge_out = self.edge_arrays
        return self.tile_of_output[edge_out]

    # -- derived traffic -----------------------------------------------------

    @cached_property
    def reads(self) -> Reads:
        """Distinct input chunk reads (tile, chunk, reading proc).

        An input chunk intersecting several tiles is read once per
        tile -- the multiple-retrieval cost the tiling step tries to
        minimize via Hilbert ordering.
        """
        edge_in, _ = self.edge_arrays
        tile, chunk = unique_rows(self.edge_tile, edge_in)
        proc = self.problem.input_owner[chunk].astype(np.int64)
        return Reads(tile, chunk, proc)

    @cached_property
    def input_transfers(self) -> Transfers:
        """Input chunks forwarded to remote processors (DA / hybrid)."""
        edge_in, _ = self.edge_arrays
        remote = self.edge_proc != self.problem.edge_owner
        tile, chunk, dst = unique_rows(
            self.edge_tile[remote], edge_in[remote], self.edge_proc[remote]
        )
        src = self.problem.input_owner[chunk].astype(np.int64)
        return Transfers(tile, chunk, src, dst)

    @cached_property
    def ghost_transfers(self) -> Transfers:
        """Ghost accumulator chunks shipped to owners at global combine."""
        p = self.problem
        counts = np.diff(self.holders_indptr)
        out_ids = np.repeat(np.arange(p.n_out, dtype=np.int64), counts)
        holder = self.holders_ids
        owner = p.output_owner[out_ids].astype(np.int64)
        ghost = holder != owner
        return Transfers(
            tile=self.tile_of_output[out_ids[ghost]],
            chunk=out_ids[ghost],
            src=holder[ghost],
            dst=owner[ghost],
        )

    @cached_property
    def init_transfers(self) -> Transfers:
        """Existing-output forwarding during initialization (phase 1)."""
        if not self.problem.init_from_output:
            empty = np.empty(0, dtype=np.int64)
            return Transfers(empty, empty.copy(), empty.copy(), empty.copy())
        g = self.ghost_transfers
        # Same pairs, opposite direction: owner -> every other holder.
        return Transfers(g.tile.copy(), g.chunk.copy(), g.dst.copy(), g.src.copy())

    # -- headline numbers --------------------------------------------------------

    @cached_property
    def total_read_bytes(self) -> int:
        return int(self.problem.inputs.nbytes[self.reads.chunk].sum())

    @cached_property
    def read_multiplicity(self) -> float:
        """Mean times each participating input chunk is read."""
        edge_in, _ = self.edge_arrays
        n_distinct = len(np.unique(edge_in))
        return len(self.reads) / n_distinct if n_distinct else 0.0

    @cached_property
    def total_comm_bytes(self) -> int:
        p = self.problem
        return (
            self.input_transfers.total_bytes(p.inputs.nbytes)
            + self.ghost_transfers.total_bytes(p.acc_nbytes)
            + self.init_transfers.total_bytes(p.outputs.nbytes)
        )

    def comm_bytes_per_proc(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sent, received) byte volumes per processor."""
        p = self.problem
        sent = np.zeros(p.n_procs, dtype=np.int64)
        recv = np.zeros(p.n_procs, dtype=np.int64)
        for tr, sizes in (
            (self.input_transfers, p.inputs.nbytes),
            (self.ghost_transfers, p.acc_nbytes),
            (self.init_transfers, p.outputs.nbytes),
        ):
            if len(tr):
                nbytes = sizes[tr.chunk]
                sent += tally(tr.src, nbytes, p.n_procs)
                recv += tally(tr.dst, nbytes, p.n_procs)
        return sent, recv

    # -- execution schedule ---------------------------------------------------

    def schedule(self):
        """The plan's cached :class:`repro.runtime.phases.PhaseSchedule`.

        One derivation of everything schedule-shaped -- per-tile
        read/transfer/output orders and per-(tile, processor) work
        tallies -- shared by the phase
        executor and the discrete-event simulator.
        Imported lazily: the planner package stays importable without
        the runtime layer.
        """
        sched = self.__dict__.get("_phase_schedule")
        if sched is None:
            from repro.runtime.phases import PhaseSchedule

            sched = PhaseSchedule(self)
            self.__dict__["_phase_schedule"] = sched
        return sched

    def summary(self) -> str:
        sent, _ = self.comm_bytes_per_proc()
        return (
            f"{self.strategy}: {self.n_tiles} tiles, "
            f"{self.ghost_count} ghosts, "
            f"reads {self.total_read_bytes / 2**20:.1f} MB "
            f"(x{self.read_multiplicity:.2f}), "
            f"comm {self.total_comm_bytes / 2**20:.1f} MB total "
            f"({sent.max() / 2**20:.1f} MB max/proc)"
        )
