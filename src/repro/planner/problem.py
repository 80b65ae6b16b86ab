"""The planner's input: a query-restricted planning problem.

Planning operates on the chunks a range query selects, not whole
datasets.  A :class:`PlanningProblem` is that dense sub-universe:
input chunks (with sizes and placements), output/accumulator chunks
(sizes, accumulator sizes, placements, centers for Hilbert ordering)
and the bipartite incidence between them.  :func:`select_chunks` runs
a range query against one chunk population and
:meth:`QuerySelection.problem` turns the selection into a problem --
the one builder behind ``ADR.build_problem`` and ``ShardRouter.plan``;
emulators construct problems directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.util.arrays import csr_indptr, frozen, tally

__all__ = ["PlanningProblem", "QuerySelection", "select_chunks"]


@dataclass
class PlanningProblem:
    """Everything tiling and workload partitioning need.

    Attributes
    ----------
    n_procs:
        Back-end processors (one node == one processor, as on the SP).
    memory_per_proc:
        Accumulator memory budget per processor, bytes.  Scalar or
        ``(n_procs,)`` array.
    inputs, outputs:
        Placed chunk populations selected by the query (dense local
        ids).  ``inputs.node`` / ``outputs.node`` are the owners.
    graph:
        Input -> output chunk incidence over the dense local ids.
    acc_nbytes:
        Accumulator bytes per output chunk; defaults to the output
        chunk size, but accumulators are typically wider (running sums,
        counts, best-value metadata), which is the knob the paper's
        applications differ on.
    init_from_output:
        True when accumulator initialization must read the existing
        output dataset (phase-1 retrieval + forwarding).
    hilbert_bits:
        Order of the Hilbert curve used to sort output chunks.  The keys
        are the outputs' own (:meth:`ChunkSet.hilbert_keys`): a problem
        built by :meth:`QuerySelection.problem` has outputs cut from
        the placed output grid, so they follow the curve over the whole
        grid restricted to the query; one built directly fits the curve
        to its outputs' bounding box.
    """

    n_procs: int
    memory_per_proc: np.ndarray
    inputs: ChunkSet
    outputs: ChunkSet
    graph: ChunkGraph
    acc_nbytes: Optional[np.ndarray] = None
    init_from_output: bool = False
    hilbert_bits: int = 16
    #: Original dataset chunk ids behind the dense local ids (set when
    #: the problem was restricted to a range query); default identity.
    input_global_ids: Optional[np.ndarray] = None
    output_global_ids: Optional[np.ndarray] = None
    #: Global ids of chunks that spatially intersect the query but were
    #: dropped by value-synopsis pruning before planning, and the input
    #: bytes those reads would have cost.  Informational: the planner
    #: never sees pruned chunks, so plans and schedules are simply built
    #: over the surviving inputs.
    pruned_input_ids: Optional[np.ndarray] = None
    pruned_bytes: int = 0

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        mem = np.asarray(self.memory_per_proc, dtype=np.int64)
        if mem.ndim == 0:
            mem = np.full(self.n_procs, int(mem), dtype=np.int64)
        if mem.shape != (self.n_procs,):
            raise ValueError("memory_per_proc must be scalar or (n_procs,)")
        if np.any(mem <= 0):
            raise ValueError("memory budgets must be positive")
        self.memory_per_proc = mem
        if self.graph.n_in != len(self.inputs) or self.graph.n_out != len(self.outputs):
            raise ValueError("graph shape does not match chunk populations")
        if not self.inputs.placed or not self.outputs.placed:
            raise ValueError("planning requires placed chunks (run declustering first)")
        if self.inputs.node.max(initial=-1) >= self.n_procs or self.outputs.node.max(initial=-1) >= self.n_procs:
            raise ValueError("chunk placements reference processors beyond n_procs")
        if self.acc_nbytes is None:
            self.acc_nbytes = self.outputs.nbytes.copy()
        else:
            self.acc_nbytes = np.asarray(self.acc_nbytes, dtype=np.int64)
            if self.acc_nbytes.shape != (len(self.outputs),):
                raise ValueError("acc_nbytes must have one entry per output chunk")
            if np.any(self.acc_nbytes < 0):
                raise ValueError("acc_nbytes must be non-negative")
        if self.input_global_ids is None:
            self.input_global_ids = np.arange(len(self.inputs), dtype=np.int64)
        else:
            self.input_global_ids = np.asarray(self.input_global_ids, dtype=np.int64)
            if self.input_global_ids.shape != (len(self.inputs),):
                raise ValueError("input_global_ids must parallel the input chunks")
        if self.output_global_ids is None:
            self.output_global_ids = np.arange(len(self.outputs), dtype=np.int64)
        else:
            self.output_global_ids = np.asarray(self.output_global_ids, dtype=np.int64)
            if self.output_global_ids.shape != (len(self.outputs),):
                raise ValueError("output_global_ids must parallel the output chunks")
        if self.pruned_input_ids is None:
            self.pruned_input_ids = np.empty(0, dtype=np.int64)
        else:
            self.pruned_input_ids = np.asarray(self.pruned_input_ids, dtype=np.int64)
            if self.pruned_input_ids.ndim != 1:
                raise ValueError("pruned_input_ids must be a 1-d id array")
        self.pruned_bytes = int(self.pruned_bytes)
        if self.pruned_bytes < 0:
            raise ValueError("pruned_bytes must be non-negative")

    # -- convenient views ------------------------------------------------

    # the graph's sizes, checked equal to the populations' at construction
    @property
    def n_in(self) -> int:
        return self.graph.n_in

    @property
    def n_out(self) -> int:
        return self.graph.n_out

    @property
    def n_pruned(self) -> int:
        """Input chunks dropped by value-synopsis pruning."""
        return len(self.pruned_input_ids)

    @property
    def input_owner(self) -> np.ndarray:
        return self.inputs.node

    @property
    def output_owner(self) -> np.ndarray:
        return self.outputs.node

    def output_hilbert_order(self) -> np.ndarray:
        """Output chunk ids in the tiling selection order (Section 3)."""
        return self._hilbert_order

    # -- strategy-invariant substrate --------------------------------------
    #
    # Derived on first use, once per problem, and shared read-only by
    # every planner, every plan's traffic tables and the load grids the
    # cost models price: ``strategy='auto'`` plans one problem four
    # times.  Nothing here may depend on ``init_from_output``, which
    # callers set after construction (``ADR.update``).

    @cached_property
    def _hilbert_order(self) -> np.ndarray:
        return frozen(self.outputs.hilbert_order(self.hilbert_bits))

    @cached_property
    def edge_owner(self) -> np.ndarray:
        """Owner of the input chunk of every graph edge (forward order)."""
        edge_in, _ = self.graph.edge_arrays()
        return frozen(self.input_owner[edge_in].astype(np.int64))

    @cached_property
    def so_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of ``So`` per output chunk: the processors owning at least
        one input chunk that projects to it, ascending (Figure 5, step 5)."""
        _, edge_out = self.graph.edge_arrays()
        outs, procs = np.divmod(
            np.unique(edge_out * self.n_procs + self.edge_owner), self.n_procs
        )
        return frozen(csr_indptr(outs, self.n_out)), frozen(procs)

    @cached_property
    def output_chunks_per_proc(self) -> np.ndarray:
        """``(n_procs,)`` output chunks each processor owns and writes."""
        return frozen(
            np.bincount(self.output_owner, minlength=self.n_procs).astype(np.int64)
        )

    @cached_property
    def write_bytes_per_proc(self) -> np.ndarray:
        """``(n_procs,)`` output bytes each processor owns and writes."""
        return frozen(tally(self.output_owner, self.outputs.nbytes, self.n_procs))

    def procs_with_input_for(self, output_id: int) -> np.ndarray:
        """The SRA set ``So``: processors owning at least one input
        chunk that projects to *output_id* (Figure 5, step 5)."""
        ins = self.graph.inputs_of(output_id)
        return np.unique(self.input_owner[ins])

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        pruned = (
            f", pruned {self.n_pruned} ({self.pruned_bytes / 2**20:.1f} MB)"
            if self.n_pruned
            else ""
        )
        return (
            f"{self.n_in} input chunks ({self.inputs.total_bytes / 2**20:.1f} MB) -> "
            f"{self.n_out} output chunks ({self.outputs.total_bytes / 2**20:.1f} MB, "
            f"acc {int(self.acc_nbytes.sum()) / 2**20:.1f} MB) on {self.n_procs} procs, "
            f"fan-in {self.graph.avg_fan_in:.1f}, fan-out {self.graph.avg_fan_out:.2f}"
            f"{pruned}"
        )


@dataclass(frozen=True)
class QuerySelection:
    """What a range query selects from one chunk population: the
    dataset-global input and output chunk ids every later step works
    from.  ``pruned_ids`` are the inputs whose value synopsis rules out
    the query's predicate, dropped from ``in_ids``."""

    query: object
    chunks: ChunkSet
    in_ids: np.ndarray
    pruned_ids: np.ndarray
    #: the placed chunk population of the whole output grid
    grid_chunks: ChunkSet
    out_ids: np.ndarray

    @property
    def pruned_bytes(self) -> int:
        """Input bytes the pruned chunks would have cost to read."""
        return int(self.chunks.nbytes[self.pruned_ids].sum())

    def problem(
        self,
        n_procs: int,
        memory_per_proc,
        input_node: Optional[np.ndarray] = None,
    ) -> PlanningProblem:
        """Derive the chunk graph geometrically and size the
        accumulators.  *input_node* re-places the selected inputs (one
        owner per entry of ``in_ids``, disk 0); by default they keep the
        placement ``chunks`` carries.  The outputs keep the grid's
        Hilbert keys, so tiling walks the output grid's curve (ties by
        grid chunk id)."""
        inputs = self.chunks.subset(self.in_ids)
        if input_node is not None:
            inputs = inputs.with_placement(
                input_node, np.zeros(len(self.in_ids), dtype=np.int64)
            )
        outputs = self.grid_chunks.subset(self.out_ids)
        graph = ChunkGraph.from_geometry(inputs, outputs, self.query.mapping)
        spec = self.query.spec()
        acc_nbytes = np.asarray(
            [spec.acc_bytes(cells) for cells in outputs.n_items.tolist()],
            dtype=np.int64,
        )
        return PlanningProblem(
            n_procs=n_procs,
            memory_per_proc=memory_per_proc,
            inputs=inputs,
            outputs=outputs,
            graph=graph,
            acc_nbytes=acc_nbytes,
            input_global_ids=self.in_ids,
            output_global_ids=self.out_ids,
            pruned_input_ids=self.pruned_ids,
            pruned_bytes=self.pruned_bytes,
        )


def select_chunks(query, space, index, chunks: ChunkSet, placed_grids) -> QuerySelection:
    """Restrict the universe to *query*: select the intersecting input
    chunks of *chunks* through *index*, drop those whose value synopsis
    rules out the ``where`` predicate, and project the region onto the
    output grid (placed once per grid by *placed_grids*).

    A pruned chunk is never planned, scheduled or read -- the kernels
    re-apply the predicate exactly to every surviving chunk, so pruning
    cannot change results.
    """
    region = space.validate_query(query.region)
    in_ids = index.query(region)
    if len(in_ids) == 0:
        raise ValueError(f"query region {region} selects no input chunks")

    pruned_ids = np.empty(0, dtype=np.int64)
    predicate = query.predicate()
    if predicate is not None and chunks.synopsis is not None:
        prunable = predicate.prunable_chunks(chunks.synopsis.subset(in_ids))
        pruned_ids = in_ids[prunable]
        in_ids = in_ids[~prunable]
        if len(in_ids) == 0:
            raise ValueError(
                f"query region {region} selects no input chunks after "
                f"value-synopsis pruning (predicate excluded all "
                f"{len(pruned_ids)} intersecting chunks)"
            )

    grid_chunks = placed_grids.get(query.grid)
    out_ids = grid_chunks.intersecting(query.mapping.project_rect(region))
    if len(out_ids) == 0:
        raise ValueError("query region projects onto no output chunks")
    return QuerySelection(query, chunks, in_ids, pruned_ids, grid_chunks, out_ids)
