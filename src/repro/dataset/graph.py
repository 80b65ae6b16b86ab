"""Bipartite input/output chunk incidence graph.

Query planning never looks at item-level data: what the tiling and
workload-partitioning algorithms need is, for every output chunk, the
set of input chunks that map to it (and the inverse).  This module
stores that bipartite incidence in CSR form in both directions, so

- ``inputs_of(o)`` (fan-in lists) drives step 15 of the FRA algorithm
  and step 5 of SRA,
- ``outputs_of(i)`` (fan-out lists) drives DA input forwarding,

both as O(degree) array slices.  The paper's Section 6 observes that
this structure *is* a multigraph suitable for graph partitioning; the
hybrid strategy consumes it directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.space.mapping import Mapping
from repro.util.arrays import csr_indptr, frozen, unique_rows

__all__ = ["ChunkGraph"]

#: (input, output) MBR pairs compared per broadcast in ``from_geometry``
#: (bounds the temporaries; populations reach 10^4 x 10^4 chunks).
_PAIRS_PER_BLOCK = 1 << 20


class ChunkGraph:
    """CSR incidence between ``n_in`` input and ``n_out`` output chunks.

    Every array the graph hands out is shared between the planners that
    read it and is therefore read-only.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        in_ids: np.ndarray,
        out_ids: np.ndarray,
    ) -> None:
        """Build from parallel COO edge arrays (duplicates are merged)."""
        if n_in < 0 or n_out < 0:
            raise ValueError("chunk counts must be non-negative")
        in_ids = np.asarray(in_ids, dtype=np.int64)
        out_ids = np.asarray(out_ids, dtype=np.int64)
        if in_ids.shape != out_ids.shape or in_ids.ndim != 1:
            raise ValueError("in_ids/out_ids must be matching 1-D arrays")
        if len(in_ids) and (
            in_ids.min() < 0
            or in_ids.max() >= n_in
            or out_ids.min() < 0
            or out_ids.max() >= n_out
        ):
            raise ValueError("edge endpoints outside chunk id ranges")
        self._set_edges(n_in, n_out, *unique_rows(in_ids, out_ids))

    def _set_edges(
        self, n_in: int, n_out: int, edge_in: np.ndarray, edge_out: np.ndarray
    ) -> None:
        """Both CSR directions from distinct edges sorted by (in, out)."""
        self.n_in = n_in
        self.n_out = n_out
        self._edge_in = frozen(edge_in)
        # input -> outputs (fan-out lists): the sorted edge list itself
        self._fwd_indptr = frozen(csr_indptr(edge_in, n_in))
        self._fwd_ids = frozen(edge_out)
        # output -> inputs (fan-in lists): a stable sort by output keeps
        # the inputs of one output ascending
        self._rev_to_fwd = frozen(np.argsort(edge_out, kind="stable"))
        self._rev_indptr = frozen(csr_indptr(edge_out, n_out))
        self._rev_ids = frozen(edge_in[self._rev_to_fwd])

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_lists(n_in: int, n_out: int, outputs_per_input: Sequence[Iterable[int]]) -> "ChunkGraph":
        """Build from a per-input-chunk list of mapped output chunks."""
        if len(outputs_per_input) != n_in:
            raise ValueError("need one output list per input chunk")
        in_ids: list[int] = []
        out_ids: list[int] = []
        for i, outs in enumerate(outputs_per_input):
            for o in outs:
                in_ids.append(i)
                out_ids.append(int(o))
        return ChunkGraph(
            n_in, n_out, np.asarray(in_ids, dtype=np.int64), np.asarray(out_ids, dtype=np.int64)
        )

    @staticmethod
    def from_geometry(
        inputs: ChunkSet, outputs: ChunkSet, mapping: Mapping
    ) -> "ChunkGraph":
        """Derive the incidence by projecting input MBRs into the
        output space and intersecting with output MBRs.

        This is how a real ADR instance computes the graph: the
        mapping's chunk-level projection (Section 3, step 15 remark)
        gives, per input chunk, the output chunks it may touch.
        """
        n_in, n_out = len(inputs), len(outputs)
        los, his = mapping.project_rects(inputs.los, inputs.his)
        step = max(1, _PAIRS_PER_BLOCK // max(n_out, 1))
        in_parts, out_parts = [], []
        for s in range(0, max(n_in, 1), step):  # once even without inputs
            hit = (
                (outputs.los <= his[s : s + step, None])
                & (los[s : s + step, None] <= outputs.his)
            ).all(axis=2)
            ii, oo = np.nonzero(hit)
            in_parts.append(ii + s)
            out_parts.append(oo)
        # np.nonzero walks row-major: the edges come out distinct and
        # sorted by (in, out), which is what the CSR build starts from.
        graph = ChunkGraph.__new__(ChunkGraph)
        graph._set_edges(
            n_in, n_out, np.concatenate(in_parts), np.concatenate(out_parts)
        )
        return graph

    # -- adjacency ---------------------------------------------------------

    def outputs_of(self, input_id: int) -> np.ndarray:
        """Output chunk ids the given input chunk maps to (sorted)."""
        return self._fwd_ids[self._fwd_indptr[input_id] : self._fwd_indptr[input_id + 1]]

    def inputs_of(self, output_id: int) -> np.ndarray:
        """Input chunk ids mapping to the given output chunk (sorted)."""
        return self._rev_ids[self._rev_indptr[output_id] : self._rev_indptr[output_id + 1]]

    @property
    def n_edges(self) -> int:
        return int(len(self._fwd_ids))

    # -- degree statistics ----------------------------------------------------

    @property
    def fan_out(self) -> np.ndarray:
        """Per-input-chunk number of mapped output chunks."""
        return np.diff(self._fwd_indptr)

    @property
    def fan_in(self) -> np.ndarray:
        """Per-output-chunk number of mapping input chunks."""
        return np.diff(self._rev_indptr)

    @property
    def avg_fan_out(self) -> float:
        return float(self.fan_out.mean()) if self.n_in else 0.0

    @property
    def avg_fan_in(self) -> float:
        return float(self.fan_in.mean()) if self.n_out else 0.0

    # -- bulk views (planner hot path) ---------------------------------------

    @property
    def forward_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the input->outputs adjacency."""
        return self._fwd_indptr, self._fwd_ids

    @property
    def reverse_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the output->inputs adjacency."""
        return self._rev_indptr, self._rev_ids

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All edges as parallel ``(in_ids, out_ids)`` arrays, in
        forward-CSR order."""
        return self._edge_in, self._fwd_ids

    @property
    def reverse_to_forward(self) -> np.ndarray:
        """For each reverse-CSR edge slot, its index in the forward CSR,
        so per-output edge assignments can write into forward-aligned
        arrays without a search per edge."""
        return self._rev_to_fwd

    def validate(self) -> None:
        """Internal consistency check: both directions describe the
        same edge set.  Used by tests and the plan validator."""
        fwd_in, fwd_out = self.edge_arrays()
        rev_out = np.repeat(np.arange(self.n_out, dtype=np.int64), self.fan_in)
        rev_in = self._rev_ids
        a = np.lexsort((fwd_out, fwd_in))
        b = np.lexsort((rev_out, rev_in))
        if not (
            np.array_equal(fwd_in[a], rev_in[b])
            and np.array_equal(fwd_out[a], rev_out[b])
        ):
            raise AssertionError("forward/reverse CSR views disagree")
