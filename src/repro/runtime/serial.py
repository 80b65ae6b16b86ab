"""Serial reference execution of the basic processing loop.

A direct transcription of the paper's Figure 1 on one processor with
unlimited memory: no tiling, no partitioning, no communication.  Every
parallel strategy is tested against this oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.space.mapping import GridMapping
from repro.util.cells import expand_cell_ranges
from repro.util.geometry import Rect

__all__ = ["execute_serial", "map_chunk_to_cells", "filter_items"]


def filter_items(chunk: Chunk, region: Optional[Rect]) -> np.ndarray:
    """Indices of the chunk's items inside the range query.

    Chunks are the unit of *retrieval*, but the paper's semantics are
    item-level: "only the data items whose associated coordinates fall
    within the multi-dimensional box are retrieved".  A chunk whose MBR
    merely straddles the query boundary contributes only its in-box
    items.
    """
    if region is None:
        return np.arange(chunk.n_items)
    lo, hi = region.as_arrays()
    keep = np.all((chunk.coords >= lo) & (chunk.coords <= hi), axis=1)
    return np.flatnonzero(keep)


def map_chunk_to_cells(
    chunk: Chunk, mapping: GridMapping, grid: OutputGrid,
    region: Optional[Rect] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map a chunk's in-region items into output grid cells.

    Returns ``(item_idx, cells)``: which item produced each mapped
    cell (fan-out expands footprints) and the ``(m, d_out)`` cell
    coordinates, clipped into the grid.  ``item_idx`` refers to the
    chunk's original item numbering.
    """
    idx = filter_items(chunk, region)
    lo_cells, hi_cells = mapping.cell_ranges_for_points(chunk.coords[idx])
    item_idx, cells = expand_cell_ranges(lo_cells, hi_cells)
    return idx[item_idx], grid.clip_cells(cells)


def execute_serial(
    chunks: Iterable[Chunk],
    mapping: GridMapping,
    grid: OutputGrid,
    spec: AggregationSpec,
    output_ids: Optional[np.ndarray] = None,
    region: Optional[Rect] = None,
    predicate=None,
) -> Dict[int, np.ndarray]:
    """Run the Figure-1 loop over *chunks*; returns per-output-chunk
    final values keyed by output chunk id.

    ``output_ids`` restricts the computation to a subset of output
    chunks (the ones a range query selects); items mapping elsewhere
    are dropped, mirroring step 7's ``Map(ic) ∩ Ot``.  ``region``
    applies the item-level range filter (items of retrieved chunks
    outside the box are skipped).  ``predicate`` (a
    :class:`~repro.dataset.predicate.ValuePredicate`) additionally
    skips items whose *values* fail the query's ``where`` clause --
    the oracle semantics synopsis pruning must preserve.

    The loop shares no kernel with the phase executor: one
    ``grid.local_cell_index`` call and one scalar
    ``AggregationSpec.aggregate`` per (input chunk, output chunk)
    segment, so a fault in the fused kernels cannot hide in the
    reference they are tested against.
    """
    if output_ids is None:
        wanted = np.arange(grid.n_chunks, dtype=np.int64)
    else:
        wanted = np.unique(np.asarray(output_ids, dtype=np.int64))
        if len(wanted) and (wanted.min() < 0 or wanted.max() >= grid.n_chunks):
            raise ValueError("output ids outside the grid")
    selected = np.zeros(grid.n_chunks, dtype=bool)
    selected[wanted] = True

    # Initialization (steps 1-3).
    accs: Dict[int, np.ndarray] = {
        int(o): spec.initialize(grid.cells_in_chunk(int(o))) for o in wanted
    }

    # Reduction (steps 4-8): argsort by output chunk, then per segment
    # local_cell_index + scalar aggregate.
    for chunk in chunks:
        item_idx, cells = map_chunk_to_cells(chunk, mapping, grid, region)
        if predicate is not None:
            passed = predicate.mask(chunk.values)[item_idx]
            item_idx, cells = item_idx[passed], cells[passed]
        if len(cells) == 0:
            continue
        out_chunks = grid.chunk_of_cells(cells)
        keep = selected[out_chunks]
        if not keep.any():
            continue
        item_idx, cells, out_chunks = item_idx[keep], cells[keep], out_chunks[keep]
        order = np.argsort(out_chunks, kind="stable")
        out_sorted = out_chunks[order]
        boundaries = np.flatnonzero(np.diff(out_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(out_sorted)]))
        values = np.asarray(chunk.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        for s, e in zip(starts, ends):  # noqa: ADR305 -- reference oracle
            o = int(out_sorted[s])
            sel = order[s:e]
            local = grid.local_cell_index(o, cells[sel])
            spec.aggregate(accs[o], local, values[item_idx[sel]])

    # Output (steps 9-11).
    return {o: spec.output(acc) for o, acc in accs.items()}
