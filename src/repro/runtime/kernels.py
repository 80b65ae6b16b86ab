"""Fused reduction kernels: the functional engine's hot path.

The local-reduction phase turns a retrieved input chunk into scatter
updates on accumulator chunks.  The original engine did this with a
Python loop per (input chunk, output chunk) segment -- an ``argsort``
followed by a per-segment ``grid.local_cell_index`` call and a
per-segment ``np.add.at`` (which re-validated and re-coerced its
operands every time).  On realistic workloads that loop, not the disk,
dominated wall-clock.

This module replaces it with fused, fully vectorized kernels, the
phase executor's local-reduction path, each called once per batch of
reads:

- :func:`route_batch` maps every in-region item of the batch to its
  output cells in one pass: one region mask, one
  ``cell_ranges_for_points``, and a unit-footprint fast path or one
  ``expand_cell_ranges``;
- :meth:`~repro.aggregation.output_grid.OutputGrid.locate_cells`
  resolves *all* mapped cells of a batch to (output chunk, flat local
  accumulator index) with one ``divmod`` per dimension (the old path
  called ``grid.local_cell_index`` once per segment);
- :func:`group_reads` performs **one lexsort per batch of reads** over
  ``(read, output chunk, flat cell)`` and hands back contiguous,
  cell-sorted segments, which lets
  :meth:`~repro.aggregation.functions.AggregationSpec.prereduce_groups`
  pre-reduce duplicate cells with ``ufunc.reduceat`` and
  ``scatter_groups`` update the accumulator with plain fancy indexing
  instead of ``np.add.at``;
- :func:`coerce_values` does the dtype-stable float coercion once per
  chunk instead of once per segment;
- :class:`RoutingCache` memoizes a batch's routing per (batch input
  chunk ids, region, mapping, grid) across queries: a repeated query
  routes nothing.  The (region, mapping, grid) part of the key is the
  same for every batch of a query, so :func:`routing_tail` builds it
  once per query.

The serial oracle keeps its own per-chunk routing
(:func:`repro.runtime.serial.map_chunk_to_cells`); nothing here calls
it, so a fault in one side's region filter shows as a mismatch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.space.mapping import GridMapping, Mapping
from repro.util.cells import expand_cell_ranges
from repro.util.geometry import Rect

__all__ = [
    "ReadSegments",
    "RoutingCache",
    "coerce_values",
    "group_reads",
    "route_batch",
    "routing_tail",
]


# ---------------------------------------------------------------------------
# Per-chunk value coercion
# ---------------------------------------------------------------------------


def coerce_values(values: np.ndarray, value_components: int) -> np.ndarray:
    """Dtype-stable ``(n_items, value_components)`` float view of a
    chunk's payload values, validated **once per chunk** (the scalar
    path re-validates per segment inside ``AggregationSpec``)."""
    out = np.asarray(values, dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[1] != value_components:
        raise ValueError(
            f"expected {value_components} value components, got shape {out.shape}"
        )
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Batch routing and its cache
# ---------------------------------------------------------------------------


def route_batch(
    chunks: Sequence[Chunk],
    mapping: GridMapping,
    grid: OutputGrid,
    region: Optional[Rect],
) -> Tuple[np.ndarray, np.ndarray]:
    """Map the in-region items of a batch of chunks into output grid
    cells with one pass over the batch.

    Returns ``(item, cells)``: which item produced each mapped cell --
    an index into the chunks' items laid end to end -- and the
    ``(m, d_out)`` cell coordinates, clipped into the grid.  Items come
    in batch order, each item's fan-out cells in row-major order: per
    chunk, exactly the rows ``map_chunk_to_cells`` gives, offset by the
    items of the chunks before it.  The query box is closed, so an
    item on a face is in the region.
    """
    coords = np.concatenate([c.coords for c in chunks])
    if region is None:
        idx = np.arange(len(coords))
    else:
        lo, hi = region.as_arrays()
        idx = np.flatnonzero(np.all((coords >= lo) & (coords <= hi), axis=1))
    lo_cells, hi_cells = mapping.cell_ranges_for_points(coords[idx])
    if np.array_equal(lo_cells, hi_cells):
        # Unit footprints: every item maps to exactly one cell.
        return idx, grid.clip_cells(lo_cells)
    item_idx, cells = expand_cell_ranges(lo_cells, hi_cells)
    return idx[item_idx], grid.clip_cells(cells)


def _mapping_fingerprint(mapping: Mapping) -> Optional[tuple]:
    """A value-based cache key for a mapping, or None when the mapping
    is not declaratively keyable (custom subclasses are not cached)."""
    if type(mapping) is GridMapping:
        return (
            "grid",
            tuple(mapping.grid_shape),
            tuple(mapping.scale.tolist()),
            tuple(mapping.offset.tolist()),
            tuple(mapping.dim_select),
            tuple(mapping.footprint),
        )
    return None


def routing_tail(
    mapping: Mapping, grid: OutputGrid, region: Optional[Rect]
) -> Optional[tuple]:
    """The part of a routing key every batch of one query shares, or
    None when the mapping is uncacheable."""
    mkey = _mapping_fingerprint(mapping)
    if mkey is None:
        return None
    rkey = None if region is None else (tuple(region.lo), tuple(region.hi))
    gkey = (tuple(grid.grid_shape), tuple(grid.chunk_shape))
    return (rkey, mkey, gkey)


class RoutingCache:
    """Bounded LRU memo of :func:`route_batch` results.

    The phase executor routes each read batch once; the mapping is
    pure, so a batch's ``(item, cells)`` arrays can be reused as long
    as the key -- the batch's input chunk ids followed by the query's
    :func:`routing_tail` (region, mapping, grid) -- matches.  A repeated
    query hits once per batch; a query whose batches differ misses.
    Entries are immutable (the arrays are marked read-only) and evicted
    LRU by byte size.

    Thread safety: the concurrent query service executes several
    queries over the same dataset -- and therefore the same per-dataset
    routing cache -- at once, so the LRU ordering, byte budget and
    counters are guarded by one lock.  Entries are read-only arrays,
    safe to share between the queries that hit them.
    """

    def __init__(self, max_bytes: int = 128 * 2**20) -> None:
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: tuple) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, item_idx: np.ndarray, cells: np.ndarray) -> None:
        item_idx = item_idx.copy()
        cells = cells.copy()
        item_idx.setflags(write=False)
        cells.setflags(write=False)
        size = int(item_idx.nbytes + cells.nbytes)
        if size > self.max_bytes:
            return
        with self._lock:
            if key in self._entries:
                return
            while self._bytes + size > self.max_bytes and self._entries:
                _, (old_idx, old_cells) = self._entries.popitem(last=False)
                self._bytes -= int(old_idx.nbytes + old_cells.nbytes)
                self.evictions += 1
            self._entries[key] = (item_idx, cells)
            self._bytes += size

    def stats(self) -> dict:
        with self._lock:
            return {
                "routing_hits": self.hits,
                "routing_misses": self.misses,
                "routing_evictions": self.evictions,
                "routing_bytes": self._bytes,
            }


# ---------------------------------------------------------------------------
# Fused read grouping
# ---------------------------------------------------------------------------


@dataclass
class ReadSegments:
    """A batch of reads' scatter work, lexsorted by (read, output
    chunk, cell).

    ``starts[k]:ends[k]`` slices ``flat``/``values`` for the segment
    read ``seg_read[k]`` (a position in the batch) aims at local output
    chunk ``seg_out[k]``; within a segment the flat cell indices are
    sorted ascending.

    ``group_starts``/``group_bounds`` describe the *cell runs* (maximal
    runs of one (read, output chunk, cell) triple): run ``j`` is
    ``flat[group_starts[j]:group_starts[j+1]]`` and segment *k* owns
    runs ``group_bounds[k]:group_bounds[k+1]``.  Computed once per
    batch, they let ``AggregationSpec.prereduce_groups`` collapse every
    duplicate cell in one ``reduceat`` sweep; the per-segment work then
    shrinks to a single fancy-indexed scatter of pre-reduced rows.
    """

    seg_read: np.ndarray  # (k,) batch positions, ascending
    seg_out: np.ndarray  # (k,) local output chunk ids, ascending per read
    starts: np.ndarray  # (k,)
    ends: np.ndarray  # (k,)
    flat: np.ndarray  # (m,) flat local cell indices, segment-sorted
    values: np.ndarray  # (m, value_components) float64
    group_starts: np.ndarray  # (g,) run starts into flat/values
    group_bounds: np.ndarray  # (k+1,) segment -> run range


def group_reads(
    read: np.ndarray,
    item: np.ndarray,
    cells: np.ndarray,
    values: np.ndarray,
    grid: OutputGrid,
    sel_map: np.ndarray,
    tile_of_output: np.ndarray,
    tile: int,
) -> Optional[ReadSegments]:
    """Filter a batch of reads' mapped cells to the current tile and
    group them into cell-sorted segments with a single lexsort.

    Row *i* of the flat arrays is one mapped cell: ``cells[i]``,
    produced by item ``item[i]`` -- a row of ``values``, the batch's
    payloads through :func:`coerce_values`, laid end to end -- of the
    read at batch position ``read[i]``.  ``read`` must be ascending.
    The sort's primary key is the batch position, so each (read, output
    chunk, cell) run holds exactly the items, in exactly the order,
    that grouping the read on its own would: pre-reduced rows are
    bit-identical however reads are batched.  Returns None when nothing
    lands in this tile.
    """
    if not len(cells):
        return None
    n_local = len(tile_of_output)
    out_chunks, flat = grid.locate_cells(cells)
    local_out = sel_map[out_chunks]
    keep = local_out >= 0
    keep &= np.where(keep, tile_of_output[local_out] == tile, False)
    if not keep.any():
        return None
    flat = flat[keep]
    # Batch positions ascend along the rows, so (read, output chunk)
    # folds into one key and the sort stays a two-key lexsort.
    seg_key = (local_out + read * n_local)[keep]

    order = np.lexsort((flat, seg_key))
    key_sorted = seg_key[order]
    flat_sorted = flat[order]
    seg_change = np.diff(key_sorted) != 0
    boundaries = np.flatnonzero(seg_change) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(key_sorted)]))
    # Cell runs: a new run wherever the segment OR the cell changes.
    # Every segment start is also a run start, so the per-segment run
    # ranges come straight out of one searchsorted.
    run_change = seg_change | (np.diff(flat_sorted) != 0)
    group_starts = np.concatenate(([0], np.flatnonzero(run_change) + 1))
    group_bounds = np.searchsorted(
        group_starts, np.concatenate((starts, [len(key_sorted)]))
    )
    seg_read, seg_out = np.divmod(key_sorted[starts], n_local)
    return ReadSegments(
        seg_read=seg_read,
        seg_out=seg_out,
        starts=starts,
        ends=ends,
        flat=flat_sorted,
        values=values[item[keep][order]],
        group_starts=group_starts,
        group_bounds=group_bounds,
    )
