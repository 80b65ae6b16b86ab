"""Fused reduction kernels: the functional engine's hot path.

The local-reduction phase turns a retrieved input chunk into scatter
updates on accumulator chunks.  The original engine did this with a
Python loop per (input chunk, output chunk) segment -- an ``argsort``
followed by a per-segment ``grid.local_cell_index`` call and a
per-segment ``np.add.at`` (which re-validated and re-coerced its
operands every time).  On realistic workloads that loop, not the disk,
dominated wall-clock.

This module replaces it with fused, fully vectorized kernels, the
phase executor's local-reduction path:

- :meth:`~repro.aggregation.output_grid.OutputGrid.locate_cells`
  resolves *all* mapped cells of a batch to (output chunk, flat local
  accumulator index) with one ``divmod`` per dimension (the old path
  called ``grid.local_cell_index`` once per segment);
- :func:`group_reads` performs **one lexsort per batch of reads** over
  ``(read, output chunk, flat cell)`` and hands back contiguous,
  cell-sorted segments (:func:`group_read` is its one-read case), which
  lets
  :meth:`~repro.aggregation.functions.AggregationSpec.prereduce_groups`
  pre-reduce duplicate cells with ``ufunc.reduceat`` and
  ``scatter_groups`` update the accumulator with plain fancy indexing
  instead of ``np.add.at``;
- :func:`coerce_values` does the dtype-stable float coercion once per
  chunk instead of once per segment;
- :class:`RoutingCache` memoizes the item->cell routing of a chunk per
  (chunk, region, mapping, grid) across tiles and across queries -- an
  input chunk straddling several tiles (the multiple-retrieval cost
  tiling tries to minimize) is mapped once.  The (region, mapping,
  grid) part of the key is the same for every chunk of a query, so
  :func:`routing_tail` builds it once per query.
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
from repro.util.geometry import Rect

__all__ = [
    "ReadSegments",
    "RoutingCache",
    "coerce_values",
    "filter_predicate",
    "group_read",
    "group_reads",
    "route_chunk",
    "routing_key",
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
# Routing cache
# ---------------------------------------------------------------------------


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
    """The part of a routing key every chunk of one query shares, or
    None when the mapping is uncacheable."""
    mkey = _mapping_fingerprint(mapping)
    if mkey is None:
        return None
    rkey = None if region is None else (tuple(region.lo), tuple(region.hi))
    gkey = (tuple(grid.grid_shape), tuple(grid.chunk_shape))
    return (rkey, mkey, gkey)


def routing_key(
    chunk_id: int,
    mapping: Mapping,
    grid: OutputGrid,
    region: Optional[Rect],
) -> Optional[tuple]:
    """Cache key for one chunk's routing, or None when uncacheable."""
    tail = routing_tail(mapping, grid, region)
    return None if tail is None else (int(chunk_id), *tail)


class RoutingCache:
    """Bounded LRU memo of ``map_chunk_to_cells`` results.

    The same input chunk is re-routed once per tile it straddles and
    once per query that retrieves it; the mapping is pure, so the
    (item_idx, cells) arrays can be reused as long as the (chunk,
    region, mapping, grid) key matches.  Entries are immutable (the
    arrays are marked read-only) and evicted LRU by byte size.

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


def route_chunk(
    chunk: Chunk,
    mapping: Mapping,
    grid: OutputGrid,
    region: Optional[Rect],
    cache: Optional[RoutingCache] = None,
    key: Optional[tuple] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``map_chunk_to_cells`` with optional memoization.

    ``key`` is the chunk's :func:`routing_key` (a caller routing many
    chunks of one query builds it from one :func:`routing_tail`); with
    no cache or no key the call takes the uncached path.
    """
    from repro.runtime.serial import map_chunk_to_cells

    if cache is not None and key is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    item_idx, cells = map_chunk_to_cells(chunk, mapping, grid, region)
    if cache is not None and key is not None:
        cache.put(key, item_idx, cells)
    return item_idx, cells


# ---------------------------------------------------------------------------
# Residual value-predicate filtering
# ---------------------------------------------------------------------------


def filter_predicate(
    chunk: Chunk,
    item_idx: np.ndarray,
    cells: np.ndarray,
    predicate,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop routed items whose values fail the query's ``where``
    predicate.

    Applied *after* :func:`route_chunk` so :class:`RoutingCache`
    entries stay predicate-independent (the same chunk routing serves
    queries with different -- or no -- predicates).  This is the exact
    residual filter matching the planner's synopsis pruning: pruning
    only skips chunks this filter would empty entirely, which is what
    keeps pruned and unpruned runs bit-identical.
    """
    if predicate is None or len(item_idx) == 0:
        return item_idx, cells
    keep = predicate.mask(chunk.values)[item_idx]
    if keep.all():
        return item_idx, cells
    return item_idx[keep], cells[keep]


# ---------------------------------------------------------------------------
# Fused read grouping
# ---------------------------------------------------------------------------


@dataclass
class ReadSegments:
    """A batch of reads' scatter work, lexsorted by (read, output
    chunk, cell); one read's work when the batch holds one.

    ``starts[k]:ends[k]`` slices ``flat``/``values`` for the segment
    read ``seg_read[k]`` (a position in the batch) aims at local output
    chunk ``seg_out[k]``; within a segment the flat cell indices are
    sorted ascending.  Batch position *p* owns segments
    ``read_bounds[p]:read_bounds[p+1]``.

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
    read_bounds: np.ndarray  # (n_parts+1,) batch position -> segment range


def group_reads(
    parts: Sequence[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
    grid: OutputGrid,
    sel_map: np.ndarray,
    tile_of_output: np.ndarray,
    tile: int,
) -> Optional[ReadSegments]:
    """Filter a batch of reads' mapped cells to the current tile and
    group them into cell-sorted segments with a single lexsort.

    ``parts[p]`` is ``(item_idx, cells, values)`` of batch position *p*
    -- ``item_idx``/``cells`` from :func:`route_chunk`, ``values`` the
    chunk's payload already through :func:`coerce_values` -- or None
    for a read that contributes nothing.  The sort's primary key is the
    batch position, so each (read, output chunk, cell) run holds
    exactly the items, in exactly the order, that grouping the read on
    its own would: pre-reduced rows are bit-identical however reads are
    batched.  Returns None when nothing lands in this tile.
    """
    live = [p for p, part in enumerate(parts) if part is not None and len(part[1])]
    if not live:
        return None
    n_local = len(tile_of_output)
    if len(live) == 1:
        item_idx, cells, values = parts[live[0]]
        read_key = live[0] * n_local
    else:
        sizes = [len(parts[p][1]) for p in live]
        n_items = np.cumsum([0] + [len(parts[p][2]) for p in live[:-1]])
        item_idx = np.concatenate([parts[p][0] for p in live]) + np.repeat(n_items, sizes)
        cells = np.concatenate([parts[p][1] for p in live])
        values = np.concatenate([parts[p][2] for p in live])
        read_key = np.repeat(np.asarray(live) * n_local, sizes)
    out_chunks, flat = grid.locate_cells(cells)
    local_out = sel_map[out_chunks]
    keep = local_out >= 0
    keep &= np.where(keep, tile_of_output[local_out] == tile, False)
    if not keep.any():
        return None
    flat = flat[keep]
    # Batch positions ascend along the concatenation, so (read, output
    # chunk) folds into one key and the sort stays a two-key lexsort.
    seg_key = (local_out + read_key)[keep]

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
        values=values[item_idx[keep][order]],
        group_starts=group_starts,
        group_bounds=group_bounds,
        read_bounds=np.searchsorted(seg_read, np.arange(len(parts) + 1)),
    )


def group_read(
    item_idx: np.ndarray,
    cells: np.ndarray,
    values: np.ndarray,
    grid: OutputGrid,
    sel_map: np.ndarray,
    tile_of_output: np.ndarray,
    tile: int,
) -> Optional[ReadSegments]:
    """The one-read case of :func:`group_reads`."""
    return group_reads([(item_idx, cells, values)], grid, sel_map, tile_of_output, tile)
