"""The output dataset model: a regular grid of cells, blocked into chunks.

Every application in the paper produces a dense regular array ("the
output datasets are regular arrays, hence each output dataset is
divided into regular multi-dimensional rectangular regions").  An
:class:`OutputGrid` describes such an array: the attribute space it
spans, the global cell resolution, and the chunk blocking.  It
provides the coordinate plumbing the execution engine needs --
cell coordinates -> (chunk id, local cell index) -- fully vectorized.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.dataset.partition import regular_grid_chunkset
from repro.space.attribute_space import AttributeSpace
from repro.util.arrays import frozen
from repro.util.geometry import Rect

__all__ = ["OutputGrid", "PlacedGrids"]


class OutputGrid:
    """A chunked regular output grid.

    Parameters
    ----------
    space:
        Output attribute space (cells evenly tile its bounds).
    grid_shape:
        Global cell counts per dimension.
    chunk_shape:
        Cells per chunk per dimension; the last block in a dimension
        may be smaller when the shapes do not divide evenly.
    cell_value_bytes:
        Bytes per cell in the *final output* (chunk nbytes derive from
        this); the accumulator may be wider, which is the
        :class:`~repro.aggregation.functions.AggregationSpec`'s say.
    """

    def __init__(
        self,
        space: AttributeSpace,
        grid_shape: Sequence[int],
        chunk_shape: Sequence[int],
        cell_value_bytes: int = 8,
    ) -> None:
        self.space = space
        self.grid_shape = tuple(int(s) for s in grid_shape)
        self.chunk_shape = tuple(int(s) for s in chunk_shape)
        if len(self.grid_shape) != space.ndim or len(self.chunk_shape) != space.ndim:
            raise ValueError("grid/chunk shapes must match the space dimensionality")
        if any(s < 1 for s in self.grid_shape) or any(s < 1 for s in self.chunk_shape):
            raise ValueError("shapes must be positive")
        if any(c > g for c, g in zip(self.chunk_shape, self.grid_shape)):
            raise ValueError("chunk_shape cannot exceed grid_shape")
        if cell_value_bytes < 1:
            raise ValueError("cell_value_bytes must be >= 1")
        self.cell_value_bytes = int(cell_value_bytes)
        self.blocks = tuple(
            math.ceil(g / c) for g, c in zip(self.grid_shape, self.chunk_shape)
        )

    def key(self) -> tuple:
        """The grid's value: callers build a new ``OutputGrid`` per query
        (the wire decoder does too), so per-grid memos key on this."""
        return (self.space, self.grid_shape, self.chunk_shape, self.cell_value_bytes)

    # -- sizes --------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.space.ndim

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.grid_shape))

    @property
    def n_chunks(self) -> int:
        return int(np.prod(self.blocks))

    def chunk_block(self, chunk_id: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Inclusive-exclusive cell ranges ``(start, stop)`` of a chunk."""
        coords = np.unravel_index(chunk_id, self.blocks)
        start = tuple(int(c) * s for c, s in zip(coords, self.chunk_shape))
        stop = tuple(
            min(a + s, g)
            for a, s, g in zip(start, self.chunk_shape, self.grid_shape)
        )
        return start, stop

    def cells_in_chunk(self, chunk_id: int) -> int:
        start, stop = self.chunk_block(chunk_id)
        return int(np.prod([b - a for a, b in zip(start, stop)]))

    def _chunk_blocks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(n_chunks, d)`` cell ranges ``(start, stop)`` of every chunk."""
        coords = np.unravel_index(np.arange(self.n_chunks), self.blocks)
        start = np.stack(coords, axis=1) * np.asarray(self.chunk_shape)
        stop = np.minimum(start + np.asarray(self.chunk_shape), self.grid_shape)
        return start, stop

    def chunk_cell_counts(self) -> np.ndarray:
        """``(n_chunks,)`` cells per chunk (edge chunks may be smaller)."""
        start, stop = self._chunk_blocks()
        return np.prod(stop - start, axis=1, dtype=np.int64)

    # -- chunk metadata ---------------------------------------------------

    def chunkset(self) -> ChunkSet:
        """Packed chunk metadata for planning (MBRs in space units)."""
        lo, hi = self.space.bounds.as_arrays()
        span = np.where(np.asarray(self.grid_shape) > 0, hi - lo, 1.0)
        cell = span / np.asarray(self.grid_shape)
        start, stop = self._chunk_blocks()
        items = np.prod(stop - start, axis=1, dtype=np.int64)
        return ChunkSet(
            lo + start * cell, lo + stop * cell, items * self.cell_value_bytes, items
        )

    # -- cell coordinate plumbing -------------------------------------------

    def chunk_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """Chunk id for each ``(m, d)`` cell coordinate row."""
        cells = np.asarray(cells, dtype=np.int64)
        blocks = cells // np.asarray(self.chunk_shape)
        return np.ravel_multi_index(tuple(blocks.T), self.blocks)

    def local_cell_index(self, chunk_id: int, cells: np.ndarray) -> np.ndarray:
        """Row-major index within *chunk_id* for each cell coordinate."""
        cells = np.asarray(cells, dtype=np.int64)
        start, stop = self.chunk_block(chunk_id)
        local = cells - np.asarray(start)
        shape = tuple(b - a for a, b in zip(start, stop))
        if np.any(local < 0) or np.any(local >= np.asarray(shape)):
            raise IndexError("cells outside the chunk block")
        return np.ravel_multi_index(tuple(local.T), shape)

    def locate_cells(self, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(chunk ids, local row-major indices)`` of ``(m, d)`` in-grid
        cell rows -- :meth:`chunk_of_cells` and :meth:`local_cell_index`
        for every cell at once, by one ``divmod`` and one multiply-add
        per dimension.  A ragged edge block is as wide as what is left
        of the grid."""
        cells = np.asarray(cells, dtype=np.int64)
        chunk = local = 0
        for dim, (c, g, b) in enumerate(zip(self.chunk_shape, self.grid_shape, self.blocks)):
            block, offset = np.divmod(cells[:, dim], c)
            width = c if g % c == 0 else np.minimum(c, g - block * c)
            chunk = chunk * b + block
            local = local * width + offset
        return chunk, local

    def clip_cells(self, cells: np.ndarray) -> np.ndarray:
        """Clamp cell coordinates into the grid (footprints may poke out)."""
        return np.clip(cells, 0, np.asarray(self.grid_shape) - 1)

    def assemble(self, chunk_values: Sequence[np.ndarray]) -> np.ndarray:
        """Stitch per-chunk output values into the full dense array.

        ``chunk_values[c]`` is ``(cells_in_chunk(c), k)``; the result
        has shape ``grid_shape + (k,)``.
        """
        if len(chunk_values) != self.n_chunks:
            raise ValueError("one value array per chunk required")
        if not len(chunk_values):  # zero-chunk grid: nothing to stitch
            return np.full(self.grid_shape + (1,), np.nan)
        k = chunk_values[0].shape[1]
        full = np.empty(self.grid_shape + (k,), dtype=chunk_values[0].dtype)
        for cid, vals in enumerate(chunk_values):
            start, stop = self.chunk_block(cid)
            shape = tuple(b - a for a, b in zip(start, stop))
            if vals.shape != (int(np.prod(shape)), k):
                raise ValueError(f"chunk {cid} values have wrong shape")
            sl = tuple(slice(a, b) for a, b in zip(start, stop))
            full[sl] = vals.reshape(shape + (k,))
        return full


class PlacedGrids:
    """The placed output :class:`ChunkSet` of every grid one deployment
    has planned for, drawn once per grid.

    A grid's chunk metadata and its declustering do not depend on the
    query, and a stateful declusterer must not re-draw them per query:
    two queries over one grid have to agree on who owns an output
    chunk.  Keyed by :meth:`OutputGrid.key`; the arrays are read-only
    because every query over the grid shares them
    (``n_items`` is the per-chunk cell count).

    The output chunks' Hilbert keys are taken here too, once per grid
    over the grid's own bounds (:meth:`ChunkSet.hilbert_keys`, the
    planner's default bits): a query's outputs, a subset of the grid,
    keep them, so tiling walks the paper's curve over the output space
    restricted to the query.
    """

    #: distinct grids kept (oldest dropped first); instances see a few
    MAX_GRIDS = 8

    def __init__(self, declusterer, n_nodes: int, disks_per_node: int = 1) -> None:
        self._declusterer = declusterer
        self._shape = (n_nodes, disks_per_node)
        self._placed: Dict[tuple, ChunkSet] = {}
        self._lock = threading.Lock()

    def get(self, grid: OutputGrid) -> ChunkSet:
        key = grid.key()
        with self._lock:
            placed = self._placed.get(key)
            if placed is None:
                placed = self._declusterer.place(grid.chunkset(), *self._shape)
                placed.hilbert_keys()
                for shared in (placed.los, placed.his, placed.nbytes,
                               placed.n_items, placed.node, placed.disk):
                    frozen(shared)
                if len(self._placed) >= self.MAX_GRIDS:
                    del self._placed[next(iter(self._placed))]
                self._placed[key] = placed
        return placed
