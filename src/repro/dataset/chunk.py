"""Chunks: the unit of I/O and communication in ADR.

A chunk consists of one or more data items from the same dataset and
"is always retrieved as a whole during query processing".  Each chunk
is associated with an MBR enclosing the attribute-space coordinates of
all its items, and -- once loaded -- with a placement (node, disk).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from repro.util.geometry import Rect

__all__ = ["ChunkMeta", "Chunk", "UNPLACED"]

#: Placement value for chunks that have not been declustered yet.
UNPLACED: Tuple[int, int] = (-1, -1)


@dataclass(frozen=True)
class ChunkMeta:
    """Metadata for one chunk.

    Attributes
    ----------
    chunk_id:
        Dense id within the owning dataset (0..n_chunks-1).
    mbr:
        Minimum bounding rectangle in the dataset's attribute space.
    nbytes:
        On-disk size of the chunk (header excluded); the I/O and
        communication cost unit used by planning and simulation.
    n_items:
        Number of data items packed in the chunk.
    node, disk:
        Placement assigned by the declustering step: the back-end node
        the chunk's disk is attached to and the disk index on that
        node.  ``(-1, -1)`` until placed.
    """

    chunk_id: int
    mbr: Rect
    nbytes: int
    n_items: int = 1
    node: int = -1
    disk: int = -1

    def __post_init__(self) -> None:
        if self.chunk_id < 0:
            raise ValueError("chunk_id must be non-negative")
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.n_items < 0:
            raise ValueError("n_items must be non-negative")

    @property
    def placed(self) -> bool:
        return self.node >= 0 and self.disk >= 0

    def with_placement(self, node: int, disk: int) -> "ChunkMeta":
        if node < 0 or disk < 0:
            raise ValueError("placement indices must be non-negative")
        return replace(self, node=node, disk=disk)


@dataclass
class Chunk:
    """A chunk with its in-memory payload.

    The payload is a pair of arrays: item coordinates in the attribute
    space, ``(n_items, ndim)``, and item values, ``(n_items, ...)``.
    Values may be multi-component (e.g. several sensor bands per
    reading).  Payloads exist only on the functional execution path;
    planning and simulation use :class:`ChunkMeta` /
    :class:`repro.dataset.chunkset.ChunkSet` alone.
    """

    meta: ChunkMeta
    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.coords = np.ascontiguousarray(self.coords, dtype=float)
        self.values = np.ascontiguousarray(self.values)
        if self.coords.ndim != 2:
            raise ValueError("coords must be (n_items, ndim)")
        if len(self.coords) != len(self.values):
            raise ValueError(
                f"coords has {len(self.coords)} items, values {len(self.values)}"
            )
        if len(self.coords) != self.meta.n_items:
            raise ValueError(
                f"meta.n_items={self.meta.n_items} but payload has {len(self.coords)}"
            )
        if self.coords.shape[1] != self.meta.mbr.ndim:
            raise ValueError("coords dimensionality does not match MBR")
        if len(self.coords):
            lo, hi = self.meta.mbr.as_arrays()
            if (self.coords < lo - 1e-9).any() or (self.coords > hi + 1e-9).any():
                raise ValueError("payload coordinates escape the chunk MBR")

    @classmethod
    def trusted(cls, meta: ChunkMeta, coords: np.ndarray, values: np.ndarray) -> "Chunk":
        """A chunk whose every :meth:`__post_init__` fact the caller has
        already proven -- C-contiguous float64 ``(n_items, ndim)``
        coords inside ``meta.mbr``, matching ``values`` -- built without
        checking them again (the format decoder's path)."""
        chunk = cls.__new__(cls)
        chunk.meta, chunk.coords, chunk.values = meta, coords, values
        return chunk

    @property
    def chunk_id(self) -> int:
        return self.meta.chunk_id

    @property
    def n_items(self) -> int:
        return len(self.coords)

    @staticmethod
    def from_items(
        chunk_id: int, coords: np.ndarray, values: np.ndarray, nbytes: Optional[int] = None
    ) -> "Chunk":
        """Build a chunk (and its MBR) from raw items."""
        coords = np.ascontiguousarray(coords, dtype=float)
        values = np.ascontiguousarray(values)
        if coords.ndim != 2 or len(coords) == 0:
            raise ValueError("from_items needs a non-empty (n, d) coords array")
        mbr = Rect.from_points(coords)
        if nbytes is None:
            nbytes = int(coords.nbytes + values.nbytes)
        meta = ChunkMeta(chunk_id, mbr, nbytes, n_items=len(coords))
        return Chunk(meta, coords, values)
