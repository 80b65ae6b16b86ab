"""Packed chunk metadata for whole datasets.

The planner, declusterer and simulator operate on populations of
10^4--10^5 chunks (Table 1 of the paper).  Iterating Python objects at
that scale is exactly what the HPC guides warn against, so the chunk
population is stored as parallel NumPy arrays (structure-of-arrays)
with vectorized geometry predicates; :class:`ChunkMeta` objects are
materialized only on demand.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.dataset.chunk import ChunkMeta
from repro.dataset.synopsis import ValueSynopsis
from repro.util.arrays import frozen
from repro.util.geometry import Rect, rects_intersect_mask
from repro.util.hilbert import hilbert_sort_keys

__all__ = ["ChunkSet"]


class ChunkSet:
    """Structure-of-arrays metadata for a dataset's chunks.

    Attributes
    ----------
    los, his:
        ``(n, d)`` MBR corner arrays.
    nbytes:
        ``(n,)`` int64 chunk sizes in bytes.
    n_items:
        ``(n,)`` int64 item counts.
    node, disk:
        ``(n,)`` int32 placement arrays (-1 = unplaced).
    synopsis:
        Optional :class:`~repro.dataset.synopsis.ValueSynopsis` with one
        row per chunk (``None`` when value summaries were not built).
    """

    def __init__(
        self,
        los: np.ndarray,
        his: np.ndarray,
        nbytes: np.ndarray,
        n_items: Optional[np.ndarray] = None,
        node: Optional[np.ndarray] = None,
        disk: Optional[np.ndarray] = None,
        synopsis: Optional[ValueSynopsis] = None,
    ) -> None:
        self.los = np.ascontiguousarray(los, dtype=float)
        self.his = np.ascontiguousarray(his, dtype=float)
        if self.los.ndim != 2 or self.los.shape != self.his.shape:
            raise ValueError("los/his must be matching (n, d) arrays")
        if np.any(self.los > self.his):
            raise ValueError("some MBRs have lo > hi")
        n = len(self.los)
        self.nbytes = np.ascontiguousarray(nbytes, dtype=np.int64)
        if self.nbytes.shape != (n,):
            raise ValueError("nbytes must be (n,)")
        if np.any(self.nbytes < 0):
            raise ValueError("negative chunk sizes")
        self.n_items = (
            np.ones(n, dtype=np.int64)
            if n_items is None
            else np.ascontiguousarray(n_items, dtype=np.int64)
        )
        self.node = (
            np.full(n, -1, dtype=np.int32)
            if node is None
            else np.ascontiguousarray(node, dtype=np.int32)
        )
        self.disk = (
            np.full(n, -1, dtype=np.int32)
            if disk is None
            else np.ascontiguousarray(disk, dtype=np.int32)
        )
        for name, arr in (("n_items", self.n_items), ("node", self.node), ("disk", self.disk)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must be (n,)")
        if synopsis is not None and len(synopsis) != n:
            raise ValueError(
                f"synopsis has {len(synopsis)} rows for {n} chunks"
            )
        self.synopsis = synopsis
        #: bits -> Hilbert keys (see :meth:`hilbert_keys`); replaced, never
        #: mutated, so threads sharing the set can read it unlocked
        self._hilbert_keys: Dict[int, np.ndarray] = {}

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_metas(metas: Sequence[ChunkMeta]) -> "ChunkSet":
        if not metas:
            raise ValueError("from_metas needs at least one chunk")
        d = metas[0].mbr.ndim
        n = len(metas)
        los = np.empty((n, d))
        his = np.empty((n, d))
        nbytes = np.empty(n, dtype=np.int64)
        n_items = np.empty(n, dtype=np.int64)
        node = np.empty(n, dtype=np.int32)
        disk = np.empty(n, dtype=np.int32)
        for i, m in enumerate(metas):
            if m.chunk_id != i:
                raise ValueError("chunk ids must be dense and ordered")
            los[i], his[i] = m.mbr.as_arrays()
            nbytes[i] = m.nbytes
            n_items[i] = m.n_items
            node[i] = m.node
            disk[i] = m.disk
        return ChunkSet(los, his, nbytes, n_items, node, disk)

    # -- basic properties -------------------------------------------------

    def __len__(self) -> int:
        return len(self.los)

    @property
    def ndim(self) -> int:
        return self.los.shape[1]

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum())

    @property
    def centers(self) -> np.ndarray:
        return (self.los + self.his) * 0.5

    @property
    def bounds(self) -> Rect:
        return Rect(tuple(self.los.min(axis=0)), tuple(self.his.max(axis=0)))

    @property
    def placed(self) -> bool:
        return bool((self.node >= 0).all() and (self.disk >= 0).all())

    # -- element access -----------------------------------------------------

    def mbr(self, chunk_id: int) -> Rect:
        return Rect(tuple(self.los[chunk_id]), tuple(self.his[chunk_id]))

    def meta(self, chunk_id: int) -> ChunkMeta:
        return ChunkMeta(
            chunk_id=int(chunk_id),
            mbr=self.mbr(chunk_id),
            nbytes=int(self.nbytes[chunk_id]),
            n_items=int(self.n_items[chunk_id]),
            node=int(self.node[chunk_id]),
            disk=int(self.disk[chunk_id]),
        )

    def iter_metas(self) -> Iterator[ChunkMeta]:
        for i in range(len(self)):
            yield self.meta(i)

    # -- queries ------------------------------------------------------------

    def intersecting(self, query: Rect) -> np.ndarray:
        """Ids of chunks whose MBR intersects *query* (brute force)."""
        mask = rects_intersect_mask(self.los, self.his, query)
        return np.flatnonzero(mask)

    def hilbert_keys(self, bits: int = 16) -> np.ndarray:
        """Read-only Hilbert key of every chunk's MBR mid-point, on a
        ``2**bits`` grid over the bounds of the set the keys were
        computed for (once per set and *bits*).

        A :meth:`subset` keeps its parent's keys: it is ordered along
        the parent's curve restricted to it, not along a curve re-fitted
        to its own bounding box.
        """
        keys = self._hilbert_keys.get(bits)
        if keys is None:
            keys = (
                hilbert_sort_keys(self.centers, self.bounds, bits)
                if len(self)
                else np.empty(0, dtype=np.int64)  # bounds are undefined
            )
            self._hilbert_keys = {**self._hilbert_keys, bits: frozen(keys)}
        return keys

    def hilbert_order(self, bits: int = 16) -> np.ndarray:
        """Chunk ids sorted by :meth:`hilbert_keys`.

        This is the selection order used by all three tiling
        algorithms (paper Section 3): "the mid-point of the bounding
        box of each output chunk is used to generate a Hilbert curve
        index [and] the chunks are sorted with respect to this index".
        Ties are broken by chunk id so the order is deterministic.
        """
        return np.lexsort((np.arange(len(self)), self.hilbert_keys(bits)))

    # -- placement ------------------------------------------------------------

    def with_placement(self, node: np.ndarray, disk: np.ndarray) -> "ChunkSet":
        """A copy of this set with new placement arrays."""
        return ChunkSet(
            self.los, self.his, self.nbytes, self.n_items, node, disk,
            synopsis=self.synopsis,
        )

    def with_synopsis(self, synopsis: Optional[ValueSynopsis]) -> "ChunkSet":
        """A copy of this set carrying *synopsis* (length-checked)."""
        return ChunkSet(
            self.los, self.his, self.nbytes, self.n_items, self.node,
            self.disk, synopsis=synopsis,
        )

    def chunks_on_node(self, node: int) -> np.ndarray:
        return np.flatnonzero(self.node == node)

    def bytes_per_node(self, n_nodes: int) -> np.ndarray:
        """Total chunk bytes placed on each of *n_nodes* nodes."""
        out = np.zeros(n_nodes, dtype=np.int64)
        valid = self.node >= 0
        np.add.at(out, self.node[valid], self.nbytes[valid])
        return out

    # -- transformation --------------------------------------------------------

    def subset(self, ids: np.ndarray) -> "ChunkSet":
        """A new ChunkSet containing only *ids* (re-numbered densely)."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            raise ValueError("subset must keep at least one chunk")
        out = ChunkSet(
            self.los[ids],
            self.his[ids],
            self.nbytes[ids],
            self.n_items[ids],
            self.node[ids],
            self.disk[ids],
            synopsis=None if self.synopsis is None else self.synopsis.subset(ids),
        )
        out._hilbert_keys = {
            bits: frozen(keys[ids]) for bits, keys in self._hilbert_keys.items()
        }
        return out
