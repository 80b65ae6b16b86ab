"""Shard topology: Hilbert-declustered chunk-to-shard assignment.

The paper's customized back end runs as N independent processes, each
owning a disk farm; queries scatter over all of them and gather
partial accumulators.  This module decides *which* process owns each
chunk, reusing the declustering insight already applied to disks
(:mod:`repro.decluster.hilbert`): sort chunks by the Hilbert key of
their MBR mid-point and deal them round-robin across shards, so
spatially adjacent chunks -- the ones a range query co-retrieves --
land on *different* shards and every query parallelizes across the
deployment instead of hammering one process.

The assignment is a pure function of the chunk population, so the
router and every shard can recompute it independently and agree; the
dataset-global chunk-id spine (``global_ids`` / local positions) is
the contract the router uses to translate shard-local degradation
reports back into dataset-global ``chunk_errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.dataset.chunk import Chunk
from repro.dataset.chunkset import ChunkSet
from repro.index.base import SpatialIndex
from repro.index.scan import ScanIndex
from repro.space.attribute_space import AttributeSpace

__all__ = ["ShardAssignment", "ShardTopology", "assign_shards", "shard_chunks"]


@dataclass(frozen=True)
class ShardAssignment:
    """Chunk-to-shard map over one dataset's global chunk ids.

    ``shard_of[gid]`` is the owning shard of global chunk *gid*.  A
    shard's chunks are re-numbered densely (0..k-1) in ascending
    global-id order when loaded into its local ADR, so
    ``global_ids(sid)[local_id]`` recovers the global id of a shard's
    local chunk -- the translation used for degradation reports.
    """

    n_shards: int
    shard_of: np.ndarray

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        shard_of = np.ascontiguousarray(self.shard_of, dtype=np.int64)
        if shard_of.ndim != 1:
            raise ValueError("shard_of must be a 1-d array")
        if len(shard_of) and (
            shard_of.min() < 0 or shard_of.max() >= self.n_shards
        ):
            raise ValueError("shard_of entries must be in [0, n_shards)")
        object.__setattr__(self, "shard_of", shard_of)

    def __len__(self) -> int:
        return len(self.shard_of)

    def global_ids(self, shard_id: int) -> np.ndarray:
        """Global chunk ids owned by *shard_id*, ascending -- the
        shard's local id ``i`` is position ``i`` of this array."""
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard id {shard_id} outside [0, {self.n_shards})")
        return np.flatnonzero(self.shard_of == shard_id)

    def counts(self) -> np.ndarray:
        """Chunks per shard, ``(n_shards,)``."""
        return np.bincount(self.shard_of, minlength=self.n_shards)


def assign_shards(
    chunks: ChunkSet, n_shards: int, bits: int = 16
) -> ShardAssignment:
    """Deal chunks round-robin across shards in Hilbert order.

    Mirrors :class:`repro.decluster.hilbert.HilbertDeclusterer` one
    level up: the curve's locality puts a range query's chunks on many
    shards, which is exactly what scatter/gather parallelism wants.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    order = chunks.hilbert_order(bits)
    shard_of = np.empty(len(chunks), dtype=np.int64)
    shard_of[order] = np.arange(len(chunks)) % n_shards
    return ShardAssignment(n_shards, shard_of)


def shard_chunks(
    chunks: Sequence[Chunk], assignment: ShardAssignment, shard_id: int
) -> List[Chunk]:
    """One shard's chunk payloads, re-numbered densely (0..k-1) in
    ascending global-id order so they load as a standalone dataset."""
    from dataclasses import replace

    if len(chunks) != len(assignment):
        raise ValueError(
            f"{len(chunks)} chunks for an assignment over {len(assignment)}"
        )
    out: List[Chunk] = []
    for local_id, gid in enumerate(assignment.global_ids(shard_id)):
        c = chunks[int(gid)]
        out.append(Chunk(replace(c.meta, chunk_id=local_id), c.coords, c.values))
    return out


@dataclass(frozen=True)
class ShardTopology:
    """Everything the router knows about one sharded dataset: the
    global chunk population, a spatial index over it (for planning the
    scatter without contacting any shard), and the shard assignment."""

    dataset: str
    space: AttributeSpace
    chunks: ChunkSet
    index: SpatialIndex
    assignment: ShardAssignment

    @classmethod
    def build(
        cls,
        dataset: str,
        space: AttributeSpace,
        chunks: Sequence[Chunk],
        n_shards: int,
        bits: int = 16,
    ) -> "ShardTopology":
        chunkset = ChunkSet.from_metas([c.meta for c in chunks])
        # The router prunes with the same per-chunk value synopses the
        # single-process planner uses (None when values are absent).
        from repro.dataset.synopsis import ValueSynopsis

        chunkset = chunkset.with_synopsis(
            ValueSynopsis.from_chunks(chunks)
        )
        return cls(
            dataset=dataset,
            space=space,
            chunks=chunkset,
            index=ScanIndex.build(chunkset),
            assignment=assign_shards(chunkset, n_shards, bits),
        )

    @property
    def n_shards(self) -> int:
        return self.assignment.n_shards
