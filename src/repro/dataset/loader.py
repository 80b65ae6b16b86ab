"""The four-step dataset loading pipeline (paper Section 2.2).

"Loading a dataset into ADR is accomplished in four steps: (1)
partition a dataset into data chunks, (2) compute placement
information, (3) move data chunks to the disks according to placement
information, and (4) create an index."

Step 1 is the caller's choice of partitioner
(:mod:`repro.dataset.partition`); this module performs steps 2--4
against a chunk store and returns the placed metadata plus the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dataset.chunk import Chunk
from repro.dataset.chunkset import ChunkSet
from repro.dataset.dataset import Dataset
from repro.dataset.synopsis import ValueSynopsis
from repro.decluster.base import Declusterer
from repro.decluster.hilbert import HilbertDeclusterer
from repro.index.base import SpatialIndex
from repro.index.scan import ScanIndex
from repro.space.attribute_space import AttributeSpace
from repro.store.chunk_store import ChunkStore

__all__ = ["LoadedDataset", "load_dataset"]


@dataclass
class LoadedDataset:
    """A dataset resident in the store: placed metadata + index."""

    dataset: Dataset
    index: SpatialIndex

    @property
    def name(self) -> str:
        return self.dataset.name


def load_dataset(
    store: ChunkStore,
    name: str,
    space: AttributeSpace,
    chunks: Sequence[Chunk],
    n_nodes: int,
    disks_per_node: int = 1,
    declusterer: Optional[Declusterer] = None,
) -> LoadedDataset:
    """Run steps 2--4: decluster, store, index.

    Returns the placed, metadata-only dataset (payloads live in the
    store) together with its spatial index.
    """
    if not chunks:
        raise ValueError("cannot load an empty dataset")
    metas = [c.meta for c in chunks]
    chunkset = ChunkSet.from_metas(metas)
    if chunkset.ndim != space.ndim:
        raise ValueError("chunk MBRs do not match the attribute space")
    # Value synopses are summarized here, while the payloads are still in
    # hand; after this point only the store sees chunk values.
    chunkset = chunkset.with_synopsis(ValueSynopsis.from_chunks(chunks))

    # Step 2: placement.
    decl = declusterer if declusterer is not None else HilbertDeclusterer()
    node, disk = decl.assign(chunkset, n_nodes, disks_per_node)

    # Step 3: move chunks to their disks.
    placements = list(zip(node.tolist(), disk.tolist()))
    store.write_chunks(name, list(chunks), placements)

    placed = chunkset.with_placement(node, disk)

    # Step 4: index the chunk MBRs.
    index = ScanIndex.build(placed)

    dataset = Dataset(name, space, placed, payloads=None)
    return LoadedDataset(dataset, index)
