"""Datasets and the back-end dataset catalog.

A :class:`Dataset` couples an attribute space with a chunk population
(:class:`~repro.dataset.chunkset.ChunkSet`) and, on the functional
path, with the chunk payloads themselves (either held in memory or
resident in a :mod:`repro.store` chunk store).  The
:class:`DatasetCatalog` is the dataset service's registry of what is
stored in the ADR back end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.dataset.chunk import Chunk
from repro.dataset.chunkset import ChunkSet
from repro.space.attribute_space import AttributeSpace
from repro.util.geometry import Rect

__all__ = ["Dataset", "DatasetCatalog"]


@dataclass
class Dataset:
    """A named, chunked, spatially indexed dataset.

    Attributes
    ----------
    name:
        Catalog key.
    space:
        The attribute space the chunk MBRs live in.
    chunks:
        Packed chunk metadata.
    payloads:
        Optional in-memory chunk payloads, parallel to ``chunks`` by
        chunk id.  ``None`` for metadata-only datasets (emulator
        populations, store-resident data).
    """

    name: str
    space: AttributeSpace
    chunks: ChunkSet
    payloads: Optional[List[Chunk]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        if self.chunks.ndim != self.space.ndim:
            raise ValueError(
                f"chunks are {self.chunks.ndim}-d but space {self.space.name!r} "
                f"is {self.space.ndim}-d"
            )
        if self.payloads is not None:
            if len(self.payloads) != len(self.chunks):
                raise ValueError("payload list must parallel the chunk set")
            for i, c in enumerate(self.payloads):
                if c.chunk_id != i:
                    raise ValueError("payloads must be ordered by chunk id")

    @staticmethod
    def from_chunks(name: str, space: AttributeSpace, chunk_list: Sequence[Chunk]) -> "Dataset":
        """Build a payload-carrying dataset from Chunk objects."""
        metas = [c.meta for c in chunk_list]
        return Dataset(name, space, ChunkSet.from_metas(metas), list(chunk_list))

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def payload(self, chunk_id: int) -> Chunk:
        if self.payloads is None:
            raise RuntimeError(
                f"dataset {self.name!r} is metadata-only (no payloads loaded)"
            )
        return self.payloads[chunk_id]

    def intersecting(self, query: Rect) -> np.ndarray:
        """Chunk ids whose MBR intersects the range query."""
        return self.chunks.intersecting(self.space.validate_query(query))

    def with_placement(self, node: np.ndarray, disk: np.ndarray) -> "Dataset":
        placed = self.chunks.with_placement(node, disk)
        ds = Dataset(self.name, self.space, placed, self.payloads)
        return ds


class DatasetCatalog:
    """Registry of the datasets resident in an ADR back end."""

    def __init__(self) -> None:
        self._datasets: Dict[str, Dataset] = {}

    def add(self, dataset: Dataset, replace: bool = False) -> Dataset:
        if dataset.name in self._datasets and not replace:
            raise ValueError(f"dataset {dataset.name!r} already in catalog")
        self._datasets[dataset.name] = dataset
        return dataset

    def get(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise KeyError(f"dataset {name!r} is not in the catalog") from None

    def remove(self, name: str) -> None:
        if name not in self._datasets:
            raise KeyError(f"dataset {name!r} is not in the catalog")
        del self._datasets[name]

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    def names(self) -> Iterable[str]:
        return self._datasets.keys()
