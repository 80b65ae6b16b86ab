"""Common interface for spatial indices over chunk MBRs."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.util.geometry import Rect

__all__ = ["SpatialIndex"]


class SpatialIndex(ABC):
    """Maps a range query to the ids of chunks whose MBR intersects it.

    All implementations answer :meth:`query` with a *sorted* int64 id
    array, so results are directly comparable across index types.
    """

    @classmethod
    def build(cls, chunks: ChunkSet, **kwargs) -> "SpatialIndex":
        """Construct an index over a chunk population."""
        return cls.from_rects(chunks.los, chunks.his, **kwargs)

    @classmethod
    @abstractmethod
    def from_rects(cls, los: np.ndarray, his: np.ndarray, **kwargs) -> "SpatialIndex":
        """Construct from packed ``(n, d)`` MBR arrays."""

    @abstractmethod
    def query(self, rect: Rect) -> np.ndarray:
        """Sorted ids of indexed MBRs intersecting *rect*."""

    @property
    @abstractmethod
    def n_entries(self) -> int:
        """Number of indexed MBRs."""
