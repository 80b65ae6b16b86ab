"""Brute-force index: a vectorized linear scan.

The correctness oracle for the scan index and the R-tree, and --
thanks to NumPy -- a respectable baseline for small chunk populations,
which the index ablation bench quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import SpatialIndex
from repro.util.geometry import Rect, rects_intersect_mask

__all__ = ["BruteForceIndex"]


class BruteForceIndex(SpatialIndex):
    def __init__(self, los: np.ndarray, his: np.ndarray) -> None:
        self.los = np.ascontiguousarray(los, dtype=float)
        self.his = np.ascontiguousarray(his, dtype=float)
        if self.los.ndim != 2 or self.los.shape != self.his.shape:
            raise ValueError("los/his must be matching (n, d) arrays")

    @classmethod
    def from_rects(cls, los: np.ndarray, his: np.ndarray, **kwargs) -> "BruteForceIndex":
        return cls(los, his)

    def query(self, rect: Rect) -> np.ndarray:
        return np.flatnonzero(rects_intersect_mask(self.los, self.his, rect))

    @property
    def n_entries(self) -> int:
        return len(self.los)
