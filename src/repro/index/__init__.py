"""Indexing service (paper Section 2.1--2.2).

"After all data chunks are stored into the desired locations in the
disk farm, an index (e.g., an R-tree) is constructed using the MBRs of
the chunks.  The index is used by the back-end nodes to find the local
chunks with MBRs that intersect the range query."

This package implements that index from scratch:

- :class:`RTree` -- dynamic inserts with quadratic split plus an STR
  (Sort-Tile-Recursive) bulk loader used by the dataset loader;
- :class:`BruteForceIndex` -- the vectorized linear scan every other
  index is checked against in tests and benches;
- :class:`ScanIndex` -- packed MBR columns sorted on the primary
  dimension, binsearch-narrowed branchless scan (modern-hardware
  answer to tree traversal);
- :class:`HierarchicalBitmapIndex` -- per-level uint64 bin bitsets
  with segment-tree covers, AND/OR word ops per query.
"""

from repro.index.base import SpatialIndex
from repro.index.bitmap import HierarchicalBitmapIndex
from repro.index.brute import BruteForceIndex
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex

__all__ = [
    "SpatialIndex",
    "BruteForceIndex",
    "RTree",
    "ScanIndex",
    "HierarchicalBitmapIndex",
]
