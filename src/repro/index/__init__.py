"""Indexing service (paper Section 2.1--2.2).

"After all data chunks are stored into the desired locations in the
disk farm, an index (e.g., an R-tree) is constructed using the MBRs of
the chunks.  The index is used by the back-end nodes to find the local
chunks with MBRs that intersect the range query."

Every dataset is indexed by a :class:`ScanIndex`, the fastest lookup
measured wherever the lookup is a visible share of a query
(``benchmarks/bench_ablation_index.py``).  Three implementations share
the sorted-``int64`` :meth:`SpatialIndex.query` contract:

- :class:`ScanIndex` -- packed MBR columns sorted on the primary
  dimension, binsearch-narrowed branchless scan; the one the loader
  builds;
- :class:`RTree` -- the paper's index (quadratic split plus STR and
  Hilbert bulk loading), kept as the ablation baseline;
- :class:`BruteForceIndex` -- the vectorized linear scan every other
  index is checked against in tests and benches.
"""

from repro.index.base import SpatialIndex
from repro.index.brute import BruteForceIndex
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex

__all__ = [
    "SpatialIndex",
    "BruteForceIndex",
    "RTree",
    "ScanIndex",
]
