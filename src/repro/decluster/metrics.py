"""Placement quality metrics.

The figure of merit for declustering under range queries (paper ref
[21]) is how close the per-query I/O comes to the ideal parallel time:
if a query retrieves ``r`` chunks spread over ``k`` disks, the best
possible is ``ceil(r / k)`` chunks from the busiest disk.
:func:`query_balance` reports the busiest-disk load and its ratio to
that ideal; :func:`placement_report` aggregates over a query workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.util.geometry import Rect

__all__ = ["QueryBalance", "query_balance", "placement_report", "PlacementReport"]


@dataclass(frozen=True)
class QueryBalance:
    """Disk balance for one range query under one placement."""

    n_retrieved: int
    busiest_disk: int
    ideal: int

    @property
    def ratio(self) -> float:
        """busiest / ideal; 1.0 is a perfect decluster for this query."""
        return self.busiest_disk / self.ideal if self.ideal else 1.0


def _global_disks(chunks: ChunkSet, disks_per_node: int) -> np.ndarray:
    if not chunks.placed:
        raise ValueError("chunks must be placed before measuring balance")
    return chunks.node.astype(np.int64) * disks_per_node + chunks.disk


def query_balance(
    chunks: ChunkSet, query: Rect, n_disks: int, disks_per_node: int = 1
) -> QueryBalance:
    """Busiest-disk load for the chunks a range query retrieves."""
    hits = chunks.intersecting(query)
    if len(hits) == 0:
        return QueryBalance(0, 0, 0)
    g = _global_disks(chunks, disks_per_node)[hits]
    counts = np.bincount(g, minlength=n_disks)
    return QueryBalance(
        n_retrieved=len(hits),
        busiest_disk=int(counts.max()),
        ideal=math.ceil(len(hits) / n_disks),
    )


@dataclass(frozen=True)
class PlacementReport:
    """Aggregate balance over a workload of range queries."""

    n_queries: int
    mean_ratio: float
    max_ratio: float
    mean_retrieved: float

    def __str__(self) -> str:
        return (
            f"{self.n_queries} queries: mean busiest/ideal "
            f"{self.mean_ratio:.3f}, worst {self.max_ratio:.3f}, "
            f"mean chunks retrieved {self.mean_retrieved:.1f}"
        )


def placement_report(
    chunks: ChunkSet,
    queries: Sequence[Rect],
    n_disks: int,
    disks_per_node: int = 1,
) -> PlacementReport:
    ratios: List[float] = []
    sizes: List[int] = []
    for q in queries:
        b = query_balance(chunks, q, n_disks, disks_per_node)
        if b.n_retrieved:
            ratios.append(b.ratio)
            sizes.append(b.n_retrieved)
    if not ratios:
        return PlacementReport(0, 1.0, 1.0, 0.0)
    return PlacementReport(
        n_queries=len(ratios),
        mean_ratio=float(np.mean(ratios)),
        max_ratio=float(np.max(ratios)),
        mean_retrieved=float(np.mean(sizes)),
    )
