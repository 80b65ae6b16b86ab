"""Dataset and workload profiling.

The numbers Table 1 summarizes -- chunk counts, byte totals, fan-in /
fan-out moments -- plus the spatial properties that drive strategy
behaviour (MBR overlap, placement balance, fan-in skew).  Used by the
Table-1 bench and by users sizing a new application against the three
reference classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph

__all__ = ["ChunkSetProfile", "GraphProfile", "profile_chunkset", "profile_graph"]


@dataclass(frozen=True)
class ChunkSetProfile:
    """Summary statistics of a chunk population."""

    n_chunks: int
    total_bytes: int
    chunk_bytes_mean: float
    chunk_bytes_cv: float  # coefficient of variation (std/mean)
    mean_extent: np.ndarray  # per-dimension mean MBR side length
    #: expected number of chunks covering a random point, >= coverage
    #: of the bounds; 1.0 means a perfect non-overlapping tiling
    overlap_factor: float
    #: chunks per node max/mean (nan when unplaced)
    placement_balance: float

    def describe(self) -> str:
        lines = [
            f"{self.n_chunks} chunks, {self.total_bytes / 2**20:.1f} MB "
            f"(mean {self.chunk_bytes_mean / 1024:.1f} KB, cv {self.chunk_bytes_cv:.2f})",
            "mean MBR extent: "
            + " x ".join(f"{e:.4g}" for e in self.mean_extent),
            f"overlap factor {self.overlap_factor:.2f}",
        ]
        if not np.isnan(self.placement_balance):
            lines.append(f"placement balance (max/mean per node) {self.placement_balance:.3f}")
        return "\n".join(lines)


def profile_chunkset(chunks: ChunkSet, n_nodes: Optional[int] = None) -> ChunkSetProfile:
    sizes = chunks.nbytes.astype(float)
    extents = chunks.his - chunks.los
    bounds = chunks.bounds
    bounds_vol = bounds.volume
    chunk_vols = np.prod(extents, axis=1)
    overlap = float(chunk_vols.sum() / bounds_vol) if bounds_vol > 0 else float("nan")
    if chunks.placed:
        counts = np.bincount(
            chunks.node, minlength=n_nodes if n_nodes else chunks.node.max() + 1
        ).astype(float)
        balance = float(counts.max() / counts.mean()) if counts.mean() else float("nan")
    else:
        balance = float("nan")
    return ChunkSetProfile(
        n_chunks=len(chunks),
        total_bytes=chunks.total_bytes,
        chunk_bytes_mean=float(sizes.mean()),
        chunk_bytes_cv=float(sizes.std() / sizes.mean()) if sizes.mean() else 0.0,
        mean_extent=extents.mean(axis=0),
        overlap_factor=overlap,
        placement_balance=balance,
    )


@dataclass(frozen=True)
class GraphProfile:
    """Fan-in/fan-out structure of an input/output chunk graph."""

    n_edges: int
    fan_out_mean: float
    fan_out_max: int
    fan_in_mean: float
    fan_in_max: int
    #: Gini-style skew of the fan-in distribution, 0 = uniform.  High
    #: skew is what hurts DA's ownership-granularity load balance.
    fan_in_skew: float
    #: fraction of input chunks mapping to no selected output
    dangling_inputs: float

    def describe(self) -> str:
        return (
            f"{self.n_edges} edges; fan-out {self.fan_out_mean:.2f} "
            f"(max {self.fan_out_max}); fan-in {self.fan_in_mean:.1f} "
            f"(max {self.fan_in_max}, skew {self.fan_in_skew:.2f}); "
            f"{self.dangling_inputs * 100:.1f}% dangling inputs"
        )


def _gini(x: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    total = x.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * x).sum()) / (n * total) - (n + 1) / n)


def profile_graph(graph: ChunkGraph) -> GraphProfile:
    fan_out = graph.fan_out
    fan_in = graph.fan_in
    return GraphProfile(
        n_edges=graph.n_edges,
        fan_out_mean=graph.avg_fan_out,
        fan_out_max=int(fan_out.max(initial=0)),
        fan_in_mean=graph.avg_fan_in,
        fan_in_max=int(fan_in.max(initial=0)),
        fan_in_skew=_gini(fan_in),
        dangling_inputs=float((fan_out == 0).mean()) if graph.n_in else 0.0,
    )
