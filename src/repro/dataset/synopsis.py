"""Per-chunk value synopses: min/max/count/null-count per component.

A :class:`ValueSynopsis` is the column-packed summary the planner uses
to prune chunks against a :class:`~repro.dataset.predicate.
ValuePredicate` before any I/O is scheduled.  It is built once at
dataset load (from the payload-bearing chunks) and rides on the
:class:`~repro.dataset.chunkset.ChunkSet`; ``subset()`` keeps it
aligned with chunk renumbering so synopsis row ``i`` always describes
chunk ``i`` of the set it is attached to.

Nulls are NaN values.  ``vmin``/``vmax`` are NaN for components with
no non-null item -- the predicate layer treats those chunks as
prunable via the null counts, never via the NaN extrema.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ValueSynopsis"]


class ValueSynopsis:
    """Column-packed per-chunk value summaries.

    Arrays (all length ``n`` on axis 0):

    - ``vmin``, ``vmax``: ``(n, k)`` float64 extrema over non-null items
    - ``nulls``: ``(n, k)`` int64 NaN counts
    - ``counts``: ``(n,)`` int64 item counts
    """

    def __init__(
        self,
        vmin: np.ndarray,
        vmax: np.ndarray,
        nulls: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.vmin = np.ascontiguousarray(vmin, dtype=np.float64)
        self.vmax = np.ascontiguousarray(vmax, dtype=np.float64)
        self.nulls = np.ascontiguousarray(nulls, dtype=np.int64)
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        if self.vmin.ndim != 2:
            raise ValueError(f"vmin must be (n, k), got shape {self.vmin.shape}")
        for name, arr in (("vmax", self.vmax), ("nulls", self.nulls)):
            if arr.shape != self.vmin.shape:
                raise ValueError(
                    f"{name} shape {arr.shape} != vmin shape {self.vmin.shape}"
                )
        if self.counts.shape != (self.vmin.shape[0],):
            raise ValueError(
                f"counts shape {self.counts.shape} != ({self.vmin.shape[0]},)"
            )

    def __len__(self) -> int:
        return self.vmin.shape[0]

    @property
    def n_components(self) -> int:
        return self.vmin.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueSynopsis):
            return NotImplemented
        return (
            self.vmin.shape == other.vmin.shape
            and np.array_equal(self.vmin, other.vmin, equal_nan=True)
            and np.array_equal(self.vmax, other.vmax, equal_nan=True)
            and np.array_equal(self.nulls, other.nulls)
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None

    @staticmethod
    def summarize_values(values: np.ndarray) -> tuple:
        """``(vmin, vmax, nulls, count)`` row for one chunk's values.

        Accepts ``(n,)`` or ``(n, k)`` (trailing dims flattened); the
        extrema ignore NaN, the null row counts NaN per component.
        """
        vmin, vmax, nulls, counts = _summarize([values])
        return vmin[0], vmax[0], nulls[0], int(counts[0])

    @classmethod
    def from_chunks(cls, chunks: Iterable) -> "ValueSynopsis":
        """Build from payload-bearing :class:`~repro.dataset.chunk.Chunk`
        objects (anything with a ``.values`` array)."""
        blocks = [c.values for c in chunks]
        if not blocks:
            raise ValueError("cannot build a synopsis over zero chunks")
        return cls(*_summarize(blocks))

    def subset(self, ids: np.ndarray) -> "ValueSynopsis":
        """Rows for ``ids``, in that order (mirrors ``ChunkSet.subset``)."""
        ids = np.asarray(ids, dtype=np.int64)
        return ValueSynopsis(
            vmin=self.vmin[ids],
            vmax=self.vmax[ids],
            nulls=self.nulls[ids],
            counts=self.counts[ids],
        )


def _summarize(blocks: Sequence) -> tuple:
    """``(vmin, vmax, nulls, counts)`` of every value block in one pass:
    the blocks are concatenated and each one's rows reduced by
    ``reduceat`` with ``fmin`` / ``fmax``, the NaN-skipping reductions
    ``nanmin`` / ``nanmax`` run.  An empty block takes no start (a
    ``reduceat`` segment cannot be empty); a component with no non-null
    item is NaN."""
    vals = [np.asarray(b, dtype=np.float64) for b in blocks]
    ks = {prod(v.shape[1:]) for v in vals}
    if len(ks) > 1:
        raise ValueError("chunks disagree on value component count")
    (k,) = ks
    counts = np.array([len(v) for v in vals], dtype=np.int64)
    flat = np.concatenate([v.reshape(len(v), k) for v in vals])
    live = counts > 0
    starts = (np.cumsum(counts) - counts)[live]
    vmin, vmax = np.empty((2, len(vals), k))
    nulls = np.zeros((len(vals), k), dtype=np.int64)
    vmin[live] = np.fmin.reduceat(flat, starts)
    vmax[live] = np.fmax.reduceat(flat, starts)
    nulls[live] = np.add.reduceat(np.isnan(flat), starts, dtype=np.int64)
    dead = nulls == counts[:, None]
    vmin[dead] = vmax[dead] = np.nan
    return vmin, vmax, nulls, counts
