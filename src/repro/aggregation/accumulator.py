"""Accumulator memory management.

During query execution every processor holds accumulator chunks for
the current tile -- its own local chunks plus, under FRA/SRA, ghost
chunks for output it does not own.  :class:`AccumulatorSet` is one
processor's view: it allocates, tracks and releases accumulator arrays
and enforces the memory budget the tiling step planned against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.aggregation.functions import AggregationSpec

__all__ = ["Accumulator", "AccumulatorSet", "BufferPool"]


class BufferPool:
    """Recycles accumulator arrays across tiles.

    ``AccumulatorSet.clear()`` runs at every tile boundary; without a
    pool that is one fresh ``np.zeros``-style allocation per (output
    chunk, holder, tile).  Tiles repeat the same few accumulator
    shapes, so released buffers are kept keyed by shape and handed
    back on the next ``allocate`` after an in-place
    :meth:`~repro.aggregation.functions.AggregationSpec.initialize_into`.
    Not thread-safe (one pool per virtual processor or engine run).
    """

    def __init__(self, max_buffers_per_shape: int = 64) -> None:
        self.max_buffers_per_shape = int(max_buffers_per_shape)
        self._free: Dict[Tuple[int, ...], List[np.ndarray]] = {}
        self.reuses = 0
        self.fresh_allocations = 0
        self.returned = 0

    def take(self, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """A recycled buffer of *shape*, or None (caller allocates)."""
        stack = self._free.get(shape)
        if stack:
            self.reuses += 1
            return stack.pop()
        self.fresh_allocations += 1
        return None

    def put(self, array: np.ndarray) -> None:
        """Return a released accumulator buffer to the pool."""
        if not array.flags.owndata or not array.flags.writeable:
            return  # views into arenas (parallel backend) are not poolable
        stack = self._free.setdefault(array.shape, [])
        if len(stack) < self.max_buffers_per_shape:
            stack.append(array)
        self.returned += 1

    @property
    def buffers_held(self) -> int:
        return sum(len(s) for s in self._free.values())

    def stats(self) -> dict:
        return {
            "pool_reuses": self.reuses,
            "pool_fresh_allocations": self.fresh_allocations,
            "pool_buffers_held": self.buffers_held,
        }


@dataclass
class Accumulator:
    """One accumulator chunk: intermediate results for one output chunk."""

    output_chunk: int
    data: np.ndarray  # (n_cells, acc_components)
    ghost: bool  # True when this processor does not own the output chunk

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


class AccumulatorSet:
    """Per-processor accumulator chunks for the current tile."""

    def __init__(
        self,
        spec: AggregationSpec,
        memory_limit: int | None = None,
        pool: BufferPool | None = None,
    ) -> None:
        self.spec = spec
        self.memory_limit = memory_limit
        self.pool = pool
        self._chunks: Dict[int, Accumulator] = {}
        self._bytes = 0

    def allocate(
        self,
        output_chunk: int,
        n_cells: int,
        ghost: bool,
        data: np.ndarray | None = None,
    ) -> Accumulator:
        """Allocate + initialize an accumulator chunk (phase 1).

        When *data* is given (the parallel backend's shared-memory
        arena views), it is re-initialized in place and used directly;
        the pool is bypassed, but the memory budget still applies.
        """
        if output_chunk in self._chunks:
            raise KeyError(f"accumulator for output chunk {output_chunk} already allocated")
        need = self.spec.acc_bytes(n_cells)
        if self.memory_limit is not None and self._bytes + need > self.memory_limit:
            raise MemoryError(
                f"allocating {need} bytes for output chunk {output_chunk} exceeds "
                f"the {self.memory_limit}-byte accumulator budget "
                f"({self._bytes} in use) -- the tiling step should prevent this"
            )
        if data is not None:
            self.spec.initialize_into(data)
        elif self.pool is not None:
            data = self.pool.take((n_cells, self.spec.acc_components))
            if data is not None:
                self.spec.initialize_into(data)
        if data is None:
            data = self.spec.initialize(n_cells)
        acc = Accumulator(output_chunk, data, ghost)
        self._chunks[output_chunk] = acc
        self._bytes += acc.nbytes
        return acc

    def get(self, output_chunk: int) -> Accumulator:
        try:
            return self._chunks[output_chunk]
        except KeyError:
            raise KeyError(
                f"no accumulator for output chunk {output_chunk} on this processor"
            ) from None

    def __contains__(self, output_chunk: int) -> bool:
        return output_chunk in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def __iter__(self) -> Iterator[Accumulator]:
        return iter(self._chunks.values())

    @property
    def bytes_in_use(self) -> int:
        return self._bytes

    def aggregate(self, output_chunk: int, cell_idx: np.ndarray, values: np.ndarray) -> None:
        """Fold mapped items into one accumulator chunk (phase 2)."""
        self.spec.aggregate(self.get(output_chunk).data, cell_idx, values)

    def scatter_groups(
        self, output_chunk: int, cell_idx: np.ndarray, reduced: np.ndarray
    ) -> None:
        """Fold pre-reduced cell runs into one accumulator chunk (the
        per-segment tail of the read-level
        :meth:`AggregationSpec.prereduce_groups` fast path)."""
        self.spec.scatter_groups(self.get(output_chunk).data, cell_idx, reduced)

    def combine_from(self, output_chunk: int, ghost_data: np.ndarray) -> None:
        """Merge a ghost accumulator received from another processor
        into the locally owned chunk (phase 3)."""
        acc = self.get(output_chunk)
        if acc.ghost:
            raise ValueError(
                f"output chunk {output_chunk} is a ghost here; combine must "
                "run on the owning processor"
            )
        if ghost_data.shape != acc.data.shape:
            raise ValueError("ghost accumulator shape mismatch")
        self.spec.combine(acc.data, ghost_data)

    def ghosts(self) -> Iterator[Accumulator]:
        """The ghost chunks to ship to their owners in phase 3."""
        return (a for a in self._chunks.values() if a.ghost)

    def locals(self) -> Iterator[Accumulator]:
        return (a for a in self._chunks.values() if not a.ghost)

    def clear(self) -> None:
        """Release everything (end of tile); pooled buffers recycle."""
        if self.pool is not None:
            for acc in self._chunks.values():
                self.pool.put(acc.data)
        self._chunks.clear()
        self._bytes = 0
