"""Aggregation functions: Initialize / Aggregate / Combine / Output.

The paper restricts aggregations to the distributive and algebraic
functions of Gray et al. [15]: associative, commutative operations
whose partial results can be merged.  That restriction is what allows
ADR to replicate accumulator chunks (FRA/SRA) and merge them in the
global-combine phase, or to aggregate forwarded input in any arrival
order (DA).

An accumulator here is a ``(n_cells, n_components)`` array per output
chunk.  The four functions are:

``initialize(n_cells)``
    Fresh accumulator for a chunk (step 3 of the processing loop).
``aggregate(acc, cell_idx, values)``
    Fold a batch of mapped input items into accumulator rows, in
    place.  ``cell_idx`` may repeat -- scatter-reduction semantics.
``combine(acc_into, acc_from)``
    Merge a partial accumulator into another, in place (the global
    combine phase).  Must satisfy ``combine(init, x) == x`` and be
    associative + commutative.
``output(acc)``
    Post-process intermediate results into final output values
    (steps 9--11).

Two optional fast paths ride on top of the four (each with the scalar
path as its oracle, so custom aggregations need not implement them):

``prereduce_groups(values, group_starts)`` / ``scatter_groups(acc, cell_idx, reduced)``
    Batched reduction for the fused kernels
    (:mod:`repro.runtime.kernels`): duplicate cells of a whole batch of
    reads are pre-reduced with one ``ufunc.reduceat`` sweep and folded
    in with plain fancy indexing instead of the much slower
    ``np.add.at``-family scatter.  An aggregation without them is
    reduced by :meth:`~AggregationSpec.aggregate`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type

import numpy as np

__all__ = [
    "AggregationSpec",
    "SumAggregation",
    "CountAggregation",
    "MinAggregation",
    "MaxAggregation",
    "MeanAggregation",
    "BestValueComposite",
    "AGGREGATIONS",
]


class AggregationSpec(ABC):
    """One user aggregation: accumulator layout plus the four functions.

    Parameters
    ----------
    value_components:
        Number of components per input item value (e.g. sensor bands).
    """

    def __init__(self, value_components: int = 1) -> None:
        if value_components < 1:
            raise ValueError("value_components must be >= 1")
        self.value_components = value_components

    # -- accumulator layout --------------------------------------------

    @property
    @abstractmethod
    def acc_components(self) -> int:
        """Components per accumulator cell."""

    @property
    @abstractmethod
    def output_components(self) -> int:
        """Components per final output cell."""

    @property
    def acc_dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    def acc_bytes(self, n_cells: int) -> int:
        """Memory footprint of an accumulator with *n_cells* cells --
        the quantity the tiling algorithms budget against."""
        return int(n_cells) * self.acc_components * self.acc_dtype.itemsize

    #: True when ``combine(x, x) == x`` -- min/max/best-style
    #: aggregations.  Idempotent aggregations may seed *replicated*
    #: accumulator chunks from an existing output dataset (update
    #: queries) without double counting at the global combine.
    idempotent: bool = False

    # -- the four user functions ------------------------------------------

    @abstractmethod
    def initialize(self, n_cells: int) -> np.ndarray:
        """A fresh ``(n_cells, acc_components)`` accumulator."""

    def initialize_from(self, values: np.ndarray) -> np.ndarray:
        """Accumulator reconstructed from existing *output* values
        (phase 1 of an update query: "if an existing output dataset is
        required to initialize accumulator elements").

        Only meaningful where the output determines the intermediate
        state; algebraic aggregations that drop information (mean's
        count, best-value's score) must store accumulator-format
        output to be updatable and override this accordingly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot rebuild its accumulator from "
            "final output values"
        )

    @abstractmethod
    def aggregate(self, acc: np.ndarray, cell_idx: np.ndarray, values: np.ndarray) -> None:
        """Scatter-fold ``values[k]`` into ``acc[cell_idx[k]]`` in place."""

    def prereduce_groups(
        self, values: np.ndarray, group_starts: np.ndarray
    ):
        """Collapse each run ``values[group_starts[j]:group_starts[j+1]]``
        to one ``(acc_components,)`` row, for the whole read at once.

        The runs are the (output chunk, cell) runs of a lexsorted read
        (:class:`repro.runtime.kernels.ReadSegments`), so this is one
        ``ufunc.reduceat`` sweep replacing a reduction per segment; the
        rows then fold in via :meth:`scatter_groups`, one fancy-indexed
        update per segment.  The reduction order within a run is the
        run's element order.

        Returns None when the aggregation has no pre-reduction (the
        default); callers must then fall back to :meth:`aggregate` per
        segment.
        """
        return None

    def scatter_groups(
        self, acc: np.ndarray, cell_idx: np.ndarray, reduced: np.ndarray
    ) -> None:
        """Fold pre-reduced rows into ``acc[cell_idx]`` in place.

        ``cell_idx`` is strictly ascending (one entry per run, unique
        within the call), so plain fancy indexing is enough.  Only
        called when :meth:`prereduce_groups` returned rows.
        """
        raise NotImplementedError(
            f"{type(self).__name__} pre-reduces but does not scatter"
        )

    @abstractmethod
    def combine(self, acc_into: np.ndarray, acc_from: np.ndarray) -> None:
        """Merge a partial accumulator into *acc_into*, in place."""

    @abstractmethod
    def output(self, acc: np.ndarray) -> np.ndarray:
        """Final ``(n_cells, output_components)`` values."""

    # -- shared validation --------------------------------------------------

    def _check_batch(self, acc: np.ndarray, cell_idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[1] != self.value_components:
            raise ValueError(
                f"expected {self.value_components} value components, got {values.shape[1]}"
            )
        if len(cell_idx) != len(values):
            raise ValueError("cell_idx must parallel values")
        if len(cell_idx) and (cell_idx.min() < 0 or cell_idx.max() >= len(acc)):
            raise IndexError("cell index outside accumulator")
        return values


class SumAggregation(AggregationSpec):
    """Running sum per cell (distributive)."""

    def initialize_from(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).copy()

    @property
    def acc_components(self) -> int:
        return self.value_components

    @property
    def output_components(self) -> int:
        return self.value_components

    def initialize(self, n_cells: int) -> np.ndarray:
        return np.zeros((n_cells, self.acc_components))

    def aggregate(self, acc, cell_idx, values) -> None:
        values = self._check_batch(acc, cell_idx, values)
        np.add.at(acc, cell_idx, values)

    def prereduce_groups(self, values, group_starts):
        return np.add.reduceat(values, group_starts, axis=0)

    def scatter_groups(self, acc, cell_idx, reduced) -> None:
        acc[cell_idx] += reduced

    def combine(self, acc_into, acc_from) -> None:
        acc_into += acc_from

    def output(self, acc) -> np.ndarray:
        return acc.copy()


class CountAggregation(AggregationSpec):
    """Item count per cell (values ignored)."""

    def initialize_from(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).copy()

    @property
    def acc_components(self) -> int:
        return 1

    @property
    def output_components(self) -> int:
        return 1

    def initialize(self, n_cells: int) -> np.ndarray:
        return np.zeros((n_cells, 1))

    def aggregate(self, acc, cell_idx, values) -> None:
        self._check_batch(acc, cell_idx, values)
        np.add.at(acc[:, 0], cell_idx, 1.0)

    def prereduce_groups(self, values, group_starts):
        return np.diff(np.append(group_starts, len(values))).astype(float)[:, None]

    def scatter_groups(self, acc, cell_idx, reduced) -> None:
        acc[cell_idx] += reduced

    def combine(self, acc_into, acc_from) -> None:
        acc_into += acc_from

    def output(self, acc) -> np.ndarray:
        return acc.copy()


class MinAggregation(AggregationSpec):
    """Per-cell minimum; empty cells output +inf."""

    idempotent = True

    def initialize_from(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).copy()

    @property
    def acc_components(self) -> int:
        return self.value_components

    @property
    def output_components(self) -> int:
        return self.value_components

    def initialize(self, n_cells: int) -> np.ndarray:
        return np.full((n_cells, self.acc_components), np.inf)

    def aggregate(self, acc, cell_idx, values) -> None:
        values = self._check_batch(acc, cell_idx, values)
        np.minimum.at(acc, cell_idx, values)

    def prereduce_groups(self, values, group_starts):
        return np.minimum.reduceat(values, group_starts, axis=0)

    def scatter_groups(self, acc, cell_idx, reduced) -> None:
        acc[cell_idx] = np.minimum(acc[cell_idx], reduced)

    def combine(self, acc_into, acc_from) -> None:
        np.minimum(acc_into, acc_from, out=acc_into)

    def output(self, acc) -> np.ndarray:
        return acc.copy()


class MaxAggregation(AggregationSpec):
    """Per-cell maximum; empty cells output -inf."""

    idempotent = True

    def initialize_from(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).copy()

    @property
    def acc_components(self) -> int:
        return self.value_components

    @property
    def output_components(self) -> int:
        return self.value_components

    def initialize(self, n_cells: int) -> np.ndarray:
        return np.full((n_cells, self.acc_components), -np.inf)

    def aggregate(self, acc, cell_idx, values) -> None:
        values = self._check_batch(acc, cell_idx, values)
        np.maximum.at(acc, cell_idx, values)

    def prereduce_groups(self, values, group_starts):
        return np.maximum.reduceat(values, group_starts, axis=0)

    def scatter_groups(self, acc, cell_idx, reduced) -> None:
        acc[cell_idx] = np.maximum(acc[cell_idx], reduced)

    def combine(self, acc_into, acc_from) -> None:
        np.maximum(acc_into, acc_from, out=acc_into)

    def output(self, acc) -> np.ndarray:
        return acc.copy()


class MeanAggregation(AggregationSpec):
    """Per-cell average (algebraic: sum + count in the accumulator).

    The motivating example from the paper: "an accumulator can be used
    to keep a running sum for an averaging operation".  Empty cells
    output NaN.
    """

    @property
    def acc_components(self) -> int:
        return self.value_components + 1  # sums + count

    @property
    def output_components(self) -> int:
        return self.value_components

    def initialize(self, n_cells: int) -> np.ndarray:
        return np.zeros((n_cells, self.acc_components))

    def aggregate(self, acc, cell_idx, values) -> None:
        values = self._check_batch(acc, cell_idx, values)
        np.add.at(acc[:, : self.value_components], cell_idx, values)
        np.add.at(acc[:, -1], cell_idx, 1.0)

    def prereduce_groups(self, values, group_starts):
        reduced = np.empty((len(group_starts), self.acc_components))
        reduced[:, : self.value_components] = np.add.reduceat(
            values, group_starts, axis=0
        )
        reduced[:, -1] = np.diff(np.append(group_starts, len(values)))
        return reduced

    def scatter_groups(self, acc, cell_idx, reduced) -> None:
        acc[cell_idx] += reduced

    def combine(self, acc_into, acc_from) -> None:
        acc_into += acc_from

    def output(self, acc) -> np.ndarray:
        counts = acc[:, -1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = acc[:, : self.value_components] / counts
        out[counts[:, 0] == 0] = np.nan
        return out


class BestValueComposite(AggregationSpec):
    """Keep the value whose *score* (first component) is largest.

    Models AVHRR compositing: "each pixel in the composite image is
    computed by selecting the 'best' sensor value that maps to the
    associated grid point" -- e.g. the reading with the highest NDVI.
    Ties are broken toward the remaining components' lexicographic
    maximum so the result is independent of aggregation order (the
    associativity/commutativity requirement).
    """

    def __init__(self, value_components: int = 2) -> None:
        if value_components < 2:
            raise ValueError(
                "BestValueComposite needs a score plus at least one payload component"
            )
        super().__init__(value_components)

    @property
    def acc_components(self) -> int:
        return self.value_components

    @property
    def output_components(self) -> int:
        return self.value_components - 1  # payload only

    def initialize(self, n_cells: int) -> np.ndarray:
        acc = np.full((n_cells, self.acc_components), -np.inf)
        return acc

    @staticmethod
    def _lex_better(cand: np.ndarray, cur: np.ndarray) -> np.ndarray:
        """Row-wise lexicographic ``cand > cur`` over all components."""
        better = np.zeros(len(cand), dtype=bool)
        decided = np.zeros(len(cand), dtype=bool)
        for j in range(cand.shape[1]):
            gt = cand[:, j] > cur[:, j]
            lt = cand[:, j] < cur[:, j]
            better |= gt & ~decided
            decided |= gt | lt
        return better

    # No pre-reduction: the lexsorted segment-argmax in aggregate() is
    # already batched.
    def aggregate(self, acc, cell_idx, values) -> None:
        values = self._check_batch(acc, cell_idx, values)
        # Reduce duplicates within the batch first (segment argmax),
        # then compare the per-cell winners against the accumulator.
        order = np.lexsort(
            tuple(values[:, j] for j in range(values.shape[1] - 1, -1, -1))
            + (cell_idx,)
        )
        sorted_cells = cell_idx[order]
        # Last occurrence per cell after the lexsort is the winner.
        last = np.flatnonzero(
            np.concatenate((np.diff(sorted_cells) != 0, [True]))
        )
        win_idx = order[last]
        cells = cell_idx[win_idx]
        cand = values[win_idx]
        cur = acc[cells]
        mask = self._lex_better(cand, cur)
        acc[cells[mask]] = cand[mask]

    def combine(self, acc_into, acc_from) -> None:
        mask = self._lex_better(acc_from, acc_into)
        acc_into[mask] = acc_from[mask]

    def output(self, acc) -> np.ndarray:
        out = acc[:, 1:].copy()
        out[np.isneginf(acc[:, 0])] = np.nan
        return out


#: Registry of built-in aggregations, keyed by the names the front end
#: accepts in query specifications.
AGGREGATIONS: Dict[str, Type[AggregationSpec]] = {
    "sum": SumAggregation,
    "count": CountAggregation,
    "min": MinAggregation,
    "max": MaxAggregation,
    "mean": MeanAggregation,
    "best": BestValueComposite,
}
