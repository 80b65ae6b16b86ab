"""Partial aggregation: raw accumulators over the wire.

The paper's back end "combines partial accumulators globally" -- each
process aggregates its own chunks, then the intermediate accumulator
state is merged across processes.  :class:`PartialAggregationSpec`
makes that state wire-visible without touching the engine: it wraps a
query's aggregation and swaps the output phase to the identity, so the
shard's :class:`~repro.runtime.engine.QueryResult` carries raw
``(n_cells, acc_components)`` accumulators instead of finalized
values.  The router then merges partials with the *inner* spec's
``combine`` -- the documented FRA global-combine semantics
(associative, commutative, ``combine(init, x) == x``) -- and runs the
real ``output`` exactly once per output chunk.

Everything else delegates to the inner spec, tile budgeting included
(``acc_bytes`` is the inner accumulator footprint), so a shard plans
and executes exactly as a standalone ADR over its chunk subset would.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.frontend.query import RangeQuery
from repro.runtime.engine import QueryResult, assemble_result

__all__ = [
    "PartialAggregationSpec",
    "as_partial",
    "empty_partial_result",
    "combine_partials",
]

#: Substring of the planner's empty-selection errors ("selects no
#: input chunks", "... after value-synopsis pruning").  A shard whose
#: local index selects nothing for a query is not an error in a
#: scatter -- it contributes an empty partial.
EMPTY_SELECTION_MARK = "selects no input chunks"


class PartialAggregationSpec(AggregationSpec):
    """Wrap a spec so the output phase returns the raw accumulator."""

    def __init__(self, inner: AggregationSpec) -> None:
        super().__init__(inner.value_components)
        self.inner = inner
        self.idempotent = inner.idempotent

    # -- layout (inner accumulator travels as the "output") ------------

    @property
    def acc_components(self) -> int:
        return self.inner.acc_components

    @property
    def output_components(self) -> int:
        return self.inner.acc_components

    @property
    def acc_dtype(self) -> np.dtype:
        return self.inner.acc_dtype

    # -- delegation ----------------------------------------------------

    def initialize(self, n_cells: int) -> np.ndarray:
        return self.inner.initialize(n_cells)

    def initialize_from(self, values: np.ndarray) -> np.ndarray:
        return self.inner.initialize_from(values)

    def initialize_into(self, acc: np.ndarray) -> None:
        self.inner.initialize_into(acc)

    def aggregate(self, acc, cell_idx, values) -> None:
        self.inner.aggregate(acc, cell_idx, values)

    def prereduce_groups(self, values, group_starts):
        return self.inner.prereduce_groups(values, group_starts)

    def scatter_groups(self, acc, cell_idx, reduced) -> None:
        self.inner.scatter_groups(acc, cell_idx, reduced)

    def combine(self, acc_into, acc_from) -> None:
        self.inner.combine(acc_into, acc_from)

    def output(self, acc: np.ndarray) -> np.ndarray:
        """Identity: the raw accumulator is this query's output."""
        return acc.copy()


def as_partial(query: RangeQuery) -> RangeQuery:
    """The same query with its aggregation wrapped for partial output."""
    return replace(query, aggregation=PartialAggregationSpec(query.spec()))


def empty_partial_result(query: RangeQuery) -> QueryResult:
    """The partial of a shard that owns no chunk the query selects.

    Zero everywhere: nothing was read, aggregated, or pruned.  (A
    shard whose *entire* selection is value-synopsis-pruned also lands
    here -- the planner refuses to plan an empty selection before any
    counters exist -- so such a shard reports ``chunks_pruned = 0``;
    the router's completeness denominator keeps its planned chunks,
    which is conservative and documented in ``docs/sharding.md``.)
    """
    return assemble_result(None, {}, strategy=query.strategy.upper(), n_tiles=0)


def combine_partials(
    spec: AggregationSpec,
    grid: OutputGrid,
    output_ids: np.ndarray,
    partials: List[Tuple[int, QueryResult]],
) -> Tuple[List[np.ndarray], int]:
    """FRA global combine over shard partials.

    *spec* is the query's **inner** aggregation; *output_ids* the
    router-planned (authoritative) output chunk ids; *partials* the
    live shards' ``(shard_id, partial_result)`` pairs.  Shards are
    folded in ascending shard-id order -- a deterministic order, so
    repeated queries over the same deployment are bit-identical even
    though combine is commutative.

    Returns the finalized per-chunk values and the number of
    ``combine`` calls performed (the router's contribution to the
    merged ``n_combines`` counter).
    """
    per_shard: List[Tuple[int, Dict[int, np.ndarray]]] = sorted(
        (
            (sid, {int(o): v for o, v in zip(r.output_ids, r.chunk_values)})
            for sid, r in partials
        ),
        key=lambda item: item[0],
    )
    values: List[np.ndarray] = []
    n_combines = 0
    for gid in output_ids:
        acc = spec.initialize(grid.cells_in_chunk(int(gid)))
        for _, by_output in per_shard:
            part = by_output.get(int(gid))
            if part is not None:
                spec.combine(acc, part)
                n_combines += 1
        values.append(spec.output(acc))
    return values, n_combines
