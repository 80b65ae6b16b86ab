"""Range queries.

"Access to data items is described by a range query, namely a
multi-dimensional bounding box in the underlying multi-dimensional
attribute space of the dataset."  A :class:`RangeQuery` bundles that
box with the references to user-defined processing the front end
forwards to the back end: the input dataset, the output grid, the
``Map`` function and the aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.aggregation.functions import AGGREGATIONS, AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.predicate import ValuePredicate
from repro.planner.select import AUTO
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect

__all__ = ["RangeQuery"]


@dataclass
class RangeQuery:
    """One client query against an ADR instance.

    Attributes
    ----------
    dataset:
        Name of the input dataset (must be loaded).
    region:
        Bounding box in the input dataset's attribute space.
    mapping:
        The user ``Map``: input space -> output grid coordinates.
    grid:
        Output dataset layout (cells + chunk blocking).
    aggregation:
        An :class:`AggregationSpec` or the name of a built-in one
        (``"sum"``, ``"mean"``, ``"max"``, ``"best"``, ...).
    strategy:
        ``"FRA"``, ``"SRA"``, ``"DA"``, ``"HYBRID"``, or ``"AUTO"`` to
        let the cost model choose (Section 6 future work).
    value_components:
        Components per input item value, used when *aggregation* is a
        name.
    on_error:
        ``"raise"`` (default): the first unreadable input chunk aborts
        the query with its underlying error.  ``"degrade"``: the query
        completes over the readable chunks, reporting the unreadable
        ones in ``QueryResult.chunk_errors`` and the incorporated
        fraction in ``QueryResult.completeness``.
    where:
        Optional value predicate restricting which *items* contribute:
        a :class:`~repro.dataset.predicate.ValuePredicate` or a
        ``{component: (lo, hi)}`` mapping of closed intervals (``None``
        endpoints unbounded), conjoined across components.  Items with
        NaN in a constrained component never qualify.  The planner uses
        per-chunk value synopses to skip chunks that provably contain
        no qualifying item (reported via ``QueryResult.chunks_pruned``
        / ``bytes_pruned``); the fused kernels apply the same predicate
        exactly to every chunk that is read, so results are
        bit-identical with or without pruning.
    """

    dataset: str
    region: Rect
    mapping: GridMapping
    grid: OutputGrid
    aggregation: Union[str, AggregationSpec] = "mean"
    strategy: str = AUTO
    value_components: int = 1
    on_error: str = "raise"
    where: Union[ValuePredicate, Dict[int, tuple], None] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "degrade"):
            raise ValueError(
                f"unknown on_error {self.on_error!r}; expected 'raise' or 'degrade'"
            )
        self.where = ValuePredicate.coerce(self.where)

    def predicate(self) -> Optional[ValuePredicate]:
        """The normalized ``where`` predicate (``None`` when absent)."""
        return ValuePredicate.coerce(self.where)

    def spec(self) -> AggregationSpec:
        """Resolve the aggregation to a spec instance."""
        if isinstance(self.aggregation, AggregationSpec):
            return self.aggregation
        try:
            cls = AGGREGATIONS[self.aggregation]
        except KeyError:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; built-ins: "
                f"{sorted(AGGREGATIONS)}"
            ) from None
        return cls(value_components=self.value_components)
