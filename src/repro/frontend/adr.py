"""The ADR façade: a customized application instance.

One :class:`ADR` object plays both roles of the paper's architecture
diagram (Figure 2): the front-end services (query interface and
submission, attribute-space registry) and the back-end services
(dataset storage, indexing, planning, execution).  Client code:

.. code-block:: python

    adr = ADR(machine=ibm_sp(8))
    adr.register_space(space)
    adr.load("sensors", space, chunks)
    result = adr.execute(RangeQuery("sensors", region, mapping, grid,
                                    aggregation="mean", strategy="AUTO"))

Planning, validation, functional execution and performance simulation
are all reachable separately for inspection (``build_problem``,
``plan``, ``simulate``).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.aggregation.output_grid import OutputGrid, PlacedGrids
from repro.dataset.chunk import Chunk
from repro.dataset.dataset import Dataset, DatasetCatalog
from repro.dataset.loader import LoadedDataset, load_dataset
from repro.decluster.base import Declusterer
from repro.decluster.hilbert import HilbertDeclusterer
from repro.frontend.query import RangeQuery
from repro.index.base import SpatialIndex
from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.costmodel import CostModel
from repro.planner.plan import QueryPlan
from repro.planner.problem import PlanningProblem, select_chunks
from repro.planner.select import StrategyChoice, choose_strategy, is_auto
from repro.planner.strategies import plan_query
from repro.planner.validate import validate_plan
from repro.runtime.engine import QueryResult, execute_plan
from repro.runtime.kernels import RoutingCache
from repro.sim.query_sim import SimResult, simulate_query
from repro.space.attribute_space import AttributeSpace, AttributeSpaceRegistry
from repro.store.cache import CachedChunkStore, ScanRecorder
from repro.store.chunk_store import ChunkStore, MemoryChunkStore
from repro.store.prefetch import PrefetchPolicy
from repro.store.retry import RetryPolicy, RetryingChunkStore
from repro.util.units import MB

__all__ = ["ADR"]

#: Compute costs assumed for planning when the application does not
#: provide calibrated ones (mild, VM-like processing).
DEFAULT_COSTS = ComputeCosts.from_ms(1, 5, 1, 1)


class ADR:
    """A complete (front end + back end) ADR instance."""

    def __init__(
        self,
        machine: MachineConfig,
        store: Optional[ChunkStore] = None,
        declusterer: Optional[Declusterer] = None,
        costs: ComputeCosts = DEFAULT_COSTS,
        cache_bytes: int = 64 * MB,
        retry: Optional[RetryPolicy] = None,
        prefetch: Union[bool, PrefetchPolicy, None] = None,
        cost_model=None,
    ) -> None:
        self.machine = machine
        #: instance-wide read-ahead default; a query's ``prefetch``
        #: field overrides it (see :mod:`repro.store.prefetch`)
        self.prefetch = PrefetchPolicy.coerce(prefetch)
        self.store = store if store is not None else MemoryChunkStore()
        # Retry sits *under* the cache: a retried read that eventually
        # succeeds is cached like any other, and cache hits never pay
        # backoff.
        if retry is not None and not isinstance(self.store, RetryingChunkStore):
            self.store = RetryingChunkStore(self.store, retry)
        #: the payload cache -- then ``store`` itself, the outermost
        #: stage -- or ``None`` when there is none
        self.cache: Optional[CachedChunkStore] = None
        # Payload LRU in front of the store: batched queries ordered
        # for shared scans actually reuse the shared chunks.  A cache
        # the caller built is adopted as is.
        if isinstance(self.store, CachedChunkStore):
            self.cache = self.store
        elif cache_bytes > 0:
            self.cache = self.store = CachedChunkStore(self.store, max_bytes=cache_bytes)
        # Per-dataset memo of chunk->cell routing, reused across
        # tiles and queries; dropped when the dataset is (re)loaded.
        # The creation lock makes first-use from concurrent service
        # workers race-free (the caches themselves are internally
        # locked).
        self._routing_caches: Dict[str, RoutingCache] = {}
        self._routing_lock = threading.Lock()
        self.declusterer = declusterer if declusterer is not None else HilbertDeclusterer()
        # Output grids are placed once per grid, not once per query.
        self._placed_grids = PlacedGrids(
            self.declusterer, machine.n_procs, machine.disks_per_node
        )
        self.costs = costs
        #: prices candidate plans behind ``strategy='auto'``; any object
        #: with ``estimate(plan) -> CostEstimate`` -- the closed-form
        #: default, or a measurement-fitted
        #: :class:`~repro.planner.calibrate.CalibratedCostModel`
        self.cost_model = (
            cost_model if cost_model is not None else CostModel(machine, costs)
        )
        self.spaces = AttributeSpaceRegistry()
        self.catalog = DatasetCatalog()
        self._indices: Dict[str, SpatialIndex] = {}
        # dataset name -> grid output chunk ids, for datasets
        # materialized by store_as (enables in-place update queries)
        self._materialized: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Registration and loading
    # ------------------------------------------------------------------

    def register_space(self, space: AttributeSpace) -> AttributeSpace:
        return self.spaces.register(space)

    def load(
        self,
        name: str,
        space: AttributeSpace,
        chunks: Sequence[Chunk],
        declusterer: Optional[Declusterer] = None,
    ) -> LoadedDataset:
        """Load a partitioned dataset (steps 2--4 of Section 2.2)."""
        self.register_space(space)
        loaded = load_dataset(
            self.store,
            name,
            space,
            chunks,
            n_nodes=self.machine.n_procs,
            disks_per_node=self.machine.disks_per_node,
            declusterer=declusterer if declusterer is not None else self.declusterer,
        )
        self.catalog.add(loaded.dataset, replace=True)
        self._indices[name] = loaded.index
        # Chunk ids restart at 0 for the reloaded dataset: stale
        # routing entries must not survive (payload cache entries were
        # already invalidated by the writes through the store).
        self._routing_caches.pop(name, None)
        return loaded

    def routing_cache(self, name: str) -> RoutingCache:
        """The per-dataset routing cache (created on first use)."""
        with self._routing_lock:
            if name not in self._routing_caches:
                self._routing_caches[name] = RoutingCache()
            return self._routing_caches[name]

    def dataset(self, name: str) -> Dataset:
        return self.catalog.get(name)

    def index(self, name: str) -> SpatialIndex:
        try:
            return self._indices[name]
        except KeyError:
            raise KeyError(f"dataset {name!r} has no index (not loaded?)") from None

    # ------------------------------------------------------------------
    # Query planning
    # ------------------------------------------------------------------

    def build_problem(self, query: RangeQuery) -> PlanningProblem:
        """Restrict the universe to the query: select intersecting
        input chunks through the index, drop chunks whose value
        synopsis rules out the ``where`` predicate, project the region
        onto the output grid, and derive the chunk graph geometrically
        (:func:`repro.planner.problem.select_chunks`)."""
        ds = self.dataset(query.dataset)
        return select_chunks(
            query, ds.space, self.index(query.dataset), ds.chunks,
            self._placed_grids, drop_pruned=True,
        ).problem(self.machine.n_procs, self.machine.memory_per_proc)

    def plan(self, query: RangeQuery) -> QueryPlan:
        """Plan the query; ``strategy="AUTO"`` lets the cost model pick."""
        return self.plan_with_choice(query)[0]

    def plan_with_choice(
        self, query: RangeQuery
    ) -> Tuple[QueryPlan, Optional[StrategyChoice]]:
        """Plan the query and, when ``strategy='auto'`` resolved it,
        also return the :class:`~repro.planner.select.StrategyChoice`
        (selected strategy + full cost ranking) so callers can audit
        and surface the decision.  ``None`` for explicit strategies."""
        return self._choose(self.build_problem(query), query.strategy)

    def _choose(
        self, problem: PlanningProblem, strategy: str
    ) -> Tuple[QueryPlan, Optional[StrategyChoice]]:
        if is_auto(strategy):
            choice = choose_strategy(problem, self.cost_model)
            validate_plan(choice.plan)
            return choice.plan, choice
        plan = plan_query(problem, strategy)
        validate_plan(plan)
        return plan, None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        query: RangeQuery,
        plan: Optional[Tuple[QueryPlan, Optional[StrategyChoice]]] = None,
        store_as: Optional[str] = None,
        backend: str = "sequential",
    ) -> QueryResult:
        """Plan (unless given) and functionally execute the query.

        *plan* is the ``(plan, choice)`` pair :meth:`plan_with_choice`
        returns, for a caller that planned ahead (the query service
        plans a batch before running it); the choice is what the result
        reports as its strategy-selection audit.

        With ``store_as``, the query output becomes a *new ADR dataset*
        under that name -- the paper's "if a new output dataset is
        created [...] the results can be written back to disks": output
        chunks are declustered, stored and indexed like any loaded
        dataset, so later queries can range over them.

        ``backend="parallel"`` runs the virtual processors as real OS
        processes (see :mod:`repro.runtime.parallel`).

        Read-ahead follows ``query.prefetch`` when set, else the
        instance-wide ``prefetch`` passed to :class:`ADR`; results are
        bit-for-bit identical with it on or off.

        Failure handling follows ``query.on_error``: ``"raise"``
        surfaces the first unreadable chunk's error, ``"degrade"``
        completes over the readable chunks and reports the rest in
        ``QueryResult.chunk_errors`` / ``completeness`` (see
        ``docs/robustness.md``).
        """
        plan, choice = plan if plan is not None else self.plan_with_choice(query)
        result = self._run(query, plan, choice, backend=backend)
        if store_as is not None:
            self._write_back(store_as, query, result)
        return result

    def _run(
        self,
        query: RangeQuery,
        plan: QueryPlan,
        choice: Optional[StrategyChoice],
        backend: str = "sequential",
        prior=None,
    ) -> QueryResult:
        """Execute *plan* and fold in what only this instance knows:
        the query's exact payload-cache tallies and the auto-selection
        audit trail (the one place a single-process result is stamped
        with *choice*)."""
        name = query.dataset
        region = self.dataset(name).space.validate_query(query.region)
        # Exact under concurrency, unlike a before/after delta of the
        # cache's global counters: the recorder is threaded through
        # every read this query issues, prefetch worker threads included.
        cache, store = self.cache, self.store
        recorder = ScanRecorder() if cache is not None else None

        def provider(chunk_id: int) -> Chunk:
            if cache is None:
                return store.read_chunk(name, chunk_id)
            return cache.read_chunk(name, chunk_id, recorder=recorder)

        result = execute_plan(
            plan, provider, query.mapping, query.grid, query.spec(),
            region=region, prior=prior, backend=backend,
            routing_cache=self.routing_cache(name),
            on_error=query.on_error,
            prefetch=self.prefetch if query.prefetch is None else query.prefetch,
            predicate=query.predicate(),
        )
        if recorder is not None:
            # ``cache_stats`` hit/miss counts and the documented
            # shared-read counters (``shared_reads`` / ``shared_bytes``)
            snap = recorder.snapshot()
            result.cache_stats["chunk_hits"] = snap["hits"]
            result.cache_stats["chunk_misses"] = snap["misses"]
            result.cache_stats["chunk_bytes"] = int(cache.nbytes)
            result.shared_reads = snap["hits"]
            result.shared_bytes = snap["hit_bytes"]
        if choice is not None:
            result.selected_strategy = choice.selected
            result.strategy_ranking = choice.ranking_dict()
        return result

    def _write_back(self, name: str, query: RangeQuery, result: QueryResult) -> None:
        """Materialize a query result as a dataset in the output space."""
        grid = query.grid
        space = grid.space
        chunks = []
        for new_id, (out_id, values) in enumerate(
            zip(result.output_ids, result.chunk_values)
        ):
            centers = _cell_centers(grid, int(out_id))
            chunks.append(Chunk.from_items(new_id, centers, values))
        if not chunks:
            raise ValueError("query produced no output chunks to store")
        self.load(name, space, chunks)
        self._materialized[name] = result.output_ids.copy()

    def update(self, query: RangeQuery, target: str) -> QueryResult:
        """Update a materialized output dataset in place.

        The paper's update path: accumulator chunks are initialized
        from the *existing* output dataset (phase 1 retrieves and
        forwards the output chunks), new input is aggregated on top,
        and "the updated output chunks are written back to their
        original locations on the disks".

        ``target`` must have been produced by ``execute(...,
        store_as=target)`` with the same grid, and the aggregation must
        support :meth:`~repro.aggregation.functions.AggregationSpec.initialize_from`.
        """
        if target not in self._materialized:
            raise KeyError(
                f"{target!r} was not materialized by store_as in this instance"
            )
        out_ids = self._materialized[target]
        pos_of = {int(g): i for i, g in enumerate(out_ids)}

        def prior(global_out: int):
            i = pos_of.get(int(global_out))
            if i is None:
                return None
            return self.store.read_chunk(target, i).values

        problem = self.build_problem(query)
        problem.init_from_output = True
        plan, choice = self._choose(problem, query.strategy)
        result = self._run(query, plan, choice, prior=prior)
        # write updated chunks back to their original locations
        missing = [int(o) for o in result.output_ids if int(o) not in pos_of]
        if missing:
            raise ValueError(
                f"update touches output chunks {missing} that {target!r} "
                "does not contain; materialize a wider dataset first"
            )
        for o, values in zip(result.output_ids, result.chunk_values):
            i = pos_of[int(o)]
            old = self.store.read_chunk(target, i)
            node, disk = self.store.placement(target, i)
            self.store.write_chunk(
                target, Chunk(old.meta, old.coords, values), node, disk
            )
        return result

    def simulate(
        self,
        query: RangeQuery,
        strategy: Optional[str] = None,
        costs: Optional[ComputeCosts] = None,
        seed: int = 0,
        overlap: bool = True,
    ) -> SimResult:
        """Performance-simulate the query on this instance's machine."""
        q = query if strategy is None else _with_strategy(query, strategy)
        plan = self.plan(q)
        return simulate_query(
            plan, self.machine, costs if costs is not None else self.costs, seed, overlap
        )


def _with_strategy(query: RangeQuery, strategy: str) -> RangeQuery:
    from dataclasses import replace

    return replace(query, strategy=strategy)


def _cell_centers(grid: OutputGrid, chunk_id: int) -> np.ndarray:
    """Attribute-space coordinates of an output chunk's cell centres,
    in the chunk's row-major local-cell order."""
    start, stop = grid.chunk_block(chunk_id)
    lo, hi = grid.space.bounds.as_arrays()
    span = np.where(np.asarray(grid.grid_shape) > 0, hi - lo, 1.0)
    cell = span / np.asarray(grid.grid_shape)
    axes = [np.arange(a, b) for a, b in zip(start, stop)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.ndim)
    return lo + (mesh + 0.5) * cell
