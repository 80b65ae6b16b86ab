"""Sequential functional execution of a query plan.

Executes the four phases per tile over *virtual processors*, each with
its own :class:`~repro.aggregation.accumulator.AccumulatorSet`:

1. **Initialization** -- every holder listed by the plan allocates and
   initializes accumulator chunks for the tile's output chunks
   (ghosts where it is not the owner).
2. **Local reduction** -- each distinct read retrieves the input chunk
   payload; items are mapped through the user ``Map`` into output grid
   cells, and each (input chunk, output chunk) edge is aggregated on
   the processor the plan assigned it to (the input owner under
   FRA/SRA; the output owner under DA -- which is where forwarding the
   chunk is implied).
3. **Global combine** -- ghost accumulators are merged into the
   owner's accumulator, following the plan's ghost-transfer list.
4. **Output handling** -- owners post-process accumulators into final
   output values.

The phase loop itself lives in :class:`repro.runtime.phases.
PhaseExecutor` -- this module is a thin driver that hosts *every*
virtual processor in one address space over an
:class:`~repro.runtime.transport.InprocTransport` (the multiprocess
backend drives the same executor per worker host over a
:class:`~repro.runtime.transport.QueueTransport`).  Because the
virtual processors run in one address space the engine is sequential,
but it honors the plan's *data placement* exactly: an aggregation only
ever touches the accumulator set of its assigned processor, and a
combine only merges data the plan actually ships.  That is what makes
"FRA == SRA == DA == serial" a meaningful test of the planner rather
than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.aggregation.accumulator import BufferPool
from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.dataset.dataset import Dataset
from repro.planner.plan import QueryPlan
from repro.runtime.kernels import RoutingCache
from repro.runtime.phases import (
    AccumulatorHost,
    ChunkSource,
    PhaseExecutor,
    ProviderChunkSource,
    Tally,
    merge_tallies,
)
from repro.runtime.transport import InprocTransport
from repro.space.mapping import GridMapping
from repro.store.prefetch import PrefetchPolicy

__all__ = ["QueryResult", "assemble_result", "execute_plan"]

ChunkProvider = Callable[[int], Chunk]


@dataclass
class QueryResult:
    """Final values per output chunk, plus execution counters.

    The counters follow one backend-independent contract, stated in
    :mod:`repro.runtime.phases` together with the one rule that merges
    them across ranks, worker hosts and shards; the functional corpus
    asserts it across backends.  Results are built only by
    :func:`assemble_result` (and decoded by the wire protocol).
    """

    strategy: str
    #: dataset-level output chunk ids, parallel to ``chunk_values``
    output_ids: np.ndarray
    chunk_values: List[np.ndarray]
    n_tiles: int
    #: distinct chunk retrievals performed (reads x tiles multiplicity)
    n_reads: int
    bytes_read: int
    #: ghost accumulator merges performed in global-combine phases
    n_combines: int
    #: aggregate() calls, i.e. executed (input, accumulator) edges
    n_aggregations: int
    #: simulated-race findings (empty unless executed with the
    #: ``detect_races`` opt-in; see :mod:`repro.analysis.races`)
    race_diagnostics: List = field(default_factory=list)
    #: wall-clock seconds per execution phase (initialize / reduce /
    #: combine / output), as measured by the executing backend
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: cache and pool counters (routing-cache hits/misses, chunk
    #: payload cache hits/misses, accumulator buffer-pool reuses)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: degraded execution only: dataset-level *input* chunk ids that
    #: could not be read, mapped to a short error description
    chunk_errors: Dict[int, str] = field(default_factory=dict)
    #: fraction of the plan's input chunks successfully incorporated
    #: (1.0 for a clean run; ``1 - len(chunk_errors)/n_inputs`` when
    #: degraded)
    completeness: float = 1.0
    #: input chunks dropped before planning by value-synopsis pruning
    #: (they spatially intersect the query but provably contain no item
    #: satisfying its ``where`` predicate) and the input bytes those
    #: reads would have cost; 0 without a predicate or synopsis
    chunks_pruned: int = 0
    bytes_pruned: int = 0
    #: scheduled chunk retrievals served from the shared payload cache
    #: during this query (and their decoded bytes) -- some earlier
    #: query paid the disk read.  Filled by the ADR facade from its
    #: per-query :class:`~repro.store.cache.ScanRecorder`.  These are
    #: the *only* counters allowed to differ between a query executed
    #: inside a shared-scan batch and the same query run alone: shared
    #: execution changes where bytes come from, never what is computed.
    shared_reads: int = 0
    shared_bytes: int = 0
    #: sharded deployments only: shard id -> error description for every
    #: shard whose sub-plan could not be fetched (dead, timed out, torn
    #: connection).  Filled by :class:`repro.shard.router.ShardRouter`
    #: under ``on_error='degrade'``; the failed shard's planned input
    #: chunks additionally appear in ``chunk_errors`` (dataset-global
    #: ids) and ``completeness`` accounts for them.  Always empty on
    #: single-process results.
    shard_errors: Dict[int, str] = field(default_factory=dict)
    #: automatic strategy selection only: the concrete strategy
    #: ``strategy='auto'`` resolved to, and the full cost-model ranking
    #: (strategy -> estimated seconds, cheapest first) behind that
    #: decision.  Empty when the caller fixed the strategy explicitly.
    selected_strategy: str = ""
    strategy_ranking: Dict[str, float] = field(default_factory=dict)

    def value_of(self, output_id: int) -> np.ndarray:
        pos = np.flatnonzero(self.output_ids == output_id)
        if not len(pos):
            raise KeyError(f"output chunk {output_id} was not computed")
        return self.chunk_values[int(pos[0])]

    def as_dict(self) -> Dict[int, np.ndarray]:
        return {int(o): v for o, v in zip(self.output_ids, self.chunk_values)}

    def assemble(self, grid: OutputGrid) -> np.ndarray:
        """Dense output array; chunks outside the query are NaN.

        An empty result (a query selecting nothing, or a plan with
        zero tiles) assembles to an all-NaN single-component grid
        rather than failing on ``chunk_values[0]``.
        """
        k = self.chunk_values[0].shape[1] if len(self.chunk_values) else 1
        parts = []
        computed = self.as_dict()
        for cid in range(grid.n_chunks):
            if cid in computed:
                parts.append(computed[cid])
            else:
                parts.append(np.full((grid.cells_in_chunk(cid), k), np.nan))
        return grid.assemble(parts)


def assemble_result(
    plan: Optional[QueryPlan],
    emitted: Dict[int, np.ndarray],
    tallies: Sequence[Tally] = (),
    **stated,
) -> QueryResult:
    """The one place a :class:`QueryResult` is built (lint ADR501).

    *emitted* maps output chunk ids to their final values: the plan's
    local ids under a *plan*, listed in the plan's output order; without
    one (a router's merge of shard partials, an empty partial, the
    serial oracle), dataset-level ids in the given order.  *tallies* --
    one per executor, worker host or shard, none when nothing ran --
    merge by :func:`~repro.runtime.phases.merge_tallies`.  The plan
    states the strategy, ``n_tiles``, the pruning counters and the
    completeness denominator; *stated* sets what neither knows (and,
    without a plan, the strategy and ``n_tiles``).
    """
    tally = merge_tallies(tallies)
    keys = sorted(emitted) if plan is not None else list(emitted)
    ids = np.asarray(keys, dtype=np.int64)
    record = dict(vars(tally), chunk_errors=dict(sorted(tally.chunk_errors.items())))
    if plan is not None:
        problem = plan.problem
        ids = problem.output_global_ids[ids]
        record.update(
            strategy=plan.strategy,
            n_tiles=plan.n_tiles,
            completeness=1.0 - len(tally.chunk_errors) / max(problem.n_in, 1),
            chunks_pruned=problem.n_pruned,
            bytes_pruned=problem.pruned_bytes,
        )
    record.update(stated)
    return QueryResult(
        output_ids=ids, chunk_values=[emitted[k] for k in keys], **record
    )


def _provider(source: Union[Dataset, ChunkProvider]) -> ChunkProvider:
    if isinstance(source, Dataset):
        return source.payload
    if callable(source):
        return source
    raise TypeError("chunk source must be a Dataset with payloads or a callable")


def _chunk_source(
    provider: ChunkProvider, plan: QueryPlan, prefetch, ranks=None
) -> ChunkSource:
    """The reduce phase's payload source: synchronous provider calls,
    or a :class:`~repro.store.prefetch.TilePrefetcher` issuing them
    ahead of consumption in placement order.  *ranks* restricts the
    prefetched reads to the hosted processors (worker hosts)."""
    policy = PrefetchPolicy.coerce(prefetch)
    if policy is None:
        return ProviderChunkSource(provider)
    from repro.store.prefetch import TilePrefetcher, read_batches

    return TilePrefetcher(provider, read_batches(plan, ranks=ranks), policy)


def execute_plan(
    plan: QueryPlan,
    chunks: Union[Dataset, ChunkProvider],
    mapping: GridMapping,
    grid: OutputGrid,
    spec: AggregationSpec,
    enforce_memory: bool = False,
    region=None,
    prior: Optional[Callable[[int], np.ndarray]] = None,
    detect_races: Optional[bool] = None,
    race_detector=None,
    backend: str = "sequential",
    routing_cache: Optional[RoutingCache] = None,
    on_error: str = "raise",
    fault_injector=None,
    recovery=None,
    prefetch: Union[bool, PrefetchPolicy, None] = None,
    predicate=None,
) -> QueryResult:
    """Execute *plan* over real chunk payloads.

    Parameters
    ----------
    plan:
        Any validated plan (FRA/SRA/DA/hybrid) over a geometry-derived
        problem.
    chunks:
        A payload-carrying :class:`Dataset` or a callable mapping
        *dataset-level* input chunk ids to :class:`Chunk`.
    mapping, grid, spec:
        The user customization: ``Map``, the output dataset layout,
        and the aggregation functions.
    enforce_memory:
        When True, virtual processors enforce the plan's accumulator
        budget at allocation time (useful in tests; requires the
        problem's ``acc_nbytes`` to match ``spec.acc_bytes``).
    region:
        Optional range-query box in the input attribute space; items
        of retrieved chunks outside it are skipped (the paper's
        item-level retrieval semantics).
    prior:
        For update queries (``problem.init_from_output``): maps a
        dataset-level output chunk id to its *existing* output values;
        owners seed their accumulators from it via
        ``spec.initialize_from`` ("an output chunk is retrieved by the
        processor that has the chunk on its local disk").  Replicated
        (ghost) holders are seeded too only for idempotent
        aggregations -- otherwise the global combine would double-count
        the prior.
    detect_races:
        Opt-in simulated-race detection: every accumulator access is
        checked against the plan's ownership tables by a
        :class:`repro.analysis.races.RaceDetector`, and findings land
        in ``QueryResult.race_diagnostics``.  ``None`` (the default)
        defers to the ``REPRO_DETECT_RACES`` environment variable.
    race_detector:
        A pre-built detector to report to (overrides *detect_races*);
        tests pass a detector built from a *reference* plan to catch
        an engine/plan drifting apart.
    backend:
        ``"sequential"`` (default) executes the virtual processors in
        one address space; ``"parallel"`` runs each virtual processor
        as a real OS process (:mod:`repro.runtime.parallel`) with
        shared-memory accumulators and ghost transfers as real IPC.
        Both backends drive the same
        :class:`~repro.runtime.phases.PhaseExecutor` over the same
        fused kernels and per-accumulator operation order, so their
        results agree bit-for-bit.  Race detection is a
        sequential-backend feature: requesting it explicitly together
        with ``backend="parallel"`` raises (the parallel backend
        instead asserts plan-authorized access inside each worker);
        the ``REPRO_DETECT_RACES`` environment default is silently
        ignored by the parallel backend.
    routing_cache:
        Optional :class:`repro.runtime.kernels.RoutingCache` memoizing
        ``map_chunk_to_cells`` per (chunk, region) across tiles and
        queries; hit counters land in ``QueryResult.cache_stats``.
    on_error:
        ``"raise"`` (default): the first unreadable input chunk aborts
        the query with its error (``CorruptChunkError`` for damage,
        ``KeyError`` for absence, ``OSError`` for I/O failure).
        ``"degrade"``: unreadable chunks are skipped, their ids and
        errors land in ``QueryResult.chunk_errors``, and
        ``QueryResult.completeness`` reports the fraction of input
        chunks incorporated; only
        :data:`~repro.store.chunk_store.RECOVERABLE_READ_ERRORS` are
        absorbed.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` arming
        deterministic fault injection on the read path (both backends)
        and on worker crashes / message drops (parallel backend).
    recovery:
        Optional :class:`repro.runtime.parallel.RecoveryPolicy` tuning
        worker-crash detection and the restart budget (parallel
        backend only).
    prefetch:
        I/O read-ahead: ``True`` (or a
        :class:`~repro.store.prefetch.PrefetchPolicy`) overlaps chunk
        retrieval with reduction by issuing the current tile's and the
        next tile's reads from background threads in placement order
        (see :mod:`repro.store.prefetch`).  ``None``/``False`` (the
        default) reads synchronously.  Results are bit-for-bit
        identical either way, counters included.
    predicate:
        Optional :class:`~repro.dataset.predicate.ValuePredicate`
        residual filter: items of retrieved chunks whose values fail
        it are skipped after routing, on every backend.  This is the
        exact counterpart of the planner's value-synopsis pruning
        (reported in ``QueryResult.chunks_pruned`` / ``bytes_pruned``
        from the plan), and what makes pruned plans bit-identical to
        unpruned ones.
    """
    if backend not in ("sequential", "parallel"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'sequential' or 'parallel'"
        )
    if on_error not in ("raise", "degrade"):
        raise ValueError(
            f"unknown on_error {on_error!r}; expected 'raise' or 'degrade'"
        )
    PrefetchPolicy.coerce(prefetch)  # validate early, on any backend
    if backend == "parallel":
        if race_detector is not None or detect_races:
            raise ValueError(
                "race detection runs on the sequential backend; the parallel "
                "backend asserts plan-authorized access inside each worker "
                "instead -- drop detect_races/race_detector or use "
                "backend='sequential'"
            )
        from repro.runtime.parallel import execute_parallel

        kwargs = {} if recovery is None else {"recovery": recovery}
        return execute_parallel(
            plan,
            chunks,
            mapping,
            grid,
            spec,
            enforce_memory=enforce_memory,
            region=region,
            prior=prior,
            routing_cache=routing_cache,
            on_error=on_error,
            fault_injector=fault_injector,
            prefetch=prefetch,
            predicate=predicate,
            **kwargs,
        )
    problem = plan.problem
    detector = race_detector
    if detector is None:
        if detect_races is None:
            from repro.analysis.races import races_enabled_by_env

            detect_races = races_enabled_by_env()
        if detect_races:
            from repro.analysis.races import RaceDetector

            detector = RaceDetector(plan)
    provider = _provider(chunks)
    if fault_injector is not None:
        provider = fault_injector.wrap_provider(provider)

    pool = BufferPool()
    accs = AccumulatorHost(
        spec,
        range(problem.n_procs),
        memory_limit=(
            (lambda p: int(problem.memory_per_proc[p])) if enforce_memory else None
        ),
        pool=pool,
    )
    transport = InprocTransport()
    source = _chunk_source(provider, plan, prefetch)
    executor = PhaseExecutor(
        plan,
        grid,
        spec,
        mapping,
        source,
        accs,
        transport,
        region=region,
        prior=prior,
        routing_cache=routing_cache,
        on_error=on_error,
        observer=detector,
        predicate=predicate,
    )
    try:
        executor.run()
    finally:
        source.close()

    tally = executor.tally
    tally.cache_stats = dict(pool.stats())
    if routing_cache is not None:
        tally.cache_stats.update(routing_cache.stats())
    return assemble_result(
        plan, transport.results, [tally],
        race_diagnostics=detector.report() if detector is not None else [],
    )
