"""The per-tile phase pipeline: one executor, one schedule.

The functional engine and the discrete-event simulator execute the
same computation -- the paper's Initialization, Local Reduction,
Global Combine, Output Handling loop per tile.  This module is the
single home of that loop:

- :class:`PhaseSchedule` derives everything schedule-shaped from the
  plan once: the per-tile read/transfer/output orders and the
  per-(tile, processor) work tallies the simulator turns into events.
  ``plan.schedule()`` caches one.
- :class:`PhaseExecutor` walks the four phases, hosting every virtual
  processor in one address space with its own accumulator set, and
  checks every access against the plan's placement.  The engine is a
  thin driver around it; the executor is the only place phase
  sequencing lives (lint rule ADR501 keeps it that way).

**Counter contract** (one definition for every execution path; the
functional, service and shard corpora assert it):

- ``n_reads``: successfully retrieved scheduled chunk reads, summed
  over ranks.  A chunk read once per tile it straddles counts each
  time; a read absorbed by ``on_error='degrade'`` does not count (it
  lands in ``chunk_errors`` instead).
- ``bytes_read``: ``problem.inputs.nbytes`` summed over those counted
  reads.
- ``n_aggregations``: applied (input chunk, accumulator chunk)
  segment scatters, on whichever rank the plan assigned the edge --
  forwarded segments count where they are applied.
- ``n_combines``: ghost accumulator merges performed in global-combine
  phases, counted at the owning (receiving) rank.
- ``chunks_pruned`` / ``bytes_pruned``: input chunks the planner
  dropped by value-synopsis pruning and the bytes those reads would
  have cost.  Plan-level facts (``problem.n_pruned`` /
  ``problem.pruned_bytes``): every execution of the plan reports the
  same numbers, and pruned chunks never appear in ``n_reads`` /
  ``bytes_read`` because they were never scheduled.
- ``phase_times``: wall-clock seconds per phase with the keys of
  :data:`PHASES`.  Merged levels take the per-phase ``max`` (the
  critical path), so absolute values depend on where a query ran --
  only the key set is part of the contract.

The executor hands its counters out as one :class:`Tally`.  Partial
results merge the same way whichever level produced them -- shard
partials in the router -- by the one reduction :func:`merge_tallies`;
``repro.runtime.engine.assemble_result`` is the one place a
``QueryResult`` is built from tallies.

**Determinism.** The executor walks reads, transfers and outputs in
the plan's deterministic schedule order, and each accumulator receives
at most one segment per read (segments within a read target distinct
output chunks), so per-accumulator floating-point operation order is
fixed by the plan: two executions of one plan agree bit for bit,
counters included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.accumulator import AccumulatorSet
from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.planner.plan import QueryPlan
from repro.runtime.kernels import (
    RoutingCache,
    coerce_values,
    group_reads,
    route_batch,
    routing_tail,
)
from repro.space.mapping import GridMapping
from repro.store.chunk_store import RECOVERABLE_READ_ERRORS, ReadSlot

__all__ = [
    "PHASES",
    "PhaseExecutor",
    "PhaseSchedule",
    "Tally",
    "is_gauge",
    "merge_tallies",
]

#: Execution phases, in order; the keys of ``phase_times``.
PHASES = ("initialize", "reduce", "combine", "output")


@dataclass
class Tally:
    """The counters one level of execution reports (see the module's
    counter contract): an executor's hosted ranks, a worker host, a
    shard's partial, or a router's own combines."""

    n_reads: int = 0
    bytes_read: int = 0
    n_aggregations: int = 0
    n_combines: int = 0
    chunks_pruned: int = 0
    bytes_pruned: int = 0
    shared_reads: int = 0
    shared_bytes: int = 0
    phase_times: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )
    cache_stats: Dict[str, int] = field(default_factory=dict)
    chunk_errors: Dict[int, str] = field(default_factory=dict)

    @classmethod
    def of(cls, result) -> "Tally":
        """The tally a finished ``QueryResult`` reports."""
        return cls(**{f.name: getattr(result, f.name) for f in fields(cls)})


#: The :class:`Tally` counters :func:`merge_tallies` sums.
_SUMMED = tuple(f.name for f in fields(Tally) if f.type == "int")


def is_gauge(key: str) -> bool:
    """A ``cache_stats`` key ending in ``_bytes`` is a gauge -- bytes one
    cache holds -- and merges by ``max``; every other key counts events
    and merges by sum."""
    return key.endswith("_bytes")


def merge_tallies(tallies: Sequence[Tally]) -> Tally:
    """The contract's one reduction: counters are summed, ``phase_times``
    takes the per-phase max (the critical path), ``cache_stats`` merges
    per :func:`is_gauge`, and ``chunk_errors`` is the union (the first
    tally naming a chunk keeps its message).  No tallies merge to zero
    counters with every phase of :data:`PHASES` at 0.0."""
    out = Tally()
    for t in tallies:
        for name in _SUMMED:
            setattr(out, name, getattr(out, name) + int(getattr(t, name)))
        for k, v in t.phase_times.items():
            out.phase_times[k] = max(out.phase_times.get(k, 0.0), float(v))
        for k, v in t.cache_stats.items():
            had = out.cache_stats.get(k, 0)
            out.cache_stats[k] = max(had, int(v)) if is_gauge(k) else had + int(v)
        for gid, err in t.chunk_errors.items():
            out.chunk_errors.setdefault(int(gid), err)
    return out


#: Input-chunk payload bytes one Local Reduction batch may hold.  The
#: paper streams input chunks and budgets memory for the accumulator
#: only, so a tile's reads are fetched and grouped in bounded runs of
#: consecutive reads -- never the whole tile at once, whatever its size.
_BATCH_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# Plan-derived schedule (shared by the executor and the simulator)
# ---------------------------------------------------------------------------


class PhaseSchedule:
    """Everything schedule-shaped the phase loop needs, derived from
    the plan once and shared by every consumer.

    ``plan.schedule()`` caches one per plan, so the executor and the
    simulator walk literally the same arrays.

    Attributes
    ----------
    read_order, read_bounds, gt_order, gt_bounds, out_order, out_bounds:
        The per-tile grouping of the plan's reads / ghost transfers /
        outputs: ``x_order[x_bounds[t]:x_bounds[t+1]]`` are tile *t*'s
        entries in deterministic (tile, original index) order -- the
        order the executor walks, which is what makes two executions
        comparable bit for bit.  :meth:`reads_of` /
        :meth:`transfers_of` / :meth:`outputs_of` slice them.
    cu_tile, cu_in, cu_proc, cu_pairs, cu_bounds:
        The *compute units*: unique (tile, input chunk, processor)
        triples with the number of (input, accumulator) pairs each
        represents, tile-sliced by ``cu_bounds`` -- the quantities the
        discrete-event simulator prices.
    init_counts:
        ``(max(n_tiles, 1), n_procs)`` accumulator allocations per
        (tile, processor) -- phase 1's work tally.

    The compute units and ``init_counts`` are read by the simulator
    only, so they are built on first access: a real execution never
    pays for them.
    """

    def __init__(self, plan: QueryPlan) -> None:
        problem = plan.problem
        self.n_tiles = plan.n_tiles
        self.n_procs = int(problem.n_procs)
        ticks = np.arange(plan.n_tiles + 1)
        reads = plan.reads
        gt = plan.ghost_transfers
        self.read_order = np.argsort(reads.tile, kind="stable")
        self.read_bounds = np.searchsorted(reads.tile[self.read_order], ticks)
        self.gt_order = np.argsort(gt.tile, kind="stable")
        self.gt_bounds = np.searchsorted(gt.tile[self.gt_order], ticks)
        self.out_order = np.argsort(plan.tile_of_output, kind="stable")
        self.out_bounds = np.searchsorted(plan.tile_of_output[self.out_order], ticks)

        # What the simulator-only tables below are derived from, on
        # first use (no reference to the plan: it owns this object).
        edge_in, _ = plan.edge_arrays
        self._edges = (plan.edge_tile, edge_in, plan.edge_proc, problem.n_in)
        self._holders = (plan.holders_indptr, plan.holders_ids, plan.tile_of_output)

    @cached_property
    def _compute_units(self) -> Tuple[np.ndarray, ...]:
        edge_tile, edge_in, edge_proc, n_in = self._edges
        P = self.n_procs
        key = (edge_tile.astype(np.int64) * n_in + edge_in) * P + edge_proc
        uniq, counts = np.unique(key, return_counts=True)
        cu_tile, rem = np.divmod(uniq, n_in * P)
        bounds = np.searchsorted(cu_tile, np.arange(self.n_tiles + 1))
        return cu_tile, rem // P, rem % P, counts.astype(np.int64), bounds

    cu_tile = property(lambda self: self._compute_units[0])
    cu_in = property(lambda self: self._compute_units[1])
    cu_proc = property(lambda self: self._compute_units[2])
    cu_pairs = property(lambda self: self._compute_units[3])
    cu_bounds = property(lambda self: self._compute_units[4])

    @cached_property
    def init_counts(self) -> np.ndarray:
        indptr, holders, tile_of_output = self._holders
        flat_tile = np.repeat(tile_of_output, np.diff(indptr))
        n_rows = max(self.n_tiles, 1)
        return np.bincount(
            flat_tile * self.n_procs + holders, minlength=n_rows * self.n_procs
        ).reshape(n_rows, self.n_procs)

    def reads_of(self, tile: int) -> np.ndarray:
        return self.read_order[self.read_bounds[tile] : self.read_bounds[tile + 1]]

    def transfers_of(self, tile: int) -> np.ndarray:
        return self.gt_order[self.gt_bounds[tile] : self.gt_bounds[tile + 1]]

    def outputs_of(self, tile: int) -> np.ndarray:
        return self.out_order[self.out_bounds[tile] : self.out_bounds[tile + 1]]


# ---------------------------------------------------------------------------
# The phase executor
# ---------------------------------------------------------------------------


class PhaseExecutor:
    """Walk the plan's tiles through the four phases, hosting every
    virtual processor.

    This is the one implementation of phase sequencing (ADR501).  Each
    processor owns one :class:`~repro.aggregation.accumulator.
    AccumulatorSet` (``accs[p]``); *provider* maps a batch of
    dataset-level input chunk ids to one slot each -- the payload, or
    the recoverable error reading it raised
    (:func:`repro.runtime.engine._provider` adapts every chunk source
    to this form).  The executor calls it once per batch of a tile's
    reads, on the calling thread; a slot's error surfaces unchanged,
    the first in schedule order (``on_error='degrade'`` absorbs them).

    Placement is checked, not assumed: every segment is applied on the
    processor the plan assigned its edge to, into an accumulator that
    processor holds, and forwarded only to a recipient the schedule
    names; a ghost is shipped only by a holder and only to the output
    chunk's owner, and only owners emit.  A violation is an
    ``AssertionError``.

    After :meth:`run`, :attr:`tally` holds the counters (per the
    module-level counter contract) and :attr:`results` maps each local
    output chunk id to its final values.
    """

    def __init__(
        self,
        plan: QueryPlan,
        grid: OutputGrid,
        spec: AggregationSpec,
        mapping: GridMapping,
        provider: Callable[[Sequence[int]], List[ReadSlot]],
        *,
        enforce_memory: bool = False,
        region=None,
        prior: Optional[Callable[[int], np.ndarray]] = None,
        routing_cache: Optional[RoutingCache] = None,
        on_error: str = "raise",
        predicate=None,
    ) -> None:
        self.plan = plan
        self.problem = problem = plan.problem
        self.grid = grid
        self.spec = spec
        self.mapping = mapping
        self.provider = provider
        self.schedule = plan.schedule()
        self.region = region
        self.prior = prior
        self.routing_cache = routing_cache
        self.on_error = on_error
        self.predicate = predicate
        self.accs = [
            AccumulatorSet(
                spec,
                memory_limit=int(problem.memory_per_proc[p]) if enforce_memory else None,
            )
            for p in range(problem.n_procs)
        ]

        # Only the chunk ids of a routing key vary from batch to batch.
        self._routing_tail = (
            None if routing_cache is None else routing_tail(mapping, grid, region)
        )
        # (input, output) of every graph edge as one ascending key, in
        # forward-CSR order (aligned with ``plan.edge_proc``).
        edge_in, edge_out = plan.edge_arrays
        self._edge_key = edge_in * problem.n_out + edge_out
        self._edge_proc = plan.edge_proc.tolist()
        # Dataset-level output chunk id -> dense local id (or -1).
        self._sel_map = np.full(grid.n_chunks, -1, dtype=np.int64)
        self._sel_map[problem.output_global_ids] = np.arange(problem.n_out)

        self.tally = Tally()
        #: local output chunk id -> finalized values (phase 4)
        self.results: Dict[int, np.ndarray] = {}

    # -- phase 1: initialization ---------------------------------------

    def _initialize(self, t: int) -> None:
        problem, spec = self.problem, self.spec
        out_global = problem.output_global_ids
        seeded = problem.init_from_output and self.prior is not None
        for o in self.schedule.outputs_of(t).tolist():
            n_cells = self.grid.cells_in_chunk(int(out_global[o]))
            owner = int(problem.output_owner[o])
            seed = None
            if seeded:
                prior_vals = self.prior(int(out_global[o]))
                if prior_vals is not None:
                    seed = spec.initialize_from(prior_vals)
            for p in self.plan.holders_of(o).tolist():
                acc = self.accs[p].allocate(o, n_cells, ghost=p != owner)
                # Replicated (ghost) holders are seeded only for
                # idempotent aggregations -- otherwise the global
                # combine would double-count the prior.
                if seed is not None and (p == owner or spec.idempotent):
                    acc.data[:] = seed

    # -- phase 2: local reduction --------------------------------------

    def _edge_positions(self, in_ids: np.ndarray, out_ids: np.ndarray) -> np.ndarray:
        """Forward-CSR positions of the ``(input, output)`` edges (so
        ``plan.edge_proc[pos]`` is who the plan assigned each to)."""
        key = in_ids * self.problem.n_out + out_ids
        pos = np.searchsorted(self._edge_key, key).clip(max=len(self._edge_key) - 1)
        missing = np.flatnonzero(self._edge_key[pos] != key)
        if len(missing):
            i, o = int(in_ids[missing[0]]), int(out_ids[missing[0]])
            raise AssertionError(
                f"items of input chunk {i} land in output chunk {o} "
                "but the chunk graph has no such edge -- the graph "
                "must be a superset of the item-level mapping"
            )
        return pos

    def _fetch(self, batch: List[int]) -> Optional[Tuple[np.ndarray, ...]]:
        """The reads of *batch*, read with one provider call and routed
        with one :func:`route_batch` pass (one memo entry per batch):
        the flat ``(read, item, cells, values)`` arrays
        :func:`group_reads` takes, or None when no read survived."""
        problem = self.problem
        inputs = self.plan.reads.chunk[batch]
        gids = problem.input_global_ids[inputs].tolist()
        nbytes = problem.inputs.nbytes[inputs].tolist()
        slots = self.provider(gids)
        alive: List[int] = []
        chunks = []
        for k, (gid, chunk) in enumerate(zip(gids, slots)):
            if isinstance(chunk, Exception):
                if self.on_error != "degrade" or not isinstance(chunk, RECOVERABLE_READ_ERRORS):
                    raise chunk
                self.tally.chunk_errors.setdefault(gid, f"{type(chunk).__name__}: {chunk}")
                continue
            self.tally.n_reads += 1
            self.tally.bytes_read += nbytes[k]
            alive.append(k)
            chunks.append(chunk)
        if not chunks:
            return None
        cache, tail = self.routing_cache, self._routing_tail
        key = None if tail is None else (tuple(gids[k] for k in alive), *tail)
        routed = None if key is None else cache.get(key)
        if routed is None:
            routed = route_batch(chunks, self.mapping, self.grid, self.region)
            if key is not None:
                cache.put(key, *routed)
        item, cells = routed
        values = np.concatenate(
            [coerce_values(c.values, self.spec.value_components) for c in chunks]
        )
        # Residual value filter *after* routing, so the routing cache
        # stays predicate-independent.  Synopsis pruning skips only the
        # chunks this filter would empty, so pruned and unpruned runs
        # stay bit-identical.
        if self.predicate is not None:
            keep = self.predicate.mask(values)[item]
            item, cells = item[keep], cells[keep]
        ends = np.cumsum([c.n_items for c in chunks])
        read = np.asarray(alive)[np.searchsorted(ends, item, side="right")]
        return read, item, cells, values

    def _apply(self, rank: int, edge: int, kind: str, o: int, cell_idx, payload) -> None:
        """Aggregate one segment -- the items of graph edge *edge* (a
        forward-CSR position) into output chunk *o* -- on processor
        *rank*, which must be the one the plan assigned the edge to."""
        assert self._edge_proc[edge] == rank, (
            f"edge {edge} applied on processor {rank}, but the plan "
            f"assigned it to processor {self._edge_proc[edge]}"
        )
        accs = self.accs[rank]
        assert o in accs, (
            f"processor {rank} aggregates into output chunk {o}, "
            "which it does not hold"
        )
        if kind == "red":
            accs.scatter_groups(o, cell_idx, payload)
        else:
            accs.aggregate(o, cell_idx, payload)
        self.tally.n_aggregations += 1

    def _reduce(self, t: int) -> None:
        """Tile *t*'s reads in schedule order, in batches of consecutive
        reads whose payload bytes stay under :data:`_BATCH_BYTES`."""
        reads = self.schedule.reads_of(t)
        sizes = self.problem.inputs.nbytes[self.plan.reads.chunk[reads]]
        batch: List[int] = []
        held = 0
        for r, size in zip(reads.tolist(), sizes.tolist()):
            if batch and held + size > _BATCH_BYTES:
                self._reduce_batch(t, batch)
                batch, held = [], 0
            batch.append(r)
            held += size
        if batch:
            self._reduce_batch(t, batch)

    def _reduce_batch(self, t: int, batch: List[int]) -> None:
        plan, spec = self.plan, self.spec
        # Fetch every read of the batch, then group them all with one
        # sort and pre-reduce duplicate cells batch-wide (when the
        # aggregation supports it): each segment is then one
        # fancy-indexed scatter -- the same arithmetic, in the same
        # order, for every batch bound.
        fetched = self._fetch(batch)
        if fetched is None:
            return
        segs = group_reads(*fetched, self.grid, self._sel_map, plan.tile_of_output, t)
        if segs is None:
            return
        seg_in = plan.reads.chunk[batch][segs.seg_read]
        seg_edges = self._edge_positions(seg_in, segs.seg_out).tolist()
        seg_out = segs.seg_out.tolist()
        rows = spec.prereduce_groups(segs.values, segs.group_starts)
        if rows is None:
            kind, idx, rows = "raw", segs.flat, segs.values
            lo, hi = segs.starts.tolist(), segs.ends.tolist()
        else:
            kind, idx = "red", segs.flat[segs.group_starts]
            lo = segs.group_bounds.tolist()
            hi = lo[1:]
        # The segments come in schedule order: by read, each read's in
        # output-chunk order.  A segment whose edge the plan assigned to
        # another processor than the reader is forwarded (the DA
        # communication) and applied on that processor.  Each
        # accumulator receives at most one segment per read, so its
        # operation order is the schedule's.
        for j, (edge, o) in enumerate(zip(seg_edges, seg_out)):
            rank = self._edge_proc[edge]
            self._apply(rank, edge, kind, o, idx[lo[j] : hi[j]], rows[lo[j] : hi[j]])

    # -- phase 3: global combine ---------------------------------------

    def _combine(self, t: int) -> None:
        owner = self.problem.output_owner
        gt = self.plan.ghost_transfers
        g = self.schedule.transfers_of(t)
        for o, src, dst in zip(gt.chunk[g].tolist(), gt.src[g].tolist(), gt.dst[g].tolist()):
            assert o in self.accs[src], "shipping a ghost this rank does not hold"
            assert int(owner[o]) == dst, "ghost shipped to a non-owner"
            self.accs[dst].combine_from(o, self.accs[src].get(o).data)
            self.tally.n_combines += 1

    # -- phase 4: output handling --------------------------------------

    def _output(self, t: int) -> None:
        owner = self.problem.output_owner
        for o in self.schedule.outputs_of(t).tolist():
            acc = self.accs[int(owner[o])].get(o)
            if acc.ghost:
                raise AssertionError("owner holds a ghost for its own chunk")
            self.results[o] = self.spec.output(acc.data)
        for accs in self.accs:
            accs.clear()

    # -- driver ---------------------------------------------------------

    def run(self) -> None:
        """Execute every tile; counters accumulate on ``self.tally``."""
        times = self.tally.phase_times
        for t in range(self.plan.n_tiles):
            t0 = time.perf_counter()
            self._initialize(t)
            times["initialize"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            self._reduce(t)
            times["reduce"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            self._combine(t)
            times["combine"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            self._output(t)
            times["output"] += time.perf_counter() - t0
