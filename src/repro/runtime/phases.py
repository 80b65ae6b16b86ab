"""The unified per-tile phase pipeline: one executor for every backend.

Both functional backends and the discrete-event simulator execute the
same computation -- the paper's Initialization, Local Reduction,
Global Combine, Output Handling loop per tile -- but historically each
transcribed it independently.  This module is the single home of that
loop:

- :class:`PhaseSchedule` derives everything schedule-shaped from the
  plan once: the per-tile read/transfer/output orders (via
  :func:`~repro.runtime.kernels.tile_schedule`), the per-read
  forwarding recipients, and the per-(tile, processor) work tallies
  the simulator turns into events.  ``plan.schedule()`` caches one.
- :class:`AccumulatorHost` is the accumulator state for the ranks one
  executor hosts -- the sequential engine hosts every rank, a
  multiprocess worker hosts its group -- backed either by private
  buffers or by externally provided shared-memory arena views.
- :class:`PhaseExecutor` walks the four phases over a
  :class:`~repro.runtime.transport.Transport`.  The sequential engine
  and the multiprocess workers are now thin drivers around it; the
  executor is the only place phase sequencing lives (lint rule ADR501
  keeps it that way).

**Counter contract** (one definition for every backend; the
functional corpus asserts cross-backend equality):

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
  ``problem.pruned_bytes``): every backend executing the plan reports
  the same numbers, and pruned chunks never appear in ``n_reads`` /
  ``bytes_read`` because they were never scheduled.
- ``phase_times``: wall-clock seconds per phase with the keys of
  :data:`PHASES`.  Each executor reports its own wall-clock; merged
  levels take the per-phase ``max`` (the critical path), so absolute
  values are backend-dependent -- only the key set is part of the
  cross-backend contract.

Each executor hands its counters out as one :class:`Tally`.  Partial
results merge the same way whichever level produced them -- worker
hosts in the parallel parent, shard partials in the router -- by the
one reduction :func:`merge_tallies`; ``repro.runtime.engine.
assemble_result`` is the one place a ``QueryResult`` is built from
tallies.

**Determinism.** The executor walks reads, transfers and outputs in
the plan's deterministic schedule order, and each accumulator receives
at most one segment per read (segments within a read target distinct
output chunks), so per-accumulator floating-point operation order is
identical no matter how ranks are hosted -- the backends agree bit for
bit, counters included.
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
    TileSchedule,
    coerce_values,
    filter_predicate,
    group_reads,
    route_chunk,
    routing_tail,
    tile_schedule,
)
from repro.runtime.transport import Transport
from repro.space.mapping import GridMapping
from repro.store.chunk_store import RECOVERABLE_READ_ERRORS, ReadSlot
from repro.util.arrays import unique_rows

__all__ = [
    "MESSAGE_OPS",
    "MessageFlow",
    "PHASES",
    "AccumulatorHost",
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

#: Transport-visible operations a rank performs, in the vocabulary of
#: :class:`MessageFlow` events.  ``send_seg``/``recv_seg`` forward
#: reduction segments (keyed by read index), ``send_ghost``/
#: ``recv_ghost`` ship ghost accumulators (keyed by transfer index),
#: ``emit`` posts a finished output chunk (keyed by local output id).
MESSAGE_OPS = ("send_seg", "recv_seg", "send_ghost", "recv_ghost", "emit")


@dataclass(frozen=True)
class MessageFlow:
    """The per-rank communication program the executor will run.

    ``events[p]`` is the exact ordered sequence of transport operations
    rank *p* performs, each a ``(op, tile, index, peer)`` tuple with
    *op* from :data:`MESSAGE_OPS`, *index* the schedule key of the
    message (read index for segments, transfer index for ghosts, local
    output chunk id for emits) and *peer* the destination rank of a
    send, the source rank of a receive, and ``-1`` for an emit (the
    result queue has no rank).

    This is the object :mod:`repro.analysis.comm` model-checks: a send
    event corresponds one-to-one with a
    :meth:`~repro.runtime.transport.Transport.send_segments` /
    :meth:`~repro.runtime.transport.Transport.send_ghost` call under
    the message key of
    :func:`repro.runtime.transport.message_key`, so proofs about the
    flow (deadlock-freedom, matched multisets, combine completeness,
    re-send safety) are proofs about what
    :class:`PhaseExecutor` asks any transport to do.
    """

    n_procs: int
    n_tiles: int
    events: Dict[int, List[Tuple[str, int, int, int]]] = field(default_factory=dict)

    def sends(self) -> List[Tuple[int, str, int, int, int]]:
        """``(src, kind, tile, index, dst)`` rows for every send."""
        out = []
        for p, evs in self.events.items():
            for op, tile, index, peer in evs:
                if op in ("send_seg", "send_ghost"):
                    out.append((p, op[5:], tile, index, peer))
        return out

    def recvs(self) -> List[Tuple[int, str, int, int, int]]:
        """``(dst, kind, tile, index, src)`` rows for every receive."""
        out = []
        for p, evs in self.events.items():
            for op, tile, index, peer in evs:
                if op in ("recv_seg", "recv_ghost"):
                    out.append((p, op[5:], tile, index, peer))
        return out


# ---------------------------------------------------------------------------
# Plan-derived schedule (shared by engines, workers and the simulator)
# ---------------------------------------------------------------------------


class PhaseSchedule:
    """Everything schedule-shaped the phase loop needs, derived from
    the plan once and shared by every consumer.

    ``plan.schedule()`` caches one per plan, so the sequential engine,
    the multiprocess parent (whose forked workers inherit it) and the
    simulator all walk literally the same arrays.

    Attributes
    ----------
    tiles:
        The per-tile read/ghost-transfer/output orders
        (:class:`~repro.runtime.kernels.TileSchedule`); delegated via
        :meth:`reads_of` / :meth:`transfers_of` / :meth:`outputs_of`.
    recipients:
        Per read, the ranks beyond the reader that receive a forwarded
        segment message.  Derived from the plan's edge assignment
        restricted to the read's tile, so sender and receivers agree
        on the message schedule even for reads that map no items.
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
        P = problem.n_procs
        self.n_tiles = plan.n_tiles
        self.tiles: TileSchedule = tile_schedule(plan)

        # Every edge belongs to exactly one read -- the one of its
        # (tile, input chunk), and ``plan.reads`` is sorted by that
        # pair -- so all reads' recipients come out of one sorted pass
        # over the distinct (read, edge processor) pairs.
        reads = plan.reads
        edge_in, _ = plan.edge_arrays
        n_in = problem.n_in
        edge_read = np.searchsorted(
            reads.tile * n_in + reads.chunk, plan.edge_tile * n_in + edge_in
        )
        forwarded = plan.edge_proc != reads.proc[edge_read]
        pair_read, procs = unique_rows(edge_read[forwarded], plan.edge_proc[forwarded])
        bounds = np.searchsorted(pair_read, np.arange(len(reads) + 1)).tolist()
        self.recipients: List[np.ndarray] = [
            procs[a:b] for a, b in zip(bounds, bounds[1:])
        ]

        # The endpoint tables :meth:`message_flow` replays the phase
        # loop over (kept here so the flow is derived from the same
        # schedule object every backend walks).
        self.n_procs = int(P)
        self.read_proc = reads.proc.astype(np.int64)
        gt = plan.ghost_transfers
        self.transfer_src = gt.src.astype(np.int64)
        self.transfer_dst = gt.dst.astype(np.int64)
        self.output_owner = problem.output_owner.astype(np.int64)

        # What the simulator-only tables below are derived from, on
        # first use (no reference to the plan: it owns this object).
        self._edges = (plan.edge_tile, edge_in, plan.edge_proc, n_in)
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
        return self.tiles.reads_of(tile)

    def transfers_of(self, tile: int) -> np.ndarray:
        return self.tiles.transfers_of(tile)

    def outputs_of(self, tile: int) -> np.ndarray:
        return self.tiles.outputs_of(tile)

    def message_flow(self) -> MessageFlow:
        """The per-rank transport program (:class:`MessageFlow`).

        Replays exactly the walk :meth:`PhaseExecutor.run` performs --
        reads, then ghost transfers, then outputs, tile by tile in
        schedule order -- recording every transport call each rank
        would make.  :func:`repro.analysis.comm.check_plan_comm`
        model-checks the result against the plan tables.
        """
        events: Dict[int, List[Tuple[str, int, int, int]]] = {
            p: [] for p in range(self.n_procs)
        }
        for t in range(self.n_tiles):
            for r in self.reads_of(t):
                r = int(r)
                reader = int(self.read_proc[r])
                for q in self.recipients[r]:
                    events[reader].append(("send_seg", t, r, int(q)))
                for q in self.recipients[r]:
                    events[int(q)].append(("recv_seg", t, r, reader))
            for g in self.transfers_of(t):
                g = int(g)
                src, dst = int(self.transfer_src[g]), int(self.transfer_dst[g])
                events[src].append(("send_ghost", t, g, dst))
                events[dst].append(("recv_ghost", t, g, src))
            for o in self.outputs_of(t):
                o = int(o)
                events[int(self.output_owner[o])].append(("emit", t, o, -1))
        return MessageFlow(n_procs=self.n_procs, n_tiles=self.n_tiles, events=events)


# ---------------------------------------------------------------------------
# Accumulator hosting
# ---------------------------------------------------------------------------


class AccumulatorHost:
    """Accumulator state for the ranks one executor hosts.

    Wraps one :class:`~repro.aggregation.accumulator.AccumulatorSet`
    per hosted rank.  The sequential engine hosts every rank with
    private buffers (and optional per-rank memory budgets); a
    multiprocess worker hosts its one rank with *buffer_for*
    supplying shared-memory arena views, so allocation only
    re-initializes the view in place.
    """

    def __init__(
        self,
        spec: AggregationSpec,
        ranks: Sequence[int],
        memory_limit: Optional[Callable[[int], Optional[int]]] = None,
        buffer_for: Optional[Callable[[int, int, int, int], np.ndarray]] = None,
    ) -> None:
        self.spec = spec
        self.ranks = tuple(int(p) for p in ranks)
        self.rank_set = frozenset(self.ranks)
        self._buffer_for = buffer_for
        self._sets = {
            p: AccumulatorSet(
                spec,
                memory_limit=memory_limit(p) if memory_limit is not None else None,
            )
            for p in self.ranks
        }
        self._tile = -1

    def begin_tile(self, tile: int) -> None:
        self._tile = int(tile)

    def allocate(self, rank: int, output_chunk: int, n_cells: int, ghost: bool):
        data = None
        if self._buffer_for is not None:
            data = self._buffer_for(self._tile, rank, output_chunk, n_cells)
        return self._sets[rank].allocate(output_chunk, n_cells, ghost, data=data)

    def holds(self, rank: int, output_chunk: int) -> bool:
        return output_chunk in self._sets[rank]

    def get(self, rank: int, output_chunk: int):
        return self._sets[rank].get(output_chunk)

    def aggregate(self, rank, output_chunk, cell_idx, values) -> None:
        self._sets[rank].aggregate(output_chunk, cell_idx, values)

    def scatter_groups(self, rank, output_chunk, cell_idx, reduced) -> None:
        self._sets[rank].scatter_groups(output_chunk, cell_idx, reduced)

    def combine_from(self, rank, output_chunk, ghost_data) -> None:
        self._sets[rank].combine_from(output_chunk, ghost_data)

    def end_tile(self) -> None:
        """Release every rank's accumulators (tile boundary)."""
        for s in self._sets.values():
            s.clear()


# ---------------------------------------------------------------------------
# The phase executor
# ---------------------------------------------------------------------------


class PhaseExecutor:
    """Walk the plan's tiles through the four phases for a set of
    hosted ranks, over a transport.

    This is the one implementation of phase sequencing (ADR501).  The
    sequential engine instantiates it once with every rank and an
    :class:`~repro.runtime.transport.InprocTransport`; each
    multiprocess worker instantiates it with its one rank and a
    :class:`~repro.runtime.transport.QueueTransport`.  *provider*
    maps a batch of dataset-level input chunk ids to one slot each --
    the payload, or the recoverable error reading it raised
    (:func:`repro.runtime.engine._provider` adapts every chunk source
    to this form).  The executor calls it once per batch of a tile's
    reads, on the calling thread; a slot's error surfaces unchanged, the
    first in schedule order (``on_error='degrade'`` absorbs them).

    After :meth:`run`, :attr:`tally` holds this executor's counters
    across its hosted ranks, per the module-level counter contract.
    """

    def __init__(
        self,
        plan: QueryPlan,
        grid: OutputGrid,
        spec: AggregationSpec,
        mapping: GridMapping,
        provider: Callable[[Sequence[int]], List[ReadSlot]],
        accs: AccumulatorHost,
        transport: Transport,
        *,
        schedule: Optional[PhaseSchedule] = None,
        region=None,
        prior: Optional[Callable[[int], np.ndarray]] = None,
        routing_cache: Optional[RoutingCache] = None,
        on_error: str = "raise",
        predicate=None,
    ) -> None:
        self.plan = plan
        self.problem = plan.problem
        self.grid = grid
        self.spec = spec
        self.mapping = mapping
        self.provider = provider
        self.accs = accs
        self.transport = transport
        self.schedule = schedule if schedule is not None else plan.schedule()
        self.region = region
        self.prior = prior
        self.routing_cache = routing_cache
        self.on_error = on_error
        self.predicate = predicate

        # Only the chunk id of a routing key varies from read to read.
        self._routing_tail = (
            None if routing_cache is None else routing_tail(mapping, grid, region)
        )
        # (input, output) of every graph edge as one ascending key, in
        # forward-CSR order (aligned with ``plan.edge_proc``).
        edge_in, edge_out = plan.edge_arrays
        self._edge_key = edge_in * self.problem.n_out + edge_out
        # Dataset-level output chunk id -> dense local id (or -1).
        self._sel_map = np.full(grid.n_chunks, -1, dtype=np.int64)
        self._sel_map[self.problem.output_global_ids] = np.arange(self.problem.n_out)

        self.tally = Tally()

    # -- phase 1: initialization ---------------------------------------

    def _initialize(self, t: int) -> None:
        problem, spec = self.problem, self.spec
        out_global = problem.output_global_ids
        rank_set = self.accs.rank_set
        for k in self.schedule.outputs_of(t):
            o = int(k)
            n_cells = self.grid.cells_in_chunk(int(out_global[o]))
            owner = int(problem.output_owner[o])
            prior_acc = None
            prior_checked = False
            for p in self.plan.holders_of(o):
                p = int(p)
                if p not in rank_set:
                    continue
                acc = self.accs.allocate(p, o, n_cells, ghost=p != owner)
                # Replicated (ghost) holders are seeded only for
                # idempotent aggregations -- otherwise the global
                # combine would double-count the prior.  The prior is
                # fetched lazily so a worker host never retrieves
                # existing output it does not seed from.
                if (
                    problem.init_from_output
                    and self.prior is not None
                    and (p == owner or spec.idempotent)
                ):
                    if not prior_checked:
                        prior_checked = True
                        prior_vals = self.prior(int(out_global[o]))
                        if prior_vals is not None:
                            prior_acc = spec.initialize_from(prior_vals)
                    if prior_acc is not None:
                        acc.data[:] = prior_acc

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

    def _fetch(self, batch: List[int], readers: List[int]) -> List[Optional[tuple]]:
        """The reads of *batch* this executor hosts, read with one
        provider call, then routed and filtered: per read
        ``(item_idx, cells, values)`` for :func:`group_reads`, or None
        when it contributes nothing (not hosted, degraded, unrouted or
        fully filtered)."""
        problem = self.problem
        hosted = [k for k, p in enumerate(readers) if p in self.accs.rank_set]
        inputs = self.plan.reads.chunk[batch].tolist()
        gids = problem.input_global_ids[[inputs[k] for k in hosted]].tolist()
        slots = self.provider(gids)
        parts: List[Optional[tuple]] = [None] * len(batch)
        tail = self._routing_tail
        for k, gid, chunk in zip(hosted, gids, slots):
            if isinstance(chunk, Exception):
                if self.on_error != "degrade" or not isinstance(chunk, RECOVERABLE_READ_ERRORS):
                    raise chunk
                self.tally.chunk_errors.setdefault(gid, f"{type(chunk).__name__}: {chunk}")
                continue
            self.tally.n_reads += 1
            self.tally.bytes_read += int(problem.inputs.nbytes[inputs[k]])
            item_idx, cells = route_chunk(
                chunk, self.mapping, self.grid, self.region, self.routing_cache,
                None if tail is None else (gid, *tail),
            )
            # Residual value filter *after* routing, so the routing cache
            # stays predicate-independent.
            item_idx, cells = filter_predicate(chunk, item_idx, cells, self.predicate)
            if len(cells):
                parts[k] = item_idx, cells, coerce_values(chunk.values, self.spec.value_components)
        return parts

    def _apply(self, rank: int, t: int, kind: str, o: int, cell_idx, payload) -> None:
        if kind == "red":
            self.accs.scatter_groups(rank, o, cell_idx, payload)
        else:
            self.accs.aggregate(rank, o, cell_idx, payload)
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
        rank_set = self.accs.rank_set
        readers = plan.reads.proc[batch].tolist()
        # Fetch every read of the batch this executor hosts, then group
        # them all with one sort and pre-reduce duplicate cells batch-
        # wide (when the aggregation supports it): forwarded segments
        # ship one row per distinct cell and both sides apply one
        # fancy-indexed scatter per segment -- the same arithmetic, in
        # the same order, on every backend and for every batch bound.
        segs = group_reads(
            self._fetch(batch, readers), self.grid, self._sel_map, plan.tile_of_output, t,
        )
        rb = [0] * (len(batch) + 1)  # batch position -> its segment range
        if segs is not None:
            seg_in = plan.reads.chunk[batch][segs.seg_read]
            seg_procs = plan.edge_proc[self._edge_positions(seg_in, segs.seg_out)].tolist()
            seg_out = segs.seg_out.tolist()
            rb = segs.read_bounds.tolist()
            rows = spec.prereduce_groups(segs.values, segs.group_starts)
            if rows is None:
                kind, idx, rows = "raw", segs.flat, segs.values
                lo, hi = segs.starts.tolist(), segs.ends.tolist()
            else:
                kind, idx = "red", segs.flat[segs.group_starts]
                lo = segs.group_bounds.tolist()
                hi = lo[1:]
        # Walk the reads in schedule order: apply own segments, forward
        # the rest (the DA communication), then receive -- sends and
        # receives stay per read, so the cross-rank message schedule is
        # the one ``PhaseSchedule.message_flow`` states.  A degraded
        # (unreadable) chunk still ships its (empty) messages.
        for k, (r, reader) in enumerate(zip(batch, readers)):
            recipients = self.schedule.recipients[r].tolist()
            if reader in rank_set:
                outbound: Dict[int, list] = {q: [] for q in recipients}
                for j in range(rb[k], rb[k + 1]):
                    o, q = seg_out[j], seg_procs[j]
                    cell_idx, payload = idx[lo[j] : hi[j]], rows[lo[j] : hi[j]]
                    if q == reader:
                        assert self.accs.holds(reader, o), (
                            "reader aggregating into chunk it does not hold"
                        )
                        self._apply(reader, t, kind, o, cell_idx, payload)
                    else:
                        outbound[q].append(
                            (kind, o, np.ascontiguousarray(cell_idx),
                             np.ascontiguousarray(payload))
                        )
                for q in recipients:
                    self.transport.send_segments(q, t, r, outbound[q])
            for q in recipients:
                if q not in rank_set:
                    continue
                segments = self.transport.recv_segments(q, t, r)
                if not segments:
                    continue
                outs = np.array([seg[1] for seg in segments])
                edges = self._edge_positions(np.full(len(outs), plan.reads.chunk[r]), outs)
                assert (plan.edge_proc[edges] == q).all(), (
                    "forwarded segment for an edge the plan did not "
                    "assign to this processor"
                )
                for kind_in, o, cell_idx, payload in segments:
                    assert self.accs.holds(q, o), (
                        "segment for a chunk this rank does not hold"
                    )
                    self._apply(q, t, kind_in, o, cell_idx, payload)

    # -- phase 3: global combine ---------------------------------------

    def _combine(self, t: int) -> None:
        problem = self.problem
        gt = self.plan.ghost_transfers
        rank_set = self.accs.rank_set
        for g in self.schedule.transfers_of(t):
            g = int(g)
            o = int(gt.chunk[g])
            src, dst = int(gt.src[g]), int(gt.dst[g])
            if src in rank_set:
                assert self.accs.holds(src, o), (
                    "shipping a ghost this rank does not hold"
                )
                self.transport.send_ghost(dst, t, g, self.accs.get(src, o).data)
            if dst in rank_set:
                ghost_data = self.transport.recv_ghost(dst, t, g)
                assert int(problem.output_owner[o]) == dst, (
                    "ghost shipped to a non-owner"
                )
                self.accs.combine_from(dst, o, ghost_data)
                self.tally.n_combines += 1

    # -- phase 4: output handling --------------------------------------

    def _output(self, t: int) -> None:
        problem, spec = self.problem, self.spec
        rank_set = self.accs.rank_set
        for k in self.schedule.outputs_of(t):
            o = int(k)
            owner = int(problem.output_owner[o])
            if owner not in rank_set:
                continue
            acc = self.accs.get(owner, o)
            if acc.ghost:
                raise AssertionError("owner holds a ghost for its own chunk")
            self.transport.emit_result(o, spec.output(acc.data))
        self.accs.end_tile()

    # -- driver ---------------------------------------------------------

    def run(self) -> None:
        """Execute every tile; counters accumulate on ``self.tally``."""
        times = self.tally.phase_times
        for t in range(self.plan.n_tiles):
            self.accs.begin_tile(t)
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
