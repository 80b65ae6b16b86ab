"""Multiprocess execution backend: virtual processors as OS processes.

The sequential engine (:mod:`repro.runtime.engine`) honors the plan's
data placement inside one address space.  This backend makes the
placement physical: virtual processors run inside forked *worker
hosts*, each with

- its own slice of a :class:`multiprocessing.shared_memory.SharedMemory`
  arena holding the accumulator chunks it is a plan-declared holder of,
- a private inbox :class:`multiprocessing.Queue` per hosted rank over
  which forwarded input segments (the DA communication) and ghost
  accumulator chunks (the FRA/SRA communication) arrive as real IPC,
- plan-authorization asserts on every access: a rank only ever touches
  accumulators it holds, applies edges the plan assigned to it, and
  combines ghosts the plan declares shipped to it.

**Hosting.** A healthy run hosts one rank per OS process.  After a
worker crash, the dead rank's virtual processor is *reassigned*: the
recovery re-execution co-hosts it on a surviving host, which walks the
combined schedule for all its ranks in global order (exactly how the
sequential backend hosts every rank at once).  Messages between
co-hosted ranks still travel their queues, so the message schedule is
identical whatever the hosting.

**Determinism.** Every worker host drives the same
:class:`~repro.runtime.phases.PhaseExecutor` as the sequential engine
-- the phase loop is not transcribed here -- over a
:class:`~repro.runtime.transport.QueueTransport` instead of the
in-process mailbox, and all hosts share one
:class:`~repro.runtime.phases.PhaseSchedule` inherited through fork.
Every rank walks the tile's reads in global read order -- the reader
routes the chunk and forwards per-edge segments, recipients block for
the forward before moving on -- so each accumulator receives exactly
the same floating-point operations in exactly the same order as under
the sequential backend, and results agree **bit for bit**
(``np.array_equal``) regardless of hosting, crashes, or recovery.

**Fault tolerance.** The parent polls worker liveness and per-tile
heartbeat messages.  When a host dies (or a survivor times out waiting
on a dead peer), the parent terminates the attempt, reassigns the dead
ranks to survivors, re-initializes every accumulator from scratch
(initialization is idempotent: phase 1 of every tile overwrites the
arena, so no partial sums from the failed attempt survive), and
re-executes.  Counters and outputs are taken exclusively from the
successful attempt, keeping recovered runs bit-identical to the
sequential backend.  Deterministic fault injection (crashes, dropped
messages, read faults) plugs in via
:class:`repro.faults.FaultInjector`; see ``docs/robustness.md``.

**Deadlock freedom.** Sends never block (unbounded queues); a rank
only blocks waiting for the message of the earliest unprocessed read
(or declared ghost transfer).  A wait chain therefore strictly
decreases in schedule index and must end at a rank that is actively
producing, so global progress is guaranteed; out-of-order arrivals are
stashed by schedule index until their turn.

The backend is selected with ``execute_plan(..., backend="parallel")``.
It requires the ``fork`` start method (the chunk provider and prior
callables are inherited, never pickled), i.e. a POSIX host.
"""

from __future__ import annotations

import queue as queue_mod
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.dataset.dataset import Dataset
from repro.planner.plan import QueryPlan
from repro.runtime.kernels import RoutingCache
from repro.runtime.phases import AccumulatorHost, PhaseExecutor, Tally, is_gauge
from repro.runtime.transport import QueueTransport, RecoveryPolicy
from repro.space.mapping import GridMapping
from repro.store.chunk_store import RECOVERABLE_READ_ERRORS

__all__ = ["execute_parallel", "RecoveryPolicy"]

ChunkProvider = Callable[[int], Chunk]

_ALIGN = 64  # worker arena slices are cache-line aligned


@dataclass(frozen=True)
class _WorkerConfig:
    """Per-attempt execution settings inherited by every worker."""

    on_error: str = "raise"
    inbox_timeout: float = 120.0
    injector: Optional[object] = None  # repro.faults.FaultInjector
    prefetch: object = None  # bool | PrefetchPolicy | None
    predicate: object = None  # repro.dataset.predicate.ValuePredicate | None


# ---------------------------------------------------------------------------
# Plan-derived layout (computed once, in the parent, before forking)
# ---------------------------------------------------------------------------


class _Layout:
    """Shared-memory arena layout over the plan's phase schedule.

    Everything here is a pure function of (plan, grid, spec); workers
    inherit it read-only through fork, so parent and every worker agree
    on offsets and message schedules without any further coordination.
    The layout is keyed by *rank*, never by host process, so it is
    invariant under recovery re-hosting.  The schedule itself (per-tile
    orders, forwarding recipients) is ``plan.schedule()`` -- the same
    object the sequential engine and the simulator consume.
    """

    def __init__(
        self, plan: QueryPlan, grid: OutputGrid, spec: AggregationSpec,
        enforce_memory: bool,
    ) -> None:
        problem = plan.problem
        out_global = problem.output_global_ids
        self.schedule = plan.schedule()
        n_procs = problem.n_procs

        # Per (tile, rank): [(local output id, n_cells, byte offset)].
        self.tile_accs: List[List[List[Tuple[int, int, int]]]] = [
            [[] for _ in range(n_procs)] for _ in range(plan.n_tiles)
        ]
        per_tile_bytes = np.zeros((plan.n_tiles, n_procs), dtype=np.int64)
        for t in range(plan.n_tiles):
            for k in self.schedule.outputs_of(t):
                o = int(k)
                n_cells = grid.cells_in_chunk(int(out_global[o]))
                nbytes = spec.acc_bytes(n_cells)
                for p in plan.holders_of(o):
                    p = int(p)
                    offset = int(per_tile_bytes[t, p])
                    self.tile_accs[t][p].append((o, n_cells, offset))
                    per_tile_bytes[t, p] = offset + nbytes
        if enforce_memory:
            over = per_tile_bytes > problem.memory_per_proc[None, :]
            if over.any():
                t, p = map(int, np.argwhere(over)[0])
                raise MemoryError(
                    f"tile {t} needs {int(per_tile_bytes[t, p])} accumulator "
                    f"bytes on processor {p}, over the "
                    f"{int(problem.memory_per_proc[p])}-byte budget -- the "
                    "tiling step should prevent this"
                )

        # Per-rank arena slices (cache-line aligned, >= 1 byte each).
        slice_bytes = per_tile_bytes.max(axis=0) if plan.n_tiles else np.zeros(
            n_procs, dtype=np.int64
        )
        self.slice_starts = np.zeros(n_procs, dtype=np.int64)
        total = 0
        for p in range(n_procs):
            self.slice_starts[p] = total
            total += -(-max(int(slice_bytes[p]), 1) // _ALIGN) * _ALIGN
        self.arena_bytes = max(total, 1)


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _worker(
    host: int,
    ranks: Tuple[int, ...],
    plan: QueryPlan,
    provider: ChunkProvider,
    mapping: GridMapping,
    grid: OutputGrid,
    spec: AggregationSpec,
    region,
    prior,
    routing_cache: Optional[RoutingCache],
    layout: _Layout,
    shm_name: str,
    inboxes,
    result_q,
    cfg: _WorkerConfig,
) -> None:
    """One worker host executing one or more virtual processors."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        _worker_body(
            host, ranks, plan, provider, mapping, grid, spec, region, prior,
            routing_cache, layout, shm, inboxes, result_q, cfg,
        )
    except BaseException as e:
        # Deterministic data errors (corrupt/missing/unreadable chunks
        # under on_error='raise') will recur on a re-execution; process
        # faults (peer timeouts, anything else) are worth a restart.
        retryable = not isinstance(e, RECOVERABLE_READ_ERRORS)
        result_q.put(("error", host, traceback.format_exc(), retryable))
    finally:
        shm.close()


def _worker_body(
    host, ranks, plan, provider, mapping, grid, spec, region, prior,
    routing_cache, layout, shm, inboxes, result_q, cfg,
) -> None:
    """Thin driver: arena views + queue transport around the unified
    :class:`~repro.runtime.phases.PhaseExecutor`."""
    from repro.runtime.engine import _chunk_source

    ranks = tuple(int(p) for p in ranks)
    injector = cfg.injector
    if injector is not None:
        provider = injector.wrap_provider(provider)

    # The cache was forked with the parent's counters baked in; report
    # only this host's delta so the parent can sum across hosts.
    cache_base = routing_cache.stats() if routing_cache is not None else {}

    arena = np.frombuffer(shm.buf, dtype=np.uint8)
    bases = {p: int(layout.slice_starts[p]) for p in ranks}
    offsets = {
        (t, p, o): offset
        for t in range(plan.n_tiles)
        for p in ranks
        for (o, n_cells, offset) in layout.tile_accs[t][p]
    }

    def buffer_for(tile: int, rank: int, o: int, n_cells: int) -> np.ndarray:
        start = bases[rank] + offsets[(tile, rank, o)]
        return (
            arena[start : start + spec.acc_bytes(n_cells)]
            .view(spec.acc_dtype)
            .reshape(n_cells, spec.acc_components)
        )

    accs = AccumulatorHost(spec, ranks, buffer_for=buffer_for)
    transport = QueueTransport(
        host, ranks, inboxes, result_q, cfg.inbox_timeout, injector=injector
    )
    source = _chunk_source(provider, plan, cfg.prefetch, ranks=frozenset(ranks))
    executor = PhaseExecutor(
        plan,
        grid,
        spec,
        mapping,
        source,
        accs,
        transport,
        schedule=layout.schedule,
        region=region,
        prior=prior,
        routing_cache=routing_cache,
        on_error=cfg.on_error,
        predicate=cfg.predicate,
    )
    try:
        executor.run()
    finally:
        source.close()

    tally = executor.tally
    if routing_cache is not None:
        tally.cache_stats = {
            key: int(v) if is_gauge(key) else int(v) - int(cache_base.get(key, 0))
            for key, v in routing_cache.stats().items()
        }
    result_q.put(("done", host, tally))


# ---------------------------------------------------------------------------
# Parent orchestration
# ---------------------------------------------------------------------------


def _regroup(
    groups: List[List[int]], dead_hosts: Sequence[int]
) -> List[List[int]]:
    """Reassign the ranks of dead hosts to survivors.

    Orphaned ranks are adopted by the first surviving host (lowest
    index); if every host died, one fresh host takes all ranks.  The
    result is deterministic, so a recovered run's hosting -- and hence
    its message schedule -- is reproducible.
    """
    dead = set(dead_hosts)
    survivors = [list(g) for h, g in enumerate(groups) if h not in dead]
    orphaned = sorted(r for h in dead for r in groups[h])
    if not survivors:
        return [orphaned]
    survivors[0] = survivors[0] + orphaned
    return survivors


def execute_parallel(
    plan: QueryPlan,
    chunks: Union[Dataset, ChunkProvider],
    mapping: GridMapping,
    grid: OutputGrid,
    spec: AggregationSpec,
    enforce_memory: bool = False,
    region=None,
    prior: Optional[Callable[[int], np.ndarray]] = None,
    routing_cache: Optional[RoutingCache] = None,
    on_error: str = "raise",
    fault_injector=None,
    recovery: Optional[RecoveryPolicy] = None,
    prefetch=None,
    predicate=None,
):
    """Execute *plan* with the virtual processors as OS processes.

    Same contract and result as ``execute_plan(..., backend=
    "sequential")`` -- bit for bit -- except that race detection is not
    available (each rank asserts plan-authorized access instead) and
    the worker hosts' tallies merge by the one contract reduction
    (:func:`~repro.runtime.phases.merge_tallies`: ``phase_times`` is the
    critical path).  A *routing_cache* is forked copy-on-write into each
    host: hits still apply per host, but the parent's cache object is
    not updated; each host reports its own hit counters.

    Fault tolerance: a worker host that dies (or a peer timeout it
    causes) triggers up to ``recovery.max_restarts`` deterministic
    re-executions with the dead ranks reassigned to surviving hosts;
    outputs and counters come exclusively from the successful attempt.
    ``on_error='degrade'`` absorbs unreadable chunks into the result's
    ``chunk_errors`` / ``completeness`` instead of failing the query.
    *fault_injector* (a :class:`repro.faults.FaultInjector`) arms
    deterministic fault injection in the workers' read paths, read
    loops, and IPC sends.

    *prefetch* (a bool or :class:`~repro.store.prefetch.PrefetchPolicy`)
    enables per-host threaded read-ahead: each worker prefetches only
    the reads its hosted ranks perform, in placement order, through
    its own fully-wrapped provider (cache, retry, fault injection), so
    injected read faults surface identically to the synchronous path.

    Requires the ``fork`` start method (POSIX): the chunk provider and
    *prior* callables are inherited, never pickled.
    """
    import multiprocessing
    from multiprocessing import shared_memory

    from repro.runtime.engine import _provider, assemble_result

    if recovery is None:
        recovery = RecoveryPolicy()
    problem = plan.problem
    provider = _provider(chunks)
    layout = _Layout(plan, grid, spec, enforce_memory)

    if plan.n_tiles == 0 or problem.n_out == 0:
        return assemble_result(plan, {})

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "backend='parallel' requires the fork start method (POSIX)"
        ) from None

    cfg = _WorkerConfig(
        on_error=on_error,
        inbox_timeout=recovery.inbox_timeout,
        injector=fault_injector,
        prefetch=prefetch,
        predicate=predicate,
    )
    groups: List[List[int]] = [[p] for p in range(problem.n_procs)]
    shm = shared_memory.SharedMemory(create=True, size=layout.arena_bytes)

    results: Dict[int, np.ndarray] = {}
    tallies: List[Tally] = []

    try:
        attempt = 0
        restarts_left = recovery.max_restarts
        while True:
            if fault_injector is not None:
                fault_injector.attempt = attempt
            # Fresh queues per attempt: messages of a failed attempt
            # must never leak into its re-execution.
            inboxes = [ctx.Queue() for _ in range(problem.n_procs)]
            result_q = ctx.Queue()
            workers = [
                ctx.Process(
                    target=_worker,
                    args=(
                        h, tuple(group), plan, provider, mapping, grid, spec,
                        region, prior, routing_cache, layout, shm.name,
                        inboxes, result_q, cfg,
                    ),
                    daemon=True,
                )
                for h, group in enumerate(groups)
            ]
            # Per-attempt tallies: only the successful attempt counts,
            # keeping recovered counters identical to a clean run.
            results.clear()
            tallies.clear()

            failed: Optional[str] = None
            fatal: Optional[str] = None
            dead_hosts: List[int] = []
            try:
                for w in workers:
                    w.start()
                pending = set(range(len(groups)))
                quiet_polls = 0
                while pending:
                    try:
                        msg = result_q.get(timeout=recovery.poll_interval)
                    except queue_mod.Empty:
                        dead = [
                            h for h in pending
                            if not workers[h].is_alive()
                            and workers[h].exitcode is not None
                        ]
                        # A worker that exited 0 without reporting
                        # "done" broke the protocol; give the queue a
                        # few grace polls in case its final messages
                        # are still in flight.  Nonzero exits are
                        # immediate failures.
                        quiet_polls += 1
                        if dead and (
                            quiet_polls >= recovery.grace_polls
                            or any(workers[h].exitcode != 0 for h in dead)
                        ):
                            dead_hosts = dead
                            failed = (
                                f"worker host(s) {dead} died without reporting "
                                f"(exit codes "
                                f"{[workers[h].exitcode for h in dead]})"
                            )
                            break
                        continue
                    quiet_polls = 0
                    kind = msg[0]
                    if kind == "result":
                        _, o, value = msg
                        results[int(o)] = value
                    elif kind == "tile":
                        pass  # heartbeat: progress noted, quiet_polls reset
                    elif kind == "done":
                        _, h, tally = msg
                        pending.discard(h)
                        tallies.append(tally)
                    elif kind == "error":
                        _, h, tb, retryable = msg
                        dead_hosts = [
                            x for x in pending
                            if workers[x].exitcode not in (None, 0)
                        ]
                        if retryable:
                            failed = f"worker host {h} failed:\n{tb}"
                        else:
                            fatal = f"parallel worker host {h} failed:\n{tb}"
                        break
                    else:  # pragma: no cover - defensive
                        raise RuntimeError(f"unexpected worker message {kind!r}")
                if failed is None and fatal is None:
                    for w in workers:
                        w.join(timeout=30)
            finally:
                for w in workers:
                    if w.is_alive():
                        w.terminate()
                for w in workers:
                    w.join(timeout=5)
                for w in workers:
                    if w.is_alive():  # pragma: no cover - stuck worker
                        w.kill()
                        w.join(timeout=5)
                for q in inboxes:
                    q.close()
                result_q.close()
            if fatal is not None:
                raise RuntimeError(fatal)
            if failed is None:
                break  # attempt succeeded
            if restarts_left <= 0:
                raise RuntimeError(
                    f"parallel execution failed after "
                    f"{recovery.max_restarts} restart(s); last failure: "
                    f"{failed}"
                )
            restarts_left -= 1
            attempt += 1
            groups = _regroup(groups, dead_hosts)
    finally:
        shm.close()
        shm.unlink()

    return assemble_result(plan, results, tallies)
