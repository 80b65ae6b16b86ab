"""Multiprocess execution backend: virtual processors as OS processes.

The sequential engine (:mod:`repro.runtime.engine`) honors the plan's
data placement inside one address space.  This backend makes the
placement physical: each virtual processor runs inside its own forked
*worker host*, with

- its own slice of a :class:`multiprocessing.shared_memory.SharedMemory`
  arena holding the accumulator chunks it is a plan-declared holder of,
- a private inbox :class:`multiprocessing.Queue` over which forwarded
  input segments (the DA communication) and ghost accumulator chunks
  (the FRA/SRA communication) arrive as real IPC,
- plan-authorization asserts on every access: a rank only ever touches
  accumulators it holds, applies edges the plan assigned to it, and
  combines ghosts the plan declares shipped to it.

It is a placement checker, not a faster backend: every rank walks the
tile's reads in global order, so on a few cores it runs slower than the
sequential engine (``docs/architecture.md`` gives the measurement).

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
(``np.array_equal``).

**Failure.** A worker that raises reports its traceback, and the parent
fails the query with it.  A worker that exits without reporting (killed,
``os._exit``) is found by the parent's liveness poll, every
:data:`_POLL_S` seconds, and fails the query with its exit code.  Either
way the parent terminates the other hosts and unlinks the arena before
it raises; nothing is re-run.  Unreadable chunks under
``on_error='degrade'`` are not failures: they land in the result's
``chunk_errors``.

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

import gc
import queue as queue_mod
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.dataset import Dataset
from repro.planner.plan import QueryPlan
from repro.runtime.engine import (
    BatchProvider, BatchReader, ChunkProvider, _provider, assemble_result,
)
from repro.runtime.kernels import RoutingCache
from repro.runtime.phases import AccumulatorHost, PhaseExecutor, Tally, is_gauge
from repro.runtime.transport import QueueTransport
from repro.space.mapping import GridMapping

__all__ = ["execute_parallel"]

_ALIGN = 64  # worker arena slices are cache-line aligned
#: seconds between the parent's checks for a worker that exited unreported
_POLL_S = 0.1


@dataclass(frozen=True)
class _WorkerConfig:
    """Execution settings inherited by every worker."""

    on_error: str = "raise"
    injector: Optional[object] = None  # repro.faults.FaultInjector
    predicate: object = None  # repro.dataset.predicate.ValuePredicate | None


# ---------------------------------------------------------------------------
# Plan-derived layout (computed once, in the parent, before forking)
# ---------------------------------------------------------------------------


class _Layout:
    """Shared-memory arena layout over the plan's phase schedule.

    Everything here is a pure function of (plan, grid, spec); workers
    inherit it read-only through fork, so parent and every worker agree
    on offsets and message schedules without any further coordination.
    The schedule itself (per-tile
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
    rank: int,
    plan: QueryPlan,
    provider: BatchProvider,
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
    """The worker host of virtual processor *rank*."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        _worker_body(
            rank, plan, provider, mapping, grid, spec, region, prior,
            routing_cache, layout, shm, inboxes, result_q, cfg,
        )
    except Exception:
        result_q.put(("error", rank, traceback.format_exc()))
    finally:
        try:
            shm.close()
        except BufferError:
            # A read error kept in a batch slot is in a reference cycle
            # with frames holding arena views: collect it, then close.
            gc.collect()
            shm.close()


def _worker_body(
    rank, plan, provider, mapping, grid, spec, region, prior,
    routing_cache, layout, shm, inboxes, result_q, cfg,
) -> None:
    """Thin driver: arena views + queue transport around the unified
    :class:`~repro.runtime.phases.PhaseExecutor`."""
    injector = cfg.injector
    if injector is not None:
        provider = injector.wrap_provider(provider)

    # The cache was forked with the parent's counters baked in; report
    # only this host's delta so the parent can sum across hosts.
    cache_base = routing_cache.stats() if routing_cache is not None else {}

    arena = np.frombuffer(shm.buf, dtype=np.uint8)
    base = int(layout.slice_starts[rank])
    offsets = {
        (t, o): offset
        for t in range(plan.n_tiles)
        for (o, n_cells, offset) in layout.tile_accs[t][rank]
    }

    def buffer_for(tile: int, p: int, o: int, n_cells: int) -> np.ndarray:
        start = base + offsets[(tile, o)]
        return (
            arena[start : start + spec.acc_bytes(n_cells)]
            .view(spec.acc_dtype)
            .reshape(n_cells, spec.acc_components)
        )

    accs = AccumulatorHost(spec, (rank,), buffer_for=buffer_for)
    executor = PhaseExecutor(
        plan,
        grid,
        spec,
        mapping,
        provider,
        accs,
        QueueTransport(rank, inboxes, result_q),
        schedule=layout.schedule,
        region=region,
        prior=prior,
        routing_cache=routing_cache,
        on_error=cfg.on_error,
        predicate=cfg.predicate,
    )
    executor.run()

    tally = executor.tally
    if routing_cache is not None:
        tally.cache_stats = {
            key: int(v) if is_gauge(key) else int(v) - int(cache_base.get(key, 0))
            for key, v in routing_cache.stats().items()
        }
    result_q.put(("done", rank, tally))


# ---------------------------------------------------------------------------
# Parent orchestration
# ---------------------------------------------------------------------------


def execute_parallel(
    plan: QueryPlan,
    chunks: Union[Dataset, ChunkProvider, BatchReader],
    mapping: GridMapping,
    grid: OutputGrid,
    spec: AggregationSpec,
    enforce_memory: bool = False,
    region=None,
    prior: Optional[Callable[[int], np.ndarray]] = None,
    routing_cache: Optional[RoutingCache] = None,
    on_error: str = "raise",
    fault_injector=None,
    predicate=None,
):
    """Execute *plan* with the virtual processors as OS processes.

    Same contract and result as ``execute_plan(..., backend=
    "sequential")`` -- bit for bit -- except that each rank writes only
    its own arena, so an access the plan did not authorize fails the
    query, and the worker hosts' tallies merge by the one contract
    reduction (:func:`~repro.runtime.phases.merge_tallies`:
    ``phase_times`` is the critical path).  A *routing_cache* is forked
    copy-on-write into each host: hits still apply per host, but the
    parent's cache object is not updated; each host reports its own hit
    counters.

    A worker that fails or dies fails the query with a ``RuntimeError``
    naming its host (and exit code, when it died unreported), after the
    other hosts are terminated and the arena is unlinked.
    ``on_error='degrade'`` absorbs unreadable chunks into the result's
    ``chunk_errors`` / ``completeness`` instead.  *fault_injector* (a
    :class:`repro.faults.FaultInjector`) arms deterministic read-fault
    injection in the workers' read paths.

    Requires the ``fork`` start method (POSIX): the chunk provider and
    *prior* callables are inherited, never pickled.
    """
    import multiprocessing
    from multiprocessing import shared_memory

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

    cfg = _WorkerConfig(on_error=on_error, injector=fault_injector, predicate=predicate)
    shm = shared_memory.SharedMemory(create=True, size=layout.arena_bytes)
    inboxes = [ctx.Queue() for _ in range(problem.n_procs)]
    result_q = ctx.Queue()
    workers = [
        ctx.Process(
            target=_worker,
            args=(
                p, plan, provider, mapping, grid, spec, region, prior,
                routing_cache, layout, shm.name, inboxes, result_q, cfg,
            ),
            daemon=True,
        )
        for p in range(problem.n_procs)
    ]
    results: Dict[int, np.ndarray] = {}
    tallies: List[Tally] = []
    try:
        for w in workers:
            w.start()
        pending = set(range(problem.n_procs))
        while pending:
            # Exit codes are read before the wait: a host flushes its
            # messages before it exits, so one found exited here whose
            # "done" the wait did not deliver died without sending it.
            exited = [p for p in sorted(pending) if workers[p].exitcode is not None]
            try:
                msg = result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                if exited:
                    p = exited[0]
                    raise RuntimeError(
                        f"parallel worker host {p} exited with code "
                        f"{workers[p].exitcode} before reporting done"
                    ) from None
                continue
            kind = msg[0]
            if kind == "result":
                _, o, value = msg
                results[int(o)] = value
            elif kind == "done":
                _, p, tally = msg
                pending.discard(p)
                tallies.append(tally)
            else:  # "error"
                _, p, tb = msg
                raise RuntimeError(f"parallel worker host {p} failed:\n{tb}")
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
        shm.close()
        shm.unlink()

    return assemble_result(plan, results, tallies)
