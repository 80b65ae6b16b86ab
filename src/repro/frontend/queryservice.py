"""Concurrent multi-query front end with cross-query scan sharing.

The paper's Figure-2 front-end process "interacts with clients" and
relays range queries to the back end; its planning service explicitly
handles *sets* of queries.  :class:`QueryService` grows that front end
into a concurrent query zone (in the spirit of Nieto-Santisteban et
al.'s parallel query zone for a large user base): many clients submit
queries at once, admission control keeps the pending queue bounded and
rejects loudly when it overflows, and a pool of worker threads drains
the queue in *shared-scan batches*.

Scheduling
----------
The scheduler is work-conserving: nothing sleeps while work is queued.
A free worker dequeues the oldest pending query whose dataset has no
*open batch*, takes the pending queries against the same dataset with
it (a backlog fills a batch at once), marks the batch open and starts
planning immediately.  Planning time is the batching window: queries
that arrive against that dataset while the worker plans stay pending
-- other workers leave them to the open batch and serve other datasets
-- and join the batch when the planning round ends.  The batch closes
when a round ends with no new arrival or at ``batch_max`` queries, so
a lone query never waits.  The batch is planned per query (each query
keeps its own strategy) and executed in submission order on the
worker.  Batches over different datasets -- or over the same dataset
once its batch has closed -- run concurrently on other workers.

Functional scan sharing
-----------------------
A batch runs its queries back to back on one worker, so a successor
finds the chunks its predecessor read still in the ADR's LRU payload
cache (:class:`repro.store.cache.CachedChunkStore`) and aggregates out
of the same decoded buffers instead of re-reading the disk farm.
Results are bit-identical to isolated execution -- sharing changes
where bytes come from, never what is computed -- and each result's
``shared_reads`` / ``shared_bytes`` counters (the only fields allowed
to differ) report how many retrievals the cache absorbed.

Thread-safety contract: the service owns concurrency for *queries*
(``execute``/``submit``).  Loading datasets or materializing results
(``store_as``/``update``) while queries are in flight is not
supported -- quiesce first.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.planner.plan import QueryPlan
from repro.planner.select import StrategyChoice
from repro.planner.telemetry import MeasuredRun, TelemetryLog
from repro.runtime.engine import QueryResult

__all__ = [
    "ServicePolicy",
    "QueryService",
    "QueryTicket",
    "ServiceOverloadedError",
    "ServiceClosedError",
]


class ServiceOverloadedError(RuntimeError):
    """Admission control rejected the query: the pending queue is full.

    Deliberately loud -- clients must see back-pressure, not silent
    latency.  Over the wire protocol this travels as error code
    ``"overloaded"`` with a ``details`` object carrying
    :attr:`queue_depth` and the :attr:`retry_after_s` back-off hint, so
    shard routers and clients can space their retries instead of
    hammering a saturated service.
    """

    def __init__(
        self, message: str, queue_depth: int = 0, retry_after_s: float = 0.05
    ) -> None:
        super().__init__(message)
        #: pending queries at rejection time (== ``max_queue``).
        self.queue_depth = queue_depth
        #: suggested client back-off before retrying, seconds.
        self.retry_after_s = retry_after_s

    @property
    def wire_details(self) -> Dict[str, object]:
        """Machine-readable fields for ``protocol.error_to_dict``."""
        return {
            "queue_depth": int(self.queue_depth),
            "retry_after_s": float(self.retry_after_s),
        }


class ServiceClosedError(RuntimeError):
    """The service has been closed and accepts no new queries."""


@dataclass(frozen=True)
class ServicePolicy:
    """Admission-control and scheduling knobs of a :class:`QueryService`.

    Attributes
    ----------
    max_queue:
        Pending (admitted, not yet executing) queries the service
        holds before :meth:`QueryService.submit` raises
        :class:`ServiceOverloadedError`.
    max_inflight:
        Worker threads, i.e. batches executing concurrently.
    batch_max:
        Most queries fused into one shared-scan batch.
        ``1`` turns batching off -- every query executes alone.
    """

    max_queue: int = 64
    max_inflight: int = 4
    batch_max: int = 8

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")


class QueryTicket:
    """Handle for one admitted query; resolves to a result or error."""

    def __init__(self, query: RangeQuery) -> None:
        self.query = query
        self._done = threading.Event()
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None
        #: scheduling diagnostics, filled when the query completes:
        #: ``queue_wait_s``, ``batch_size``, ``batch_pos``,
        #: ``shared_reads``, ``shared_bytes``, and -- for
        #: ``strategy='auto'`` queries -- ``selected_strategy``
        self.service_info: Dict[str, object] = {}
        self.submitted_at = time.monotonic()
        #: when the scheduler moved this ticket out of the pending queue
        self.dequeued_at = self.submitted_at

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until the query finishes; re-raises its error."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query not finished within {timeout}s (still queued or executing)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(
        self,
        result: Optional[QueryResult],
        error: Optional[BaseException],
        info: Optional[Dict[str, float]] = None,
    ) -> None:
        self._result = result
        self._error = error
        if info:
            self.service_info.update(info)
        self._done.set()


#: Counter names exposed by :meth:`QueryService.stats` (all
#: monotonically increasing since service start).
SERVICE_COUNTERS = (
    "submitted",
    "rejected",
    "completed",
    "failed",
    "batches",
    "batched_queries",
    "shared_reads",
    "shared_bytes",
)


class QueryService:
    """A concurrent query front end over one :class:`ADR` instance.

    Use as a context manager; submission is non-blocking (a
    :class:`QueryTicket` comes back immediately), ``execute`` is the
    blocking convenience::

        with QueryService(adr) as service:
            tickets = [service.submit(q) for q in queries]
            results = [t.result(timeout=60) for t in tickets]
    """

    def __init__(
        self,
        adr: ADR,
        policy: Optional[ServicePolicy] = None,
        telemetry: Optional[TelemetryLog] = None,
    ) -> None:
        self.adr = adr
        self.policy = policy if policy is not None else ServicePolicy()
        #: when set, every cleanly completed query appends a
        #: :class:`~repro.planner.telemetry.MeasuredRun` here, so the
        #: cost model behind ``strategy='auto'`` can be (re)calibrated
        #: from live traffic (``repro.planner.calibrate``).  Appends are
        #: thread-safe; recording failures never fail the query.
        self.telemetry = telemetry
        self._cv = threading.Condition()
        self._pending: Deque[QueryTicket] = deque()
        #: dataset -> its batch while that batch still takes arrivals
        #: (at most one open batch per dataset; guarded by ``_cv``)
        self._open: Dict[str, List[QueryTicket]] = {}
        self._inflight = 0
        self._closed = False
        self._counters: Dict[str, int] = {name: 0 for name in SERVICE_COUNTERS}
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"adr-query-worker-{i}", daemon=True
            )
            for i in range(self.policy.max_inflight)
        ]
        for t in self._workers:
            t.start()

    # -- client surface ----------------------------------------------------

    def submit(self, query: RangeQuery) -> QueryTicket:
        """Admit *query* or raise.

        Raises :class:`ServiceOverloadedError` when ``max_queue``
        queries are already pending, :class:`ServiceClosedError` after
        :meth:`close`.
        """
        ticket = QueryTicket(query)
        with self._cv:
            if self._closed:
                raise ServiceClosedError("query service is closed")
            if len(self._pending) >= self.policy.max_queue:
                self._counters["rejected"] += 1
                depth = len(self._pending)
                # Deterministic back-off hint: 10 ms scaled by how far
                # over capacity the backlog sits relative to the worker
                # pool.  Heuristic, not a guarantee -- but stable for a
                # given policy, so tests and routers can rely on it.
                hint = round(0.01 * (1.0 + depth / self.policy.max_inflight), 4)
                raise ServiceOverloadedError(
                    f"pending queue full ({self.policy.max_queue} queries); "
                    "retry with back-off",
                    queue_depth=depth,
                    retry_after_s=hint,
                )
            self._pending.append(ticket)
            self._counters["submitted"] += 1
            self._cv.notify()
        return ticket

    def execute(
        self, query: RangeQuery, timeout: Optional[float] = None
    ) -> QueryResult:
        """Submit and block for the result (errors re-raise here)."""
        return self.submit(query).result(timeout)

    def stats(self) -> Dict[str, object]:
        """JSON-safe service counters: queue depth, in-flight queries,
        batches formed, shared reads/bytes, payload-cache totals."""
        with self._cv:
            out: Dict[str, object] = {name: int(v) for name, v in self._counters.items()}
            out["queue_depth"] = len(self._pending)
            out["in_flight"] = self._inflight
        out["policy"] = {
            "max_queue": self.policy.max_queue,
            "max_inflight": self.policy.max_inflight,
            "batch_max": self.policy.batch_max,
        }
        if self.adr.cache is not None:
            cache = {str(k): int(v) for k, v in self.adr.cache.stats().items()}
            lookups = cache.get("chunk_hits", 0) + cache.get("chunk_misses", 0)
            cache["chunk_hit_rate"] = (
                cache.get("chunk_hits", 0) / lookups if lookups else 0.0
            )
            out["cache"] = cache
        return out

    def close(self, timeout: float = 10.0) -> None:
        """Stop admitting, drain the pending queue, join the workers."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        for t in self._workers:
            t.join(timeout=timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduler ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            finally:
                with self._cv:
                    self._close_batch_locked(batch)
                    self._inflight -= len(batch)
                    self._cv.notify_all()

    def _next_batch(self) -> Optional[List[QueryTicket]]:
        """Open a batch on the oldest pending query whose dataset has no
        open batch (``None`` on shutdown, once the queue is drained).

        The batch takes the same-dataset backlog with it and is marked
        in flight before the lock is released.
        """
        with self._cv:
            while True:
                first = next(
                    (t for t in self._pending if t.query.dataset not in self._open),
                    None,
                )
                if first is not None:
                    break
                if self._closed and not self._pending:
                    return None
                self._cv.wait(timeout=0.1)
            batch: List[QueryTicket] = []
            self._open[first.query.dataset] = batch
            self._gather_locked(first.query.dataset, batch)
        return batch

    def _gather_locked(self, dataset: str, batch: List[QueryTicket]) -> None:
        """Move pending *dataset* tickets into its open *batch* (lock held).

        Each ticket is stamped and counted in flight as it leaves the
        queue.  The batch stays open -- its worker plans the newcomers
        and gathers again -- only while it grows and is below the limit;
        a closed batch takes nothing.
        """
        if self._open.get(dataset) is not batch:
            return
        limit = self.policy.batch_max
        now = time.monotonic()
        size = len(batch)
        keep: Deque[QueryTicket] = deque()
        while self._pending and len(batch) < limit:
            ticket = self._pending.popleft()
            if ticket.query.dataset == dataset:
                ticket.dequeued_at = now
                batch.append(ticket)
            else:
                keep.append(ticket)
        while keep:
            self._pending.appendleft(keep.pop())
        self._inflight += len(batch) - size
        if len(batch) == size or len(batch) >= limit:
            self._close_batch_locked(batch)

    def _close_batch_locked(self, batch: List[QueryTicket]) -> None:
        """Stop *batch* taking arrivals, if it still is (lock held): its
        dataset's pending queries are another worker's to start on."""
        dataset = batch[0].query.dataset
        if self._open.get(dataset) is batch:
            del self._open[dataset]
            if self._pending:
                self._cv.notify_all()

    # -- execution ---------------------------------------------------------

    def _run_batch(self, batch: List[QueryTicket]) -> None:
        dataset = batch[0].query.dataset
        planned: List[
            Tuple[QueryTicket, QueryPlan, Optional[StrategyChoice]]
        ] = []
        # Planning is the batching window.  A round ends at the batch's
        # last ticket; what arrived meanwhile then joins, so *batch*
        # grows under this loop until a round adds nothing.
        for ticket in batch:
            try:
                plan, choice = self.adr.plan_with_choice(ticket.query)
                planned.append((ticket, plan, choice))
            except Exception as e:  # planning errors resolve one ticket
                self._finish(ticket, None, e)
            if ticket is batch[-1]:
                with self._cv:
                    self._gather_locked(dataset, batch)
        if not planned:
            return

        # Everything past planning runs under one umbrella handler: a
        # scheduler-level failure must resolve *every* still-pending
        # ticket -- an unresolved ticket is a client hung in ``result()``
        # forever.
        try:
            with self._cv:
                self._counters["batches"] += 1
                if len(planned) > 1:
                    self._counters["batched_queries"] += len(planned)
            for pos, (ticket, plan, choice) in enumerate(planned):
                try:
                    result = self.adr.execute(ticket.query, plan=(plan, choice))
                except Exception as e:
                    self._finish(ticket, None, e)
                    continue
                info = {
                    "queue_wait_s": round(ticket.dequeued_at - ticket.submitted_at, 6),
                    "batch_size": len(planned),
                    "batch_pos": pos,
                    "shared_reads": int(result.shared_reads),
                    "shared_bytes": int(result.shared_bytes),
                }
                if choice is not None:
                    info["selected_strategy"] = choice.selected
                self._record_telemetry(plan, result)
                self._finish(ticket, result, None, info)
        except Exception as e:
            for ticket, _, _ in planned:
                if not ticket.done():
                    self._finish(ticket, None, e)

    def _record_telemetry(self, plan: QueryPlan, result: QueryResult) -> None:
        """Harvest a clean completed query into the telemetry log.

        Only clean runs are worth fitting: degraded executions (chunk
        errors, partial completeness) have phase times that do not
        reflect the plan's work.  Recording failures are swallowed --
        telemetry is an observer, never a reason to fail the query.
        """
        if self.telemetry is None:
            return
        if result.chunk_errors or result.completeness < 1.0:
            return
        if not result.phase_times:
            return
        try:
            self.telemetry.append(MeasuredRun.from_result(plan, result))
        except Exception:  # noqa: ADR401 -- telemetry is best-effort; the query result is already complete and unaffected
            pass

    def _finish(
        self,
        ticket: QueryTicket,
        result: Optional[QueryResult],
        error: Optional[BaseException],
        info: Optional[Dict[str, float]] = None,
    ) -> None:
        with self._cv:
            if error is not None:
                self._counters["failed"] += 1
            else:
                self._counters["completed"] += 1
                assert result is not None
                self._counters["shared_reads"] += int(result.shared_reads)
                self._counters["shared_bytes"] += int(result.shared_bytes)
        ticket._resolve(result, error, info)
