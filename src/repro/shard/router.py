"""Scatter/gather query router over shard servers.

The paper's deployment: "the back-end processes carry out retrieval
and processing of the data, and the partial results are combined".
:class:`ShardRouter` is the front of that deployment -- it plans a
query *once* against the global :class:`~repro.shard.topology.ShardTopology`
(spatial selection, output projection, the same empty-selection errors
a single-process ADR raises), fans the query out to every shard owning
a selected chunk, and merges the returned raw accumulators with the
FRA global-combine semantics
(:func:`repro.shard.partial.combine_partials`).

Robustness is the router's job, not the shards':

- **Deadlines.**  Every shard fetch has a wall-clock budget
  (``RouterPolicy.shard_deadline_s``) covering all its attempts; each
  socket operation inherits the remaining budget, so no query ever
  hangs on a dead peer.
- **Retry / failover.**  Transient fetch failures (connection refused,
  torn frame, timeout, an ``overloaded`` rejection) are retried on the
  endpoint's address cycle -- primary first, then replicas -- under
  the backoff schedule of a :class:`~repro.store.retry.RetryPolicy`
  with injectable clock/sleep.  ``bad_request`` is never retried: the
  query itself is at fault.
- **Degrade.**  Under ``on_error='degrade'`` a shard that stays dead
  is recorded in ``QueryResult.shard_errors`` and its planned chunks
  in ``chunk_errors`` (dataset-global ids); ``completeness`` accounts
  for both shard- and chunk-level loss.  Under ``on_error='raise'``
  any dead shard raises :class:`ShardUnavailableError`.
- **Hedging.**  With ``hedge_after_s`` set, a straggling primary's
  sub-plan is re-dispatched to its replicas after that delay and the
  first response wins (the loser is abandoned, never joined).

See ``docs/sharding.md`` for the merged-counter and completeness
contracts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.output_grid import PlacedGrids
from repro.decluster.hilbert import HilbertDeclusterer
from repro.frontend.protocol import DeadlineExceededError, ProtocolError
from repro.frontend.query import RangeQuery
from repro.frontend.service import RemoteQueryError
from repro.machine.config import MachineConfig
from repro.planner.problem import select_chunks
from repro.planner.select import StrategyChoice, choose_strategy, is_auto
from repro.runtime.engine import QueryResult, assemble_result
from repro.runtime.phases import Tally, merge_tallies
from repro.shard.partial import combine_partials
from repro.shard.server import ShardClient
from repro.shard.topology import ShardTopology
from repro.store.retry import RetryPolicy

__all__ = [
    "ShardEndpoint",
    "RouterPolicy",
    "ScatterPlan",
    "ShardRouter",
    "ShardUnavailableError",
]

#: Extra seconds the gather waits past a shard's deadline before
#: declaring its fetch thread lost -- covers scheduling slop between
#: the socket timeout firing and the thread recording its error.
_JOIN_GRACE_S = 2.0


class ShardUnavailableError(RuntimeError):
    """A shard stayed unreachable and the query demanded completeness.

    Raised under ``on_error='raise'``; :attr:`shard_errors` maps each
    failed shard id to its last error description.
    """

    def __init__(self, message: str, shard_errors: Dict[int, str]) -> None:
        super().__init__(message)
        self.shard_errors = dict(shard_errors)


@dataclass(frozen=True)
class ShardEndpoint:
    """Where one shard is reachable: a primary address plus replicas.

    Addresses are opaque to the router -- whatever the deployment's
    ``client_factory`` accepts (``(host, port)`` tuples for the socket
    factory).  Replicas must serve the *same* chunk shard.
    """

    shard_id: int
    address: Any
    replicas: Tuple[Any, ...] = ()

    @property
    def addresses(self) -> Tuple[Any, ...]:
        return (self.address,) + tuple(self.replicas)


def _default_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=2,
        base_delay=0.05,
        retry_on=(OSError, ProtocolError),
    )


@dataclass(frozen=True)
class RouterPolicy:
    """Fault-handling knobs of a :class:`ShardRouter`.

    Attributes
    ----------
    shard_deadline_s:
        Wall-clock budget for one shard's fetch, covering every retry
        and failover attempt; an exhausted budget marks the shard dead.
    connect_timeout_s:
        TCP connect budget per attempt (further capped by the
        remaining shard deadline).
    retry:
        Backoff schedule and retryable-error classes for per-shard
        attempts; attempts cycle through the endpoint's address list,
        so ``max_attempts >= 2`` gives automatic replica failover.
    hedge_after_s:
        When set and a shard has replicas, a straggler's sub-plan is
        re-dispatched to the replicas after this many seconds and the
        first response wins.  ``None`` disables hedging.
    """

    shard_deadline_s: float = 30.0
    connect_timeout_s: float = 5.0
    retry: RetryPolicy = field(default_factory=_default_retry)
    hedge_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive")
        if self.connect_timeout_s <= 0:
            raise ValueError("connect_timeout_s must be positive")
        if self.hedge_after_s is not None and self.hedge_after_s < 0:
            raise ValueError("hedge_after_s must be >= 0")


@dataclass
class ScatterPlan:
    """One query's scatter: which shards serve which global chunks.

    ``query`` always carries a *concrete* strategy: when the client
    submitted ``strategy='auto'``, the router resolved it once against
    the global topology before scattering (every shard must run the
    same strategy or the partial accumulators would not be comparable),
    and ``choice`` keeps the priced ranking behind that decision.
    """

    query: RangeQuery
    output_ids: np.ndarray
    #: shard id -> dataset-global input chunk ids it must serve
    in_ids_by_shard: Dict[int, np.ndarray]
    #: the auto-selection audit trail; ``None`` for explicit strategies
    choice: Optional[StrategyChoice] = None

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self.in_ids_by_shard)

    @property
    def n_planned(self) -> int:
        return sum(len(ids) for ids in self.in_ids_by_shard.values())


def _socket_client_factory(address: Any, timeout: float) -> ShardClient:
    host, port = address
    return ShardClient(host, port, timeout=timeout)


class ShardRouter:
    """Scatter/gather front end over one sharded dataset.

    ``client_factory(address, timeout)`` builds a fresh client per
    attempt (a failed attempt's connection state is never reused);
    ``clock``/``sleep`` are injectable for deterministic retry tests.
    """

    def __init__(
        self,
        topology: ShardTopology,
        endpoints: Sequence[ShardEndpoint],
        policy: Optional[RouterPolicy] = None,
        client_factory: Callable[[Any, float], ShardClient] = _socket_client_factory,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        machine: Optional[MachineConfig] = None,
        cost_model=None,
    ) -> None:
        self.topology = topology
        self.policy = policy if policy is not None else RouterPolicy()
        # Pricing for strategy='auto': the router models the deployment
        # as one machine with a processor per shard (each shard is an
        # independent process owning a disk farm).  A calibrated model
        # fitted from this deployment's telemetry can be passed instead.
        if machine is None:
            from repro.machine.presets import ibm_sp

            machine = ibm_sp(topology.n_shards)
        self.machine = machine
        if cost_model is None:
            from repro.frontend.adr import DEFAULT_COSTS
            from repro.planner.costmodel import CostModel

            cost_model = CostModel(machine, DEFAULT_COSTS)
        self.cost_model = cost_model
        # output grids as the pricing problem places them: one
        # "processor" per shard, drawn once per grid
        self._placed_grids = PlacedGrids(HilbertDeclusterer(), topology.n_shards)
        self.endpoints: Dict[int, ShardEndpoint] = {}
        for ep in endpoints:
            if ep.shard_id in self.endpoints:
                raise ValueError(f"duplicate endpoint for shard {ep.shard_id}")
            self.endpoints[ep.shard_id] = ep
        missing = set(range(topology.n_shards)) - set(self.endpoints)
        if missing:
            raise ValueError(f"no endpoint for shards {sorted(missing)}")
        self._client_factory = client_factory
        self._clock = clock
        self._sleep = sleep

    # -- planning -------------------------------------------------------

    def plan(self, query: RangeQuery) -> ScatterPlan:
        """Plan the scatter once, router-side.

        ``strategy='auto'`` is resolved here, once, against the global
        topology -- the scattered sub-queries all carry the concrete
        winning strategy, so every shard partitions its work the same
        way and the partial accumulators merge consistently.

        Empty selections/projections raise from the builder
        ``ADR.build_problem`` shares, so clients cannot tell a router
        from a standalone server.
        """
        topo = self.topology
        if query.dataset != topo.dataset:
            raise ValueError(
                f"query targets dataset {query.dataset!r}; this router "
                f"serves {topo.dataset!r}"
            )
        # The scatter is *not* pruned (see ``select_chunks``): prunable
        # chunks stay planned and are only listed for pricing.
        selection = select_chunks(
            query, topo.space, topo.index, topo.chunks, self._placed_grids,
            drop_pruned=False,
        )
        in_ids = selection.in_ids
        shard_of = topo.assignment.shard_of[in_ids]

        choice: Optional[StrategyChoice] = None
        if is_auto(query.strategy):
            # Priced on the global problem: one "processor" per shard,
            # inputs placed on their owning shard.
            problem = selection.problem(
                topo.n_shards, self.machine.memory_per_proc, input_node=shard_of
            )
            choice = choose_strategy(problem, self.cost_model)
            query = replace(query, strategy=choice.selected)

        by_shard = {
            int(sid): in_ids[shard_of == sid] for sid in np.unique(shard_of)
        }
        return ScatterPlan(
            query=query, output_ids=selection.out_ids,
            in_ids_by_shard=by_shard, choice=choice,
        )

    # -- execution ------------------------------------------------------

    def execute(self, query: RangeQuery) -> QueryResult:
        """Scatter *query*, gather partials, globally combine."""
        plan = self.plan(query)
        partials, shard_errors = self._scatter(plan)
        if shard_errors:
            bad = [
                e for e in shard_errors.values()
                if isinstance(e, RemoteQueryError) and e.code == "bad_request"
            ]
            if bad:
                # The query itself is at fault; no amount of failover
                # or degradation changes that.
                raise bad[0]
            if query.on_error != "degrade":
                raise ShardUnavailableError(
                    "shards failed under on_error='raise': "
                    + "; ".join(
                        f"shard {sid}: {e}"
                        for sid, e in sorted(shard_errors.items())
                    ),
                    {sid: str(e) for sid, e in shard_errors.items()},
                )
        return self._merge(plan, partials, shard_errors)

    def _scatter(
        self, plan: ScatterPlan
    ) -> Tuple[List[Tuple[int, QueryResult]], Dict[int, BaseException]]:
        """Fetch every relevant shard's partial, one thread each."""
        lock = threading.Lock()
        partials: List[Tuple[int, QueryResult]] = []
        failures: Dict[int, BaseException] = {}

        def fetch(sid: int) -> None:
            try:
                result = self._fetch_shard(self.endpoints[sid], plan.query)
            except Exception as e:
                with lock:
                    failures[sid] = e
                return
            with lock:
                partials.append((sid, result))

        threads = [
            threading.Thread(
                target=fetch, args=(sid,), name=f"shard-fetch-{sid}", daemon=True
            )
            for sid in plan.shard_ids
        ]
        deadline_at = self._clock() + self.policy.shard_deadline_s + _JOIN_GRACE_S
        for t in threads:
            t.start()
        for sid, t in zip(plan.shard_ids, threads):
            t.join(timeout=max(0.0, deadline_at - self._clock()))
            if t.is_alive():
                with lock:
                    failures.setdefault(
                        sid,
                        DeadlineExceededError(
                            f"shard {sid} fetch still running past its "
                            f"{self.policy.shard_deadline_s}s deadline"
                        ),
                    )
        with lock:
            # A straggler thread may still record a late result; snapshot
            # under the lock and keep only shards not already failed.
            live = [(sid, r) for sid, r in partials if sid not in failures]
            return live, dict(failures)

    # -- per-shard fetch ------------------------------------------------

    def _fetch_shard(
        self, endpoint: ShardEndpoint, query: RangeQuery
    ) -> QueryResult:
        deadline_at = self._clock() + self.policy.shard_deadline_s
        hedge = self.policy.hedge_after_s
        if hedge is None or not endpoint.replicas:
            return self._fetch_chain(endpoint.addresses, query, deadline_at)
        return self._fetch_hedged(endpoint, query, deadline_at)

    def _fetch_chain(
        self,
        addresses: Tuple[Any, ...],
        query: RangeQuery,
        deadline_at: float,
    ) -> QueryResult:
        """Retry/failover loop cycling *addresses* under one deadline."""
        retry = self.policy.retry
        last: Optional[BaseException] = None
        for attempt in range(retry.max_attempts):
            remaining = deadline_at - self._clock()
            if remaining <= 0:
                break
            address = addresses[attempt % len(addresses)]
            client: Optional[ShardClient] = None
            try:
                client = self._client_factory(
                    address, min(self.policy.connect_timeout_s, remaining)
                )
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    break
                return client.query_partial(query, deadline=remaining)
            except RemoteQueryError as e:
                if e.code == "bad_request":
                    raise
                last = e  # overloaded / draining / internal: try elsewhere
            except retry.retry_on as e:
                last = e
            finally:
                if client is not None:
                    client.close()
            if attempt + 1 < retry.max_attempts:
                pause = retry.delay(attempt)
                if self._clock() + pause < deadline_at:
                    self._sleep(pause)
        if last is not None:
            raise last
        raise DeadlineExceededError(
            f"shard fetch deadline of {self.policy.shard_deadline_s}s "
            "expired before any attempt completed"
        )

    def _fetch_hedged(
        self, endpoint: ShardEndpoint, query: RangeQuery, deadline_at: float
    ) -> QueryResult:
        """Primary first; re-dispatch to replicas after ``hedge_after_s``.

        The loser is abandoned, never joined -- hedging exists to stop
        waiting on stragglers.  Both chains share the shard deadline.
        """
        cv = threading.Condition()
        state: Dict[str, Any] = {"result": None, "errors": [], "open": 0}

        def run(addresses: Tuple[Any, ...]) -> None:
            try:
                result = self._fetch_chain(addresses, query, deadline_at)
            except Exception as e:
                with cv:
                    state["errors"].append(e)
                    state["open"] -= 1
                    cv.notify_all()
                return
            with cv:
                if state["result"] is None:
                    state["result"] = result
                state["open"] -= 1
                cv.notify_all()

        def settled() -> bool:
            return state["result"] is not None or state["open"] == 0

        with cv:
            state["open"] = 1
            threading.Thread(
                target=run, args=((endpoint.address,),),
                name=f"shard-hedge-primary-{endpoint.shard_id}", daemon=True,
            ).start()
            cv.wait_for(settled, timeout=self.policy.hedge_after_s)
            if state["result"] is None and state["open"] > 0:
                # Primary is straggling: hedge to the replicas.
                state["open"] += 1
                threading.Thread(
                    target=run, args=(tuple(endpoint.replicas),),
                    name=f"shard-hedge-replica-{endpoint.shard_id}", daemon=True,
                ).start()
            cv.wait_for(
                settled,
                timeout=max(0.0, deadline_at - self._clock()) + _JOIN_GRACE_S,
            )
            if state["result"] is not None:
                return state["result"]
            if state["errors"]:
                raise state["errors"][0]
        raise DeadlineExceededError(
            f"shard {endpoint.shard_id} answered on no address within "
            f"its {self.policy.shard_deadline_s}s deadline"
        )

    # -- merge ----------------------------------------------------------

    def _merge(
        self,
        plan: ScatterPlan,
        partials: List[Tuple[int, QueryResult]],
        shard_failures: Dict[int, BaseException],
    ) -> QueryResult:
        query = plan.query
        values, router_combines = combine_partials(
            query.spec(), query.grid, plan.output_ids, partials
        )

        # The contract's merge over one tally per shard plus the router's
        # own combines.  A live shard's local chunk errors translate to
        # dataset-global ids through its global-id spine; a dead shard is
        # charged every chunk it was planned to serve.
        assignment = self.topology.assignment
        tallies = [Tally(n_combines=router_combines)]
        for sid, r in sorted(partials, key=lambda item: item[0]):
            gids = assignment.global_ids(sid)
            tally = Tally.of(r)
            tally.chunk_errors = {
                int(gids[int(local)]): str(msg) for local, msg in r.chunk_errors.items()
            }
            tallies.append(tally)
        shard_errors: Dict[int, str] = {}
        for sid in sorted(shard_failures):
            msg = f"{type(shard_failures[sid]).__name__}: {shard_failures[sid]}"
            shard_errors[sid] = msg
            tallies.append(Tally(chunk_errors={
                int(gid): f"shard {sid} unavailable: {msg}"
                for gid in plan.in_ids_by_shard[sid]
            }))
        tally = merge_tallies(tallies)

        # Completeness over the *effective* plan: every contacted
        # shard's spatially planned chunks, minus what live shards
        # provably pruned (a dead shard's chunks stay in the
        # denominator unpruned -- conservative; see docs/sharding.md).
        n_effective = plan.n_planned - tally.chunks_pruned
        completeness = (
            1.0 - len(tally.chunk_errors) / n_effective if n_effective > 0 else 1.0
        )
        choice = plan.choice
        return assemble_result(
            None, dict(zip(plan.output_ids.tolist(), values)), [tally],
            strategy=query.strategy.upper(),
            n_tiles=max((r.n_tiles for _, r in partials), default=0),
            completeness=completeness,
            shard_errors=shard_errors,
            selected_strategy=choice.selected if choice is not None else "",
            strategy_ranking=choice.ranking_dict() if choice is not None else {},
        )

    # -- liveness -------------------------------------------------------

    def health(self, deadline: Optional[float] = None) -> Dict[int, Dict[str, Any]]:
        """Probe every shard's primary; errors become ``{"status": ...}``."""
        budget = deadline if deadline is not None else self.policy.connect_timeout_s
        out: Dict[int, Dict[str, Any]] = {}
        for sid in sorted(self.endpoints):
            ep = self.endpoints[sid]
            try:
                client = self._client_factory(ep.address, budget)
                try:
                    out[sid] = client.health(deadline=budget)
                finally:
                    client.close()
            except (OSError, ProtocolError, RemoteQueryError) as e:
                out[sid] = {
                    "status": "unreachable",
                    "error": f"{type(e).__name__}: {e}",
                }
        return out
