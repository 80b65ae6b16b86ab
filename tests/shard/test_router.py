"""Tests for the scatter/gather router: planning, retry/failover,
degrade-vs-raise semantics, overload back-off, drain and health
probes."""

import time

import numpy as np
import pytest

from helpers import make_functional_setup
from repro.dataset.chunk import Chunk
from repro.frontend.adr import ADR
from repro.frontend.protocol import DeadlineExceededError, ProtocolError
from repro.frontend.query import RangeQuery
from repro.frontend.service import RemoteQueryError
from repro.machine.config import MachineConfig
from repro.shard.cluster import ShardCluster, _LocalShardClient
from repro.shard.router import (
    RouterPolicy,
    ShardEndpoint,
    ShardRouter,
    ShardUnavailableError,
)
from repro.store.retry import RetryPolicy
from repro.util.geometry import Rect
from repro.util.units import MB

N_SHARDS = 3


def fast_policy(max_attempts=2):
    return RouterPolicy(
        shard_deadline_s=10.0,
        connect_timeout_s=2.0,
        retry=RetryPolicy(
            max_attempts=max_attempts,
            base_delay=0.01,
            retry_on=(OSError, ProtocolError),
        ),
    )


@pytest.fixture
def deployment(rng):
    in_space, _, chunks, mapping, grid = make_functional_setup(rng)
    cluster = ShardCluster.build(
        "d", in_space, chunks, n_shards=N_SHARDS,
        router_policy=fast_policy(),
    )
    solo = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
    solo.load("d", in_space, chunks)

    def query(region=Rect((0, 0), (10, 10)), **kw):
        kw.setdefault("aggregation", "mean")
        kw.setdefault("strategy", "FRA")
        return RangeQuery("d", region, mapping, grid, **kw)

    with cluster:
        yield cluster, solo, query


def local_endpoints():
    return [
        ShardEndpoint(shard_id=sid, address=sid) for sid in range(N_SHARDS)
    ]


class TestRouterValidation:
    def test_duplicate_endpoint_rejected(self, deployment):
        cluster, _, _ = deployment
        eps = local_endpoints()
        with pytest.raises(ValueError, match="duplicate endpoint"):
            ShardRouter(cluster.topology, eps + [eps[0]])

    def test_missing_endpoint_rejected(self, deployment):
        cluster, _, _ = deployment
        with pytest.raises(ValueError, match="no endpoint for shards \\[2\\]"):
            ShardRouter(cluster.topology, local_endpoints()[:-1])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RouterPolicy(shard_deadline_s=0)
        with pytest.raises(ValueError):
            RouterPolicy(connect_timeout_s=-1)


class TestPlanning:
    def test_plan_covers_every_selected_chunk_once(self, deployment):
        cluster, _, query = deployment
        plan = cluster.router.plan(query())
        gathered = np.sort(
            np.concatenate(list(plan.in_ids_by_shard.values()))
        )
        assert len(gathered) == plan.n_planned
        assert len(np.unique(gathered)) == len(gathered)
        for sid, gids in plan.in_ids_by_shard.items():
            assert np.all(
                cluster.topology.assignment.shard_of[gids] == sid
            )

    def test_full_region_scatters_to_every_shard(self, deployment):
        cluster, _, query = deployment
        plan = cluster.router.plan(query())
        assert plan.shard_ids == list(range(N_SHARDS))

    def test_wrong_dataset_rejected_router_side(self, deployment):
        cluster, _, query = deployment
        q = query()
        bad = RangeQuery(
            "elsewhere", q.region, q.mapping, q.grid,
            aggregation="mean", strategy="FRA",
        )
        with pytest.raises(ValueError, match="this router"):
            cluster.router.plan(bad)


class TestAutoStrategy:
    """``strategy='auto'`` resolves once, router-side, on the global
    topology: every shard must run the same concrete strategy or the
    partial accumulators would not be comparable."""

    def test_plan_resolves_auto_before_scatter(self, deployment):
        cluster, _, query = deployment
        plan = cluster.router.plan(query(strategy="auto"))
        assert plan.choice is not None
        assert plan.query.strategy == plan.choice.selected
        assert plan.query.strategy in ("FRA", "SRA", "DA", "HYBRID")
        totals = [est.total for _, est in plan.choice.ranking]
        assert totals == sorted(totals)

    def test_router_places_an_output_grid_once(self, deployment, monkeypatch):
        from repro.aggregation.output_grid import OutputGrid

        cluster, _, query = deployment
        first = cluster.router.plan(query(strategy="auto"))
        monkeypatch.setattr(
            OutputGrid, "chunkset",
            lambda self: pytest.fail("the grid's chunkset was rebuilt for a second plan"),
        )
        again = cluster.router.plan(query(strategy="auto"))
        assert again.output_ids.tolist() == first.output_ids.tolist()
        assert again.choice.estimates == first.choice.estimates

    def test_auto_matches_solo_execution(self, deployment):
        cluster, solo, query = deployment
        got = cluster.execute(query(strategy="auto"))
        assert got.selected_strategy in ("FRA", "SRA", "DA", "HYBRID")
        assert got.strategy_ranking
        assert not got.shard_errors and got.completeness == 1.0
        want = solo.execute(query(strategy=got.selected_strategy))
        assert got.output_ids.tolist() == want.output_ids.tolist()
        for a, b in zip(got.chunk_values, want.chunk_values):
            np.testing.assert_allclose(a, b, equal_nan=True)

    def test_local_and_wire_agree_on_auto(self, deployment):
        cluster, _, query = deployment
        wire = cluster.execute(query(strategy="auto"))
        local = cluster.execute_local(query(strategy="auto"))
        assert wire.selected_strategy == local.selected_strategy
        assert wire.output_ids.tolist() == local.output_ids.tolist()
        for a, b in zip(wire.chunk_values, local.chunk_values):
            assert np.array_equal(a, b, equal_nan=True)

    def test_fixed_strategy_has_no_choice(self, deployment):
        cluster, _, query = deployment
        plan = cluster.router.plan(query())
        assert plan.choice is None
        got = cluster.execute(query())
        assert got.selected_strategy == ""
        assert got.strategy_ranking == {}


class TestScatterGather:
    def test_wire_equals_local_equals_solo(self, deployment):
        cluster, solo, query = deployment
        q = query()
        wire = cluster.execute(q)
        local = cluster.execute_local(q)
        want = solo.execute(q)
        assert wire.output_ids.tolist() == local.output_ids.tolist()
        for a, b in zip(wire.chunk_values, local.chunk_values):
            assert np.array_equal(a, b, equal_nan=True)
        assert wire.output_ids.tolist() == want.output_ids.tolist()
        for a, b in zip(wire.chunk_values, want.chunk_values):
            np.testing.assert_allclose(a, b, equal_nan=True)
        assert not wire.shard_errors and wire.completeness == 1.0

    def test_merged_counters_sum_over_shards(self, deployment):
        cluster, solo, query = deployment
        q = query()
        got = cluster.execute(q)
        want = solo.execute(q)
        # Every selected chunk is read exactly once somewhere.
        assert got.n_reads == want.n_reads
        assert got.bytes_read == want.bytes_read
        assert got.n_aggregations == want.n_aggregations
        # The global combine adds one fold per (live shard, output).
        assert got.n_combines > want.n_combines


class TestDegradeAndRaise:
    def test_crashed_shard_degrades(self, deployment):
        cluster, _, query = deployment
        cluster.crash_shard(0)
        q = query(on_error="degrade")
        got = cluster.execute(q)
        assert set(got.shard_errors) == {0}
        assert 0.0 < got.completeness < 1.0
        planned = cluster.router.plan(q).in_ids_by_shard[0]
        for gid in planned:
            assert "shard 0 unavailable" in got.chunk_errors[int(gid)]
        # The degraded wire run equals the degraded local expectation.
        want = cluster.execute_local(q, down=frozenset({0}))
        assert got.output_ids.tolist() == want.output_ids.tolist()
        for a, b in zip(got.chunk_values, want.chunk_values):
            assert np.array_equal(a, b, equal_nan=True)
        assert got.completeness == want.completeness

    def test_crashed_shard_raises_by_default(self, deployment):
        cluster, _, query = deployment
        cluster.crash_shard(1)
        with pytest.raises(ShardUnavailableError) as exc:
            cluster.execute(query())
        assert set(exc.value.shard_errors) == {1}

    def test_drained_shard_degrades(self, deployment):
        cluster, _, query = deployment
        cluster.drain_shard(2)
        got = cluster.execute(query(on_error="degrade"))
        assert set(got.shard_errors) == {2}
        assert "shard_unavailable" in got.shard_errors[2]


@pytest.fixture
def pruned_deployment(rng):
    """A deployment whose values follow x, so a ``where`` bound keeps
    exactly the chunks it names: ``keep_one`` keeps the one chunk
    holding the smallest value, on shard ``kept``, and otherwise the
    bound keeps nothing."""
    in_space, _, chunks, mapping, grid = make_functional_setup(rng)
    chunks = [Chunk(c.meta, c.coords, c.coords[:, :1] * 10.0) for c in chunks]
    cluster = ShardCluster.build(
        "d", in_space, chunks, n_shards=N_SHARDS, router_policy=fast_policy(),
    )
    solo = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
    solo.load("d", in_space, chunks)
    mins = [float(c.values.min()) for c in chunks]
    lowest = min(mins)
    kept = int(cluster.topology.assignment.shard_of[mins.index(lowest)])

    def query(keep_one=True, **kw):
        bound = lowest if keep_one else lowest - 1.0
        return RangeQuery(
            "d", Rect((0, 0), (10, 10)), mapping, grid, aggregation="sum",
            strategy="FRA", where={0: (None, bound)}, **kw,
        )

    with cluster:
        yield cluster, solo, query, kept


class TestPrunedSelection:
    """The router prunes as ``ADR.build_problem`` does and states the
    pruning counters and the completeness denominator from its own
    selection; it contacts only shards that keep a selected chunk."""

    def test_predicate_pruning_everything_raises_the_adr_error(self, pruned_deployment):
        cluster, solo, query, _ = pruned_deployment
        q = query(keep_one=False)
        with pytest.raises(ValueError, match="after value-synopsis pruning") as want:
            solo.execute(q)
        with pytest.raises(ValueError) as got:
            cluster.execute(q)
        assert str(got.value) == str(want.value)

    def test_fully_pruned_shards_keep_the_solo_counters(self, pruned_deployment):
        cluster, solo, query, kept = pruned_deployment
        q = query()
        got, want = cluster.execute(q), solo.execute(q)
        assert want.chunks_pruned == len(cluster.topology.assignment) - 1
        assert (got.chunks_pruned, got.bytes_pruned) == (want.chunks_pruned, want.bytes_pruned)
        assert got.n_reads == want.n_reads == 1
        for a, b in zip(got.chunk_values, want.chunk_values):
            np.testing.assert_allclose(a, b, equal_nan=True)
        assert cluster.router.plan(q).shard_ids == [kept]

    def test_dead_shard_completeness_counts_selected_chunks_only(self, pruned_deployment):
        cluster, _, query, kept = pruned_deployment
        q = query(on_error="degrade")
        holder = cluster.execute_local(q, down=frozenset({kept}))
        assert holder.completeness == 0.0
        assert set(holder.shard_errors) == {kept} and len(holder.chunk_errors) == 1
        idle = next(sid for sid in range(N_SHARDS) if sid != kept)
        other = cluster.execute_local(q, down=frozenset({idle}))
        assert other.completeness == 1.0
        assert not other.shard_errors and not other.chunk_errors


class FlakyFactory:
    """Client factory failing the first *fail* attempts per shard."""

    def __init__(self, cluster, fail=0, error=ConnectionRefusedError):
        self.cluster = cluster
        self.fail = fail
        self.error = error
        self.attempts = {}

    def __call__(self, address, timeout):
        sid = int(address)
        n = self.attempts.get(sid, 0)
        self.attempts[sid] = n + 1
        if n < self.fail:
            raise self.error(f"injected failure {n} for shard {sid}")
        return _LocalShardClient(self.cluster.servers[sid])


def overloaded(retry_after_s):
    """A :class:`FlakyFactory` error: the service's ``overloaded``
    rejection carrying its back-off hint."""
    return lambda message: RemoteQueryError(
        message, code="overloaded",
        details={"queue_depth": 4, "retry_after_s": retry_after_s},
    )


class TestRetryAndFailover:
    def test_transient_failure_retried_to_success(self, deployment):
        cluster, _, query = deployment
        slept = []
        factory = FlakyFactory(cluster, fail=1)
        router = cluster.router_for(
            endpoints=local_endpoints(),
            policy=fast_policy(max_attempts=2),
            client_factory=factory,
            sleep=slept.append,
        )
        got = router.execute(query())
        assert not got.shard_errors and got.completeness == 1.0
        assert factory.attempts == {sid: 2 for sid in range(N_SHARDS)}
        # One backoff pause per shard, at the schedule's first delay.
        assert slept == [0.01] * N_SHARDS

    def test_overload_hint_sets_the_pause(self, deployment):
        """An ``overloaded`` rejection is retried after its
        ``retry_after_s`` hint when that beats the backoff schedule."""
        cluster, _, query = deployment
        slept = []
        factory = FlakyFactory(cluster, fail=1, error=overloaded(0.3))
        router = cluster.router_for(
            endpoints=local_endpoints(),
            policy=fast_policy(max_attempts=2),
            client_factory=factory,
            clock=lambda: 0.0,
            sleep=slept.append,
        )
        got = router.execute(query())
        assert not got.shard_errors and got.completeness == 1.0
        assert factory.attempts == {sid: 2 for sid in range(N_SHARDS)}
        assert slept == [0.3] * N_SHARDS

    def test_overload_hint_past_the_deadline_gives_up(self, deployment):
        """A hinted pause that would overrun the shard deadline ends the
        fetch at once with the rejection, never a hurried retry."""
        cluster, _, query = deployment
        slept = []
        factory = FlakyFactory(cluster, fail=1, error=overloaded(60.0))
        router = cluster.router_for(
            endpoints=local_endpoints(),
            policy=fast_policy(max_attempts=2),
            client_factory=factory,
            clock=lambda: 0.0,
            sleep=slept.append,
        )
        got = router.execute(query(on_error="degrade"))
        assert set(got.shard_errors) == set(range(N_SHARDS))
        for message in got.shard_errors.values():
            assert message.startswith("RemoteQueryError: injected failure 0")
        assert factory.attempts == {sid: 1 for sid in range(N_SHARDS)}
        assert slept == []

    def test_persistent_failure_degrades_after_max_attempts(self, deployment):
        cluster, _, query = deployment
        factory = FlakyFactory(cluster, fail=99)
        router = cluster.router_for(
            endpoints=local_endpoints(),
            policy=fast_policy(max_attempts=3),
            client_factory=factory,
            sleep=lambda s: None,
        )
        got = router.execute(query(on_error="degrade"))
        assert set(got.shard_errors) == set(range(N_SHARDS))
        assert got.completeness == 0.0
        assert factory.attempts == {sid: 3 for sid in range(N_SHARDS)}

    def test_bad_request_never_retried(self, deployment):
        cluster, _, query = deployment
        attempts = []

        class BadRequestClient:
            def query_partial(self, q, deadline=None):
                raise RemoteQueryError(
                    "server rejected partial query [bad_request]: nope",
                    code="bad_request",
                )

            def close(self):
                pass

        def factory(address, timeout):
            attempts.append(int(address))
            return BadRequestClient()

        router = cluster.router_for(
            endpoints=local_endpoints(),
            policy=fast_policy(max_attempts=4),
            client_factory=factory,
            sleep=lambda s: None,
        )
        # Even a degrade-tolerant query propagates bad_request: the
        # query itself is at fault and degradation cannot mask that.
        with pytest.raises(RemoteQueryError) as exc:
            router.execute(query(on_error="degrade"))
        assert exc.value.code == "bad_request"
        assert sorted(set(attempts)) == list(range(N_SHARDS))
        assert all(attempts.count(sid) == 1 for sid in range(N_SHARDS))

    def test_failover_to_replica_address(self, deployment):
        """Attempt k cycles the endpoint's address list, so a dead
        primary with a live replica succeeds within max_attempts=2."""
        cluster, _, query = deployment
        eps = [
            ShardEndpoint(shard_id=sid, address=f"dead-{sid}", replicas=(sid,))
            for sid in range(N_SHARDS)
        ]

        def factory(address, timeout):
            if isinstance(address, str):
                raise ConnectionRefusedError(f"{address} refuses")
            return _LocalShardClient(cluster.servers[int(address)])

        router = cluster.router_for(
            endpoints=eps,
            policy=fast_policy(max_attempts=2),
            client_factory=factory,
            sleep=lambda s: None,
        )
        got = router.execute(query())
        assert not got.shard_errors and got.completeness == 1.0


class TestHealth:
    def test_health_reports_every_shard(self, deployment):
        cluster, _, _ = deployment
        report = cluster.router.health()
        assert sorted(report) == list(range(N_SHARDS))
        for sid, h in report.items():
            assert h["status"] == "serving"
            assert h["shard_id"] == sid

    def test_health_marks_dead_and_draining_shards(self, deployment):
        cluster, _, _ = deployment
        cluster.crash_shard(0)
        cluster.drain_shard(1)
        report = cluster.router.health()
        assert report[0]["status"] == "unreachable"
        assert "error" in report[0]
        assert report[1]["status"] == "draining"
        assert report[2]["status"] == "serving"


class TestDeadlines:
    def test_stalled_shard_bounded_by_deadline(self, deployment):
        cluster, _, query = deployment

        class StallingClient:
            def query_partial(self, q, deadline=None):
                # Honors its deadline like a real socket client would.
                time.sleep(min(30.0, deadline or 30.0))
                raise DeadlineExceededError("stalled past the deadline")

            def close(self):
                pass

        policy = RouterPolicy(
            shard_deadline_s=0.5,
            connect_timeout_s=0.5,
            retry=RetryPolicy(
                max_attempts=1, base_delay=0.01,
                retry_on=(OSError, ProtocolError),
            ),
        )

        def factory(address, timeout):
            sid = int(address)
            if sid == 0:
                return StallingClient()
            return _LocalShardClient(cluster.servers[sid])

        router = cluster.router_for(
            endpoints=local_endpoints(), policy=policy, client_factory=factory
        )
        start = time.monotonic()
        got = router.execute(query(on_error="degrade"))
        elapsed = time.monotonic() - start
        assert set(got.shard_errors) == {0}
        assert "eadline" in got.shard_errors[0]
        assert elapsed < 5.0
