"""Tests for the concurrent query service (admission, batching,
functional scan sharing, bit-identical results under concurrency)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.frontend.queryservice import (
    QueryService,
    ServiceClosedError,
    ServiceOverloadedError,
    ServicePolicy,
)
from repro.machine.config import MachineConfig
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.store.cache import CachedChunkStore
from repro.store.chunk_store import ChunkStoreStage, MemoryChunkStore
from repro.util.geometry import Rect
from repro.util.units import MB

SEED = 311  # deterministic dataset per module


def build_adr(store=None, cache_bytes=64 * MB):
    rng = np.random.default_rng(SEED)
    adr = ADR(
        machine=MachineConfig(n_procs=2, memory_per_proc=MB),
        store=store,
        cache_bytes=cache_bytes,
    )
    space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
    coords = rng.uniform(0, 10, size=(500, 2))
    values = rng.integers(1, 40, size=500).astype(float)
    adr.load("sensors", space, hilbert_partition(coords, values, 20))
    return adr, space


def make_query(space, region, strategy="FRA", **kw):
    out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(out_space, (6, 6), (3, 3))
    mapping = GridMapping(space, out_space, (6, 6))
    return RangeQuery(
        "sensors", region, mapping, grid,
        aggregation="sum", strategy=strategy, **kw,
    )


#: A mixed workload: heavy overlap (full/NE/inner), disjoint corners,
#: a different strategy, and a value predicate.
def workload(space):
    return [
        make_query(space, Rect((0, 0), (10, 10))),
        make_query(space, Rect((4, 4), (10, 10))),
        make_query(space, Rect((3, 3), (8, 8)), strategy="DA"),
        make_query(space, Rect((0, 0), (4, 4))),
        make_query(space, Rect((6, 0), (10, 4))),
        make_query(space, Rect((1, 1), (9, 9)), where={0: (None, 20.0)}),
    ]


def assert_identical(shared, solo, label=""):
    """Shared-batch result must be bit-identical to isolated execution
    in everything except the documented shared-read / cache fields."""
    assert shared.output_ids.tolist() == solo.output_ids.tolist(), label
    for o, a, b in zip(shared.output_ids, shared.chunk_values, solo.chunk_values):
        assert np.array_equal(a, b, equal_nan=True), f"{label} chunk {int(o)}"
    for counter in ("strategy", "n_tiles", "n_reads", "bytes_read",
                    "n_combines", "n_aggregations", "chunks_pruned",
                    "bytes_pruned", "completeness"):
        assert getattr(shared, counter) == getattr(solo, counter), (
            f"{label} counter {counter}"
        )
    assert shared.chunk_errors == solo.chunk_errors, label


class GateStore(ChunkStoreStage):
    """Store whose reads block until the gate opens; ``blocked`` is set
    once a read waits at the gate."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gate = threading.Event()
        self.blocked = threading.Event()

    def read_chunk(self, dataset, chunk_id):
        self.blocked.set()
        assert self.gate.wait(timeout=30), "gate never opened"
        return self.inner.read_chunk(dataset, chunk_id)


class TestAdmissionControl:
    def test_overload_rejects_loudly(self):
        gate_inner = MemoryChunkStore()
        gate = GateStore(gate_inner)
        adr, space = build_adr(store=gate)
        q = make_query(space, Rect((0, 0), (10, 10)))
        policy = ServicePolicy(max_queue=2, max_inflight=1, batch_max=1)
        with QueryService(adr, policy) as service:
            blocked = service.submit(q)  # worker picks this up, blocks on read
            deadline = time.monotonic() + 10
            while service.stats()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            t1, t2 = service.submit(q), service.submit(q)  # fills the queue
            with pytest.raises(ServiceOverloadedError, match="queue full"):
                service.submit(q)
            assert service.stats()["rejected"] == 1
            gate.gate.set()
            for t in (blocked, t1, t2):
                assert t.result(timeout=30).n_reads > 0
        assert service.stats()["completed"] == 3

    def test_closed_service_rejects(self):
        adr, space = build_adr()
        service = QueryService(adr)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(make_query(space, Rect((0, 0), (10, 10))))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ServicePolicy(max_queue=0)
        with pytest.raises(ValueError):
            ServicePolicy(max_inflight=0)
        with pytest.raises(TypeError):  # the knobs are gone, not aliased
            ServicePolicy(batch_window=0.002)
        with pytest.raises(TypeError):
            ServicePolicy(share_scans=False)


class TestBatchingScheduler:
    def _run_backlogged(self, queries, policy):
        """Submit *queries* against a gated store so they all queue
        behind one blocked warm-up query, then release the gate --
        batch formation is deterministic (pure backlog)."""
        gate = GateStore(MemoryChunkStore())
        adr, space = build_adr(store=gate)
        tickets = []
        with QueryService(adr, policy) as service:
            warmup = service.submit(make_query(space, Rect((0, 0), (1.5, 1.5))))
            # Blocked on a read means planned: the warm-up's batch is closed.
            assert gate.blocked.wait(timeout=10), "warm-up never reached the store"
            tickets = [service.submit(q) for q in queries]
            gate.gate.set()
            warmup.result(timeout=30)
            results = [t.result(timeout=30) for t in tickets]
        return tickets, results, service

    def test_overlapping_queries_scheduled_adjacent(self):
        _, space = build_adr()
        queries = [
            make_query(space, Rect((0, 0), (5, 5))),       # A
            make_query(space, Rect((5.2, 5.2), (10, 10))),  # far from A
            make_query(space, Rect((1, 1), (5.5, 5.5))),    # overlaps A heavily
        ]
        policy = ServicePolicy(max_inflight=1, batch_max=8)
        tickets, _, service = self._run_backlogged(queries, policy)
        infos = [t.service_info for t in tickets]
        assert all(i["batch_size"] == 3 for i in infos)
        assert abs(infos[0]["batch_pos"] - infos[2]["batch_pos"]) == 1
        assert service.stats()["batches"] >= 1

    def test_backlog_batches_per_dataset(self):
        """A batch holds one dataset's queries: an interleaved backlog
        over two datasets forms one batch per dataset."""
        gate = GateStore(MemoryChunkStore())
        adr, space = build_adr(store=gate)
        rng = np.random.default_rng(SEED + 1)
        adr.load(
            "other", space,
            hilbert_partition(rng.uniform(0, 10, size=(100, 2)), np.ones(100), 20),
        )
        queries = []
        for dataset in ("sensors", "other", "sensors", "other", "sensors"):
            q = make_query(space, Rect((0, 0), (10, 10)))
            q.dataset = dataset
            queries.append(q)
        with QueryService(adr, ServicePolicy(max_inflight=1, batch_max=8)) as service:
            warmup = service.submit(make_query(space, Rect((0, 0), (1.5, 1.5))))
            # Blocked on a read means planned: the warm-up's batch is closed.
            assert gate.blocked.wait(timeout=10), "warm-up never reached the store"
            tickets = [service.submit(q) for q in queries]
            gate.gate.set()
            warmup.result(timeout=30)
            for t in tickets:
                assert t.result(timeout=30).n_reads > 0
        sizes = [t.service_info["batch_size"] for t in tickets]
        assert sizes == [3, 2, 3, 2, 3]

    def test_batch_max_caps_batch_size(self):
        _, space = build_adr()
        queries = [make_query(space, Rect((0, 0), (10, 10))) for _ in range(5)]
        policy = ServicePolicy(max_inflight=1, batch_max=2)
        tickets, _, _ = self._run_backlogged(queries, policy)
        assert max(t.service_info["batch_size"] for t in tickets) <= 2

    def test_batch_max_one_never_batches_or_pins(self, monkeypatch):
        pins = []
        monkeypatch.setattr(
            CachedChunkStore, "pin", lambda self, *args: pins.append(args)
        )
        _, space = build_adr()
        queries = [make_query(space, Rect((0, 0), (10, 10))) for _ in range(3)]
        policy = ServicePolicy(max_inflight=1, batch_max=1)
        tickets, _, service = self._run_backlogged(queries, policy)
        assert all(t.service_info["batch_size"] == 1 for t in tickets)
        assert service.stats()["batched_queries"] == 0
        assert not pins

    def test_queue_wait_reported(self):
        _, space = build_adr()
        policy = ServicePolicy(max_inflight=1)
        tickets, _, _ = self._run_backlogged(
            [make_query(space, Rect((0, 0), (10, 10)))], policy
        )
        assert tickets[0].service_info["queue_wait_s"] >= 0.0


class PlanGate:
    """Stands in for ``adr.plan_with_choice``: each call on a gated
    dataset announces itself (``entered``) and blocks until it is let
    through, so a test decides what arrives *while the worker plans*."""

    def __init__(self, adr, datasets=("sensors",)):
        self.inner = adr.plan_with_choice
        self.datasets = datasets
        self.entered = threading.Semaphore(0)
        self.passes = threading.Semaphore(0)
        adr.plan_with_choice = self

    def __call__(self, query):
        if query.dataset in self.datasets:
            self.entered.release()
            assert self.passes.acquire(timeout=30), "plan gate never opened"
        return self.inner(query)

    def wait_entered(self):
        assert self.entered.acquire(timeout=30), "no query reached planning"

    def let_through(self, n=1):
        for _ in range(n):
            self.passes.release()


class TestOpenBatch:
    """The work-conserving scheduler: planning time is the window."""

    def test_arrivals_during_planning_join_the_open_batch(self):
        adr, space = build_adr()
        gate = PlanGate(adr)
        q = make_query(space, Rect((0, 0), (10, 10)))
        with QueryService(adr, ServicePolicy(max_inflight=1, batch_max=8)) as service:
            first = service.submit(q)
            gate.wait_entered()  # the worker is planning `first`
            stats = service.stats()
            assert (stats["in_flight"], stats["queue_depth"]) == (1, 0)
            joiners = [service.submit(q), service.submit(q)]
            stats = service.stats()
            assert (stats["in_flight"], stats["queue_depth"]) == (1, 2)
            gate.let_through()  # round one ends: the joiners leave the queue
            gate.wait_entered()
            stats = service.stats()
            assert (stats["in_flight"], stats["queue_depth"]) == (3, 0)
            gate.let_through(100)
            tickets = [first, *joiners]
            for t in tickets:
                assert t.result(timeout=30).n_reads > 0
            stats = service.stats()
        assert stats["batches"] == 1 and stats["batched_queries"] == 3
        assert stats["in_flight"] == 0
        assert [t.service_info["batch_size"] for t in tickets] == [3, 3, 3]
        assert sorted(t.service_info["batch_pos"] for t in tickets) == [0, 1, 2]
        # stamped as each ticket left the queue: never negative, and the
        # joiners' wait covers the planning round they sat out
        assert all(t.service_info["queue_wait_s"] >= 0 for t in tickets)

    def test_second_worker_leaves_open_dataset_but_serves_another(self):
        adr, space = build_adr()
        rng = np.random.default_rng(SEED + 1)
        adr.load(
            "other", space,
            hilbert_partition(rng.uniform(0, 10, size=(100, 2)), np.ones(100), 20),
        )
        gate = PlanGate(adr, datasets=("sensors",))
        q = make_query(space, Rect((0, 0), (10, 10)))
        other = make_query(space, Rect((0, 0), (10, 10)))
        other.dataset = "other"
        with QueryService(adr, ServicePolicy(max_inflight=2, batch_max=8)) as service:
            first = service.submit(q)
            gate.wait_entered()  # "sensors" has an open batch
            second = service.submit(q)
            # Submitted after `second`, so the free worker scanned past
            # `second` to reach it -- and ran it while "sensors" planned.
            assert service.submit(other).result(timeout=30).n_reads > 0
            stats = service.stats()
            assert stats["queue_depth"] == 1 and stats["batches"] == 1
            assert not second.done()
            gate.let_through(100)
            for t in (first, second):
                assert t.result(timeout=30).n_reads > 0
                assert t.service_info["batch_size"] == 2
            assert service.stats()["batches"] == 2

    def test_lone_query_never_waits_before_planning(self):
        adr, space = build_adr()
        events = []
        inner_plan = adr.plan_with_choice

        def plan(query):
            events.append("plan")
            return inner_plan(query)

        adr.plan_with_choice = plan
        with QueryService(adr, ServicePolicy(max_inflight=1)) as service:
            real_wait = service._cv.wait

            def wait(timeout=None):
                # called with the (re-entrant) lock held
                events.append(("wait", service.stats()["submitted"]))
                return real_wait(timeout)

            service._cv.wait = wait
            ticket = service.submit(make_query(space, Rect((0, 0), (10, 10))))
            assert ticket.result(timeout=30).n_reads > 0
        # Any wait entered once the query was submitted and before it is
        # planned is a sleep on the critical path.
        assert ("wait", 1) not in events[: events.index("plan")]
        assert ticket.service_info["batch_size"] == 1

    def test_failure_after_batch_grew_resolves_joiners(self, monkeypatch):
        adr, space = build_adr()
        gate = PlanGate(adr)
        q = make_query(space, Rect((0, 0), (10, 10)))
        monkeypatch.setattr(
            "repro.frontend.queryservice.order_for_sharing",
            lambda plans: (_ for _ in ()).throw(RuntimeError("scheduler broke")),
        )
        with QueryService(adr, ServicePolicy(max_inflight=1, batch_max=4)) as service:
            first = service.submit(q)
            gate.wait_entered()
            joiners = [service.submit(q), service.submit(q)]
            gate.let_through(100)
            for t in (first, *joiners):
                with pytest.raises(RuntimeError, match="scheduler broke"):
                    t.result(timeout=30)
            stats = service.stats()
            assert stats["failed"] == 3
            # "sensors" is not left marked open: a new query on it is
            # dequeued (alone, so never ordered) and served.
            assert service.submit(q).result(timeout=30).n_reads > 0
            stats = service.stats()
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0

    def test_close_drains_tickets_pending_behind_an_open_batch(self):
        adr, space = build_adr()
        gate = PlanGate(adr)
        q = make_query(space, Rect((0, 0), (10, 10)))
        service = QueryService(adr, ServicePolicy(max_inflight=2, batch_max=2))
        try:
            first = service.submit(q)
            gate.wait_entered()
            pending = [service.submit(q) for _ in range(3)]
            # Returns with the workers still busy behind the gate; what
            # matters is that the service is now closed.
            service.close(timeout=0.01)
            with pytest.raises(ServiceClosedError):
                service.submit(q)
            assert service.stats()["queue_depth"] == 3
            gate.let_through(100)
            for t in (first, *pending):
                assert t.result(timeout=30).n_reads > 0
        finally:
            gate.let_through(100)
            service.close()
        stats = service.stats()
        assert stats["completed"] == 4
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0
        assert max(t.service_info["batch_size"] for t in (first, *pending)) == 2


class TestScanSharing:
    def test_batched_duplicates_share_reads(self):
        adr, space = build_adr()
        q = make_query(space, Rect((0, 0), (10, 10)))
        policy = ServicePolicy(max_inflight=1, batch_max=4)
        with QueryService(adr, policy) as service:
            tickets = [service.submit(q) for _ in range(3)]
            results = [t.result(timeout=30) for t in tickets]
        # Identical queries in one batch: every successor read is shared.
        shared = sorted(r.shared_reads for r in results)
        assert shared[-1] == results[0].n_reads
        assert sum(r.shared_reads for r in results) >= results[0].n_reads
        stats = service.stats()
        assert stats["shared_reads"] == sum(r.shared_reads for r in results)
        assert stats["shared_bytes"] == sum(r.shared_bytes for r in results)

    def test_pinning_shares_despite_tiny_cache(self):
        """With a 1-byte budget the plain LRU caches nothing -- only
        batch pinning can retain the overlap set, so shared reads prove
        the pin/unpin path works."""
        adr, space = build_adr(cache_bytes=1)
        q = make_query(space, Rect((0, 0), (10, 10)))
        policy = ServicePolicy(max_inflight=1, batch_max=2)
        with QueryService(adr, policy) as service:
            tickets = [service.submit(q) for _ in range(2)]
            results = [t.result(timeout=30) for t in tickets]
        assert max(r.shared_reads for r in results) == results[0].n_reads
        # pins released: the over-budget entries are evictable again
        assert adr.store.pinned_count == 0

    def test_results_bit_identical_to_isolated(self):
        adr, space = build_adr()
        queries = workload(space)
        policy = ServicePolicy(max_inflight=3, batch_max=8)
        with QueryService(adr, policy) as service:
            tickets = [service.submit(q) for q in queries]
            shared_results = [t.result(timeout=60) for t in tickets]
        solo_adr, _ = build_adr()  # fresh instance, cold cache
        for i, (q, shared) in enumerate(zip(queries, shared_results)):
            assert_identical(shared, solo_adr.execute(q), label=f"query {i}")

    def test_degraded_results_bit_identical_to_isolated(self):
        """on_error='degrade' under shared execution reports the same
        chunk_errors and completeness as an isolated run."""

        def faulty_store():
            return FaultyChunkStore(
                MemoryChunkStore(),
                FaultInjector(FaultPlan.corrupt_chunk(3, dataset="sensors")),
            )

        adr, space = build_adr(store=faulty_store())
        queries = [
            make_query(space, Rect((0, 0), (10, 10)), on_error="degrade"),
            make_query(space, Rect((0, 0), (6, 6)), on_error="degrade"),
            make_query(space, Rect((2, 2), (10, 10)), on_error="degrade"),
        ]
        policy = ServicePolicy(max_inflight=2, batch_max=4)
        with QueryService(adr, policy) as service:
            tickets = [service.submit(q) for q in queries]
            shared_results = [t.result(timeout=60) for t in tickets]
        solo_adr, _ = build_adr(store=faulty_store())
        hit_fault = 0
        for i, (q, shared) in enumerate(zip(queries, shared_results)):
            solo = solo_adr.execute(q)
            assert_identical(shared, solo, label=f"degraded query {i}")
            hit_fault += bool(shared.chunk_errors)
        assert hit_fault > 0  # the fault actually fired somewhere


class TestErrors:
    def test_bad_query_fails_its_ticket_only(self):
        adr, space = build_adr()
        good = make_query(space, Rect((0, 0), (10, 10)))
        bad = make_query(space, Rect((0, 0), (10, 10)))
        bad.dataset = "absent"
        policy = ServicePolicy(max_inflight=1, batch_max=4)
        with QueryService(adr, policy) as service:
            tg, tb = service.submit(good), service.submit(bad)
            with pytest.raises(KeyError):
                tb.result(timeout=30)
            assert tg.result(timeout=30).n_reads > 0
        stats = service.stats()
        assert stats["failed"] == 1 and stats["completed"] == 1

    def test_ticket_timeout(self):
        gate = GateStore(MemoryChunkStore())
        adr, space = build_adr(store=gate)
        with QueryService(adr, ServicePolicy(max_inflight=1)) as service:
            ticket = service.submit(make_query(space, Rect((0, 0), (10, 10))))
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            gate.gate.set()
            assert ticket.result(timeout=30).n_reads > 0


class TestConcurrentHammer:
    def test_many_threads_bit_identical(self):
        """N threads hammering the service with overlapping and
        disjoint queries: every result matches the same query run
        alone on a fresh ADR."""
        adr, space = build_adr()
        queries = workload(space)
        solo_adr, _ = build_adr()
        expected = [solo_adr.execute(q) for q in queries]

        policy = ServicePolicy(max_queue=256, max_inflight=4, batch_max=4)
        failures = []
        lock = threading.Lock()

        def hammer(tid):
            try:
                for round_no in range(3):
                    idx = (tid + round_no) % len(queries)
                    result = adr_service.execute(queries[idx], timeout=120)
                    assert_identical(
                        result, expected[idx], label=f"t{tid} r{round_no} q{idx}"
                    )
            except BaseException as e:  # surface in the main thread
                with lock:
                    failures.append(e)

        # A short switch interval interleaves submitters, joiners and
        # workers far more finely than the default 5 ms would.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(adr, policy) as adr_service:
                threads = [
                    threading.Thread(target=hammer, args=(t,)) for t in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[0]
        stats = adr_service.stats()
        assert stats["completed"] == 24
        assert stats["in_flight"] == 0 and stats["queue_depth"] == 0


class TestOverloadDetails:
    def test_rejection_carries_backoff_hint(self):
        gate = GateStore(MemoryChunkStore())
        adr, space = build_adr(store=gate)
        q = make_query(space, Rect((0, 0), (10, 10)))
        policy = ServicePolicy(max_queue=1, max_inflight=1, batch_max=1)
        with QueryService(adr, policy) as service:
            blocked = service.submit(q)
            deadline = time.monotonic() + 10
            while service.stats()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            service.submit(q)  # fills the queue
            with pytest.raises(ServiceOverloadedError) as exc:
                service.submit(q)
            gate.gate.set()
            blocked.result(timeout=30)
        e = exc.value
        assert e.queue_depth == 1
        assert e.retry_after_s > 0
        # The wire encoding ships both as machine-readable details.
        assert e.wire_details == {
            "queue_depth": 1,
            "retry_after_s": e.retry_after_s,
        }

    def test_hint_grows_with_backlog(self):
        a = ServiceOverloadedError("full", queue_depth=1, retry_after_s=0.1)
        b = ServiceOverloadedError("full", queue_depth=9, retry_after_s=0.5)
        assert b.wire_details["retry_after_s"] > a.wire_details["retry_after_s"]


class TestSchedulerFailure:
    def test_batch_scheduler_error_resolves_every_ticket(self, monkeypatch):
        """A failure *between* planning and execution (ordering, shared
        keys, pinning) must fail every ticket in the batch -- an
        unresolved ticket is a client hung in result() forever -- and
        leave the service serving."""
        gate = GateStore(MemoryChunkStore())
        adr, space = build_adr(store=gate)
        q = make_query(space, Rect((0, 0), (10, 10)))
        policy = ServicePolicy(max_queue=8, max_inflight=1, batch_max=4)
        monkeypatch.setattr(
            "repro.frontend.queryservice.order_for_sharing",
            lambda plans: (_ for _ in ()).throw(RuntimeError("scheduler broke")),
        )
        with QueryService(adr, policy) as service:
            blocked = service.submit(q)  # solo batch: never ordered
            deadline = time.monotonic() + 10
            while service.stats()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            t1, t2 = service.submit(q), service.submit(q)
            gate.gate.set()
            assert blocked.result(timeout=30).n_reads > 0
            for t in (t1, t2):
                with pytest.raises(RuntimeError, match="scheduler broke"):
                    t.result(timeout=30)
            # The worker survived: in-flight drained, new queries run.
            stats = service.stats()
            assert stats["failed"] == 2
            follow_up = service.submit(q)
            assert follow_up.result(timeout=30).n_reads > 0
        stats = service.stats()
        assert stats["in_flight"] == 0
        assert stats["queue_depth"] == 0


class TestAutoStrategyAndTelemetry:
    def test_auto_query_through_service(self):
        adr, space = build_adr()
        q = make_query(space, Rect((0, 0), (10, 10)), strategy="AUTO")
        with QueryService(adr, ServicePolicy()) as service:
            ticket = service.submit(q)
            result = ticket.result(timeout=60)
        assert result.selected_strategy == result.strategy
        assert result.selected_strategy in {"FRA", "SRA", "DA", "HYBRID"}
        assert ticket.service_info["selected_strategy"] == result.strategy
        # ...and it matches the same query executed alone
        solo_adr, _ = build_adr()
        assert_identical(
            result, solo_adr.execute(q), label="auto through service"
        )

    def test_telemetry_recorded_per_completed_query(self, tmp_path):
        from repro.planner.telemetry import CANONICAL_PHASES, TelemetryLog

        adr, space = build_adr()
        log = TelemetryLog(tmp_path / "telemetry.jsonl")
        queries = workload(space)
        with QueryService(adr, ServicePolicy(), telemetry=log) as service:
            for t in [service.submit(q) for q in queries]:
                t.result(timeout=120)
        runs = log.load()
        assert len(runs) == len(queries)
        for run in runs:
            assert run.source == "measured"
            assert set(run.phase_times) <= set(CANONICAL_PHASES)
            assert run.total_time > 0
            assert run.n_procs == 2

    def test_no_telemetry_log_means_no_recording(self, tmp_path):
        adr, space = build_adr()
        q = make_query(space, Rect((0, 0), (10, 10)))
        with QueryService(adr, ServicePolicy()) as service:
            service.execute(q, timeout=60)
        assert not (tmp_path / "telemetry.jsonl").exists()

    def test_degraded_queries_not_recorded(self, tmp_path):
        """Telemetry feeds calibration; a degraded run's phase times
        describe a partial query and would poison the fit."""
        from repro.planner.telemetry import TelemetryLog

        plan = FaultPlan.corrupt_chunk(chunk_id=0, dataset="sensors", times=1)
        store = FaultyChunkStore(MemoryChunkStore(), FaultInjector(plan))
        adr, space = build_adr(store=store)
        log = TelemetryLog(tmp_path / "telemetry.jsonl")
        degraded = make_query(
            space, Rect((0, 0), (10, 10)), on_error="degrade"
        )
        clean = make_query(space, Rect((0, 0), (10, 10)))
        with QueryService(adr, ServicePolicy(), telemetry=log) as service:
            bad = service.execute(degraded, timeout=60)
            service.execute(clean, timeout=60)
        assert bad.completeness < 1.0
        runs = log.load()
        assert len(runs) == 1  # only the clean run was recorded
