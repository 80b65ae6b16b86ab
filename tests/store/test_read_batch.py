"""Batch reads through every store stage.

``read_batch(ids)`` must give, slot for slot, what ``read_chunk`` gives
id by id -- the chunk, or the error by type and message -- through any
stack of fault injection, retry and payload cache over a memory or file
store, with faults firing identically and the cache and its recorder
counting identically.
"""

import itertools

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.dataset.partition import hilbert_partition
from repro.faults import FaultInjector, FaultPlan, FaultSpec, FaultyChunkStore
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.runtime.engine import execute_plan
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.store.cache import CachedChunkStore, ScanRecorder
from repro.store.chunk_store import (
    RECOVERABLE_READ_ERRORS,
    FileChunkStore,
    MemoryChunkStore,
)
from repro.store.retry import RetryingChunkStore, RetryPolicy
from repro.util.geometry import Rect
from repro.util.units import MB
from test_retry import FakeClock

#: Ids read, out of order, with one absent (99).
IDS = [3, 0, 1, 99, 2, 4, 5]


def fault_plan():
    """A transient I/O error (1), a rotten file (2), a slow disk (3) and
    a dead one (4)."""
    return FaultPlan((
        FaultSpec("io_error", chunk_id=1, times=1),
        FaultSpec("corrupt", chunk_id=2, times=None),
        FaultSpec("slow_read", chunk_id=3, delay=0.25, times=None),
        FaultSpec("io_error", chunk_id=4, times=None),
    ))


def make_chunks(n=6):
    rng = np.random.default_rng(5)
    return [
        Chunk.from_items(i, rng.uniform(0, 10, size=(4 + i, 2)), rng.normal(size=4 + i))
        for i in range(n)
    ]


STACKS = list(itertools.product(["memory", "file"], [False, True], [False, True], [False, True]))


def build(tmp_path, base, faulty, retry, cache, cache_bytes=64 * MB):
    """``Cached(Retrying(Faulty(base)))`` with the stages chosen; returns
    the store and the injector's fake-sleep log."""
    store = MemoryChunkStore() if base == "memory" else FileChunkStore(tmp_path)
    store.write_chunks("d", make_chunks(), [(i % 2, 0) for i in range(6)])
    sleeps = []
    injector = None
    if faulty:
        injector = FaultInjector(fault_plan(), sleep=sleeps.append)
        store = FaultyChunkStore(store, injector)
    if retry:
        store = RetryingChunkStore(store, RetryPolicy(max_attempts=3, base_delay=0.0))
    if cache:
        store = CachedChunkStore(store, max_bytes=cache_bytes)
    return store, injector, sleeps


def one_by_one(store, ids, **kw):
    out = []
    for chunk_id in ids:
        try:
            out.append(store.read_chunk("d", chunk_id, **kw))
        except RECOVERABLE_READ_ERRORS as e:
            out.append(e)
    return out


def assert_same_slots(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
        else:
            assert a.chunk_id == b.chunk_id
            np.testing.assert_array_equal(a.coords, b.coords)
            np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "base,faulty,retry,cache", STACKS,
    ids=["-".join(n for n, on in zip(("faulty", "retry", "cache"), s[1:]) if on) or "bare"
         for s in STACKS],
)
def test_batch_equals_one_by_one(tmp_path, base, faulty, retry, cache):
    batched, inj_b, sleeps_b = build(tmp_path / "b", base, faulty, retry, cache)
    single, inj_s, sleeps_s = build(tmp_path / "s", base, faulty, retry, cache)
    kw_b = {"recorder": ScanRecorder()} if cache else {}
    kw_s = {"recorder": ScanRecorder()} if cache else {}
    for _ in range(2):  # the second pass meets a warm cache and spent faults
        got = batched.read_batch("d", IDS, **kw_b)
        want = one_by_one(single, IDS, **kw_s)
        assert_same_slots(got, want)
    assert sleeps_b == sleeps_s
    if faulty:
        # A retry stage re-reads a batch's failed slots round by round,
        # not chunk by chunk, so above one the same faults fire in
        # another order.
        order = (lambda fired: sorted(map(repr, fired))) if retry else list
        assert order(inj_b.fired) == order(inj_s.fired) and inj_b.fired
        errors = {i: type(s).__name__ for i, s in zip(IDS, got) if isinstance(s, Exception)}
        assert errors == {99: "KeyError", 2: "CorruptChunkError", 4: "InjectedFault"}
    if cache:
        assert batched.stats() == single.stats()
        assert kw_b["recorder"].snapshot() == kw_s["recorder"].snapshot()


def test_read_chunk_is_the_one_id_batch(tmp_path):
    store, _, _ = build(tmp_path, "memory", True, True, True)
    with pytest.raises(KeyError, match="chunk 99"):
        store.read_chunk("d", 99)
    with pytest.raises(OSError, match="injected I/O error reading chunk 4"):
        store.read_chunk("d", 4)
    assert store.read_chunk("d", 1).chunk_id == 1  # the transient error was retried


def test_a_stage_overriding_only_read_chunk_is_refused():
    from repro.store.chunk_store import ChunkStoreStage

    with pytest.raises(TypeError, match="overrides read_batch"):
        class Stale(ChunkStoreStage):
            def read_chunk(self, dataset, chunk_id):
                return self.inner.read_chunk(dataset, chunk_id)


class TestFaultSlots:
    def test_io_error_slot_is_not_read_and_corrupt_slot_is(self):
        reads = []
        inner = MemoryChunkStore()
        inner.write_chunks("d", make_chunks(), [(0, 0)] * 6)
        real = inner.read_batch
        inner.read_batch = lambda d, ids: reads.append(list(ids)) or real(d, ids)
        store = FaultyChunkStore(inner, FaultInjector(fault_plan(), sleep=lambda s: None))
        store.read_batch("d", [0, 1, 2, 4])
        assert reads == [[0, 2]]  # one inner batch, the io_error slots left out

    def test_slots_fire_in_read_order(self):
        store, injector, _ = build(None, "memory", True, False, False)
        slots = store.read_batch("d", [3, 2, 1, 4, 0])
        assert [type(s).__name__ for s in slots] == [
            "Chunk", "CorruptChunkError", "InjectedFault", "InjectedFault", "Chunk"
        ]
        assert [s.kind for s in injector.fired] == ["slow_read", "corrupt", "io_error", "io_error"]


class CountingRecorder(ScanRecorder):
    def __init__(self):
        super().__init__()
        self.updates = 0

    def record(self, *counts):
        self.updates += 1
        super().record(*counts)


class TestCacheBatch:
    @staticmethod
    def sized(tmp_path, fits):
        """A cache exactly as large as the chunks *fits*."""
        size = sum(c.coords.nbytes + c.values.nbytes for c in make_chunks() if c.chunk_id in fits)
        return build(tmp_path, "memory", False, False, True, cache_bytes=size)[0]

    def test_pins_hold_through_a_batch(self, tmp_path):
        """A batch evicts like its reads one at a time: into a cache as
        large as chunk 1, chunk 1 evicts chunk 0, and the larger chunk 2
        is not cached."""
        batched, single = self.sized(tmp_path / "b", [1]), self.sized(tmp_path / "s", [1])
        batched.read_batch("d", [0, 1, 2])
        one_by_one(single, [0, 1, 2])
        assert list(batched._entries) == list(single._entries) == [("d", 1)]
        assert batched.stats() == single.stats()
        assert batched.read_batch("d", [1])[0] is batched.read_chunk("d", 1)

    def test_lookups_precede_inserts(self, tmp_path):
        """A batch's inserts follow all its lookups, so no insert evicts
        a chunk a later slot of the batch hits; one id at a time,
        reading [2, 0] into a full two-chunk cache evicts 0 before it is
        asked for."""
        batched, single = (self.sized(tmp_path / n, [0, 1]) for n in "bs")
        for cache in (batched, single):
            cache.read_batch("d", [0, 1])
        batched.read_batch("d", [2, 0])
        one_by_one(single, [2, 0])
        assert batched.hits == 1 and single.hits == 0

    def test_one_recorder_update_per_batch(self, tmp_path):
        cache = self.sized(tmp_path, range(6))
        recorder = CountingRecorder()
        cache.read_batch("d", [0, 1, 99], recorder=recorder)
        cache.read_batch("d", [0, 1, 2], recorder=recorder)
        assert recorder.updates == 2
        snap = recorder.snapshot()
        assert (snap["hits"], snap["misses"]) == (2, 3)  # the absent id counts as neither


class TestRetryBatch:
    """``RetryPolicy.run_batch`` on a fake clock: each key keeps the
    attempt budget and deadline it has when read alone."""

    @staticmethod
    def flaky(failures):
        """A batch reader whose key *k* fails ``failures[k]`` times
        (``"absent"``: always ``KeyError``), logging every batch."""
        left = dict(failures)
        batches, raised = [], {}

        def read(keys):
            batches.append(list(keys))
            out = []
            for k in keys:
                if left.get(k) == "absent":
                    out.append(KeyError(k))
                elif left.get(k, 0) > 0:
                    left[k] -= 1
                    raised[k] = OSError(f"transient {k}")
                    out.append(raised[k])
                else:
                    out.append(k.upper())
            return out

        return read, batches, raised

    FAILURES = {"a": 1, "b": 9, "c": "absent", "d": 0}

    def test_attempts_match_run_per_key(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0)
        read, batches, raised = self.flaky(self.FAILURES)
        fake = FakeClock()
        out = policy.run_batch(read, list("abcd"), clock=fake.clock, sleep=fake.sleep)
        assert out[0] == "A" and out[3] == "D"
        assert out[1] is raised["b"]  # the last underlying error, unchanged
        assert isinstance(out[2], KeyError)
        assert batches == [list("abcd"), ["a", "b"], ["b"], ["b"]]
        assert fake.sleeps == [0.1, 0.2, 0.4]
        for key in "abcd":
            assert self.attempts_alone(policy, key) == sum(b.count(key) for b in batches), key

    def attempts_alone(self, policy, key):
        """How many times ``run_batch`` reads *key* in a batch of its own."""
        read, batches, _ = self.flaky({key: self.FAILURES[key]})
        policy.run_batch(read, [key], clock=FakeClock().clock, sleep=lambda s: None)
        return len(batches)

    def test_absent_key_never_retried(self):
        read, batches, _ = self.flaky({"x": "absent"})
        out = RetryPolicy(max_attempts=4, base_delay=0.1).run_batch(
            read, ["x"], clock=FakeClock().clock, sleep=FakeClock().sleep
        )
        assert isinstance(out[0], KeyError) and batches == [["x"]]

    def test_deadline_checked_before_sleeping(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.6, multiplier=2.0, deadline=1.0)
        read, batches, _ = self.flaky({"a": 9, "b": 9})
        fake = FakeClock()
        out = policy.run_batch(read, ["a", "b"], clock=fake.clock, sleep=fake.sleep)
        # round 0 fails -> sleep 0.6 (0.0 + 0.6 <= 1.0); round 1 fails ->
        # the next pause (1.2) would overrun: stop without sleeping.
        assert fake.sleeps == [0.6] and len(batches) == 2
        assert all(isinstance(s, OSError) for s in out)


# -- degraded queries: the batch path against the per-id path ---------------


def facade(store):
    adr = ADR(machine=MachineConfig(n_procs=3, memory_per_proc=1 * MB), store=store)
    rng = np.random.default_rng(17)
    in_space = AttributeSpace.regular("readings", ("x", "y"), (0, 0), (10, 10))
    out_space = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
    coords = rng.uniform(0, 10, size=(400, 2))
    values = rng.integers(0, 100, size=400).astype(float)
    adr.load("sensors", in_space, hilbert_partition(coords, values, items_per_chunk=25))
    grid = OutputGrid(out_space, (12, 12), (4, 4))
    query = RangeQuery("sensors", Rect((0, 0), (10, 10)), GridMapping(in_space, out_space, (12, 12)),
                       grid, aggregation="sum", strategy="DA", on_error="degrade")
    return adr, query


DEGRADE = {
    "corrupt": lambda: FaultPlan.corrupt_chunk(3, dataset="sensors"),
    "dead-disk": lambda: FaultPlan((FaultSpec("io_error", chunk_id=5, times=None),
                                    FaultSpec("io_error", chunk_id=9, times=None))),
    "transient": lambda: FaultPlan.flaky_read(times=3),
    "slow-and-corrupt": lambda: FaultPlan((
        FaultSpec("slow_read", delay=0.01, times=None),
        FaultSpec("corrupt", chunk_id=0, times=None),
    )),
}


@pytest.mark.parametrize("scenario", DEGRADE)
@pytest.mark.parametrize("retry", [False, True], ids=["no-retry", "retry"])
def test_degraded_results_match_the_per_id_path(scenario, retry):
    def stack():
        store = FaultyChunkStore(MemoryChunkStore(),
                                 FaultInjector(DEGRADE[scenario](), sleep=lambda s: None))
        if retry:
            store = RetryingChunkStore(store, RetryPolicy(max_attempts=2, base_delay=0.0))
        return facade(store)

    adr, query = stack()
    batched = adr.execute(query)
    other, _ = stack()
    plan, _ = other.plan_with_choice(query)
    per_id = execute_plan(
        plan, lambda c: other.store.read_chunk("sensors", c), query.mapping, query.grid,
        query.spec(), region=query.region, on_error="degrade",
    )
    if scenario == "transient" and retry:
        # The one place the paths part: three firings of a fault that
        # matches any chunk.  One id at a time, the first chunk takes
        # two of them and runs out of its two attempts; a batch spreads
        # them over its first three slots, and each heals on its retry.
        assert len(per_id.chunk_errors) == 1 and batched.chunk_errors == {}
        assert batched.completeness == 1.0
        return
    assert batched.chunk_errors == per_id.chunk_errors
    assert batched.completeness == per_id.completeness
    assert batched.n_reads == per_id.n_reads
    for a, b in zip(batched.chunk_values, per_id.chunk_values):
        np.testing.assert_array_equal(a, b)
