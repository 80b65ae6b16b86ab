"""The deterministic fault-injection harness.

Determinism is the whole point: a FaultPlan with a seed must make the
same decisions on every run, and two injectors built from the same
plan must fire identically.
"""

import numpy as np
import pytest

from repro.dataset.chunk import Chunk
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyChunkStore,
    InjectedFault,
)
from repro.store.chunk_store import MemoryChunkStore
from repro.store.format import CorruptChunkError


def make_store(rng, n_chunks=4):
    store = MemoryChunkStore()
    for cid in range(n_chunks):
        coords = rng.uniform(0, 10, size=(5, 2))
        values = rng.uniform(0, 1, size=(5, 1))
        store.write_chunk("d", Chunk.from_items(cid, coords, values), 0, 0)
    return store


class TestFaultSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("io_error", p=1.5)

    def test_times_bounds(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec("io_error", times=0)

    def test_crash_needs_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FaultSpec("worker_crash")

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind, rank=0 if kind == "worker_crash" else None)


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        """Two injectors from one probabilistic plan fire identically."""
        plan = FaultPlan(
            (FaultSpec("io_error", p=0.5, times=None),), seed=42
        )
        decisions = []
        for _ in range(2):
            inj = FaultInjector(plan)
            run = []
            for read in range(50):
                try:
                    inj.apply_read_faults("d", read)
                    run.append(False)
                except InjectedFault:
                    run.append(True)
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])  # p=0.5 mixes

    def test_per_spec_streams_independent(self):
        """Adding a spec must not perturb another spec's draws."""

        def decisions(plan):
            inj = FaultInjector(plan)
            out = []
            for read in range(40):
                fired = inj.read_faults("d", read)
                out.append(any(s.kind == "slow_read" for s in fired))
            return out

        probe = FaultSpec("slow_read", p=0.5, times=None, delay=0.0)
        alone = decisions(FaultPlan((probe,), seed=7))
        with_other = decisions(
            FaultPlan((probe, FaultSpec("corrupt", chunk_id=999)), seed=7)
        )
        assert alone == with_other

    def test_times_bounds_firings(self):
        inj = FaultInjector(FaultPlan.flaky_read(times=2))
        fired = 0
        for read in range(10):
            try:
                inj.apply_read_faults("d", 0)
            except InjectedFault:
                fired += 1
        assert fired == 2

    def test_attempt_scoping(self):
        """attempt=0 specs fire only during attempt 0."""
        inj = FaultInjector(FaultPlan.crash_worker(rank=1, after_reads=3))
        inj.attempt = 1
        assert not inj.should_crash(1, 3)
        inj.attempt = 0
        assert inj.should_crash(1, 3)
        # one-shot: consumed
        assert not inj.should_crash(1, 3)

    def test_should_crash_matching(self):
        inj = FaultInjector(FaultPlan.crash_worker(rank=2, after_reads=1))
        assert not inj.should_crash(1, 1)  # wrong rank
        assert not inj.should_crash(2, 0)  # wrong read count
        assert inj.should_crash(2, 1)

    def test_should_drop_matching(self):
        inj = FaultInjector(
            FaultPlan.drop_messages(message_kind="seg", message_index=5)
        )
        assert not inj.should_drop("ghost", 5)
        assert not inj.should_drop("seg", 4)
        assert inj.should_drop("seg", 5)
        assert not inj.should_drop("seg", 5)  # times=1 consumed

    def test_fired_log(self):
        inj = FaultInjector(FaultPlan.corrupt_chunk(3))
        inj.read_faults("d", 3)
        assert len(inj.fired) == 1 and inj.fired[0].kind == "corrupt"


class TestSlowRead:
    def test_slow_read_sleeps_injected_clock(self):
        slept = []
        inj = FaultInjector(
            FaultPlan.slow_read(0.25, chunk_id=1), sleep=slept.append
        )
        inj.apply_read_faults("d", 0)
        assert slept == []
        inj.apply_read_faults("d", 1)
        assert slept == [0.25]


class TestFaultyChunkStore:
    def test_io_error(self, rng):
        store = FaultyChunkStore(
            make_store(rng), FaultInjector(FaultPlan.flaky_read(chunk_id=1))
        )
        store.read_chunk("d", 0)  # other chunks unaffected
        with pytest.raises(InjectedFault):
            store.read_chunk("d", 1)

    def test_corruption_is_physical(self, rng):
        """Injected corruption trips the real CRC path."""
        store = FaultyChunkStore(
            make_store(rng), FaultInjector(FaultPlan.corrupt_chunk(2))
        )
        with pytest.raises(CorruptChunkError, match="CRC"):
            store.read_chunk("d", 2)

    def test_corruption_persists_by_default(self, rng):
        store = FaultyChunkStore(
            make_store(rng), FaultInjector(FaultPlan.corrupt_chunk(2))
        )
        for _ in range(3):
            with pytest.raises(CorruptChunkError):
                store.read_chunk("d", 2)

    def test_flaky_read_heals(self, rng):
        store = FaultyChunkStore(
            make_store(rng), FaultInjector(FaultPlan.flaky_read(chunk_id=0, times=2))
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                store.read_chunk("d", 0)
        assert store.read_chunk("d", 0).chunk_id == 0

    def test_writes_pass_through(self, rng):
        inner = make_store(rng)
        store = FaultyChunkStore(inner, FaultInjector(FaultPlan()))
        coords = rng.uniform(0, 10, size=(3, 2))
        store.write_chunk("d", Chunk.from_items(9, coords, np.ones((3, 1))), 0, 0)
        assert 9 in inner.chunk_ids("d")

    def test_composes_with_retry(self, rng):
        """The documented composition: retry over a faulty store."""
        from repro.store.retry import RetryPolicy, RetryingChunkStore

        faulty = FaultyChunkStore(
            make_store(rng), FaultInjector(FaultPlan.flaky_read(times=2))
        )
        store = RetryingChunkStore(
            faulty, RetryPolicy(max_attempts=4, base_delay=0)
        )
        assert store.read_chunk("d", 0).chunk_id == 0
