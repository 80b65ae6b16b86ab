"""CachedChunkStore: the LRU payload cache."""

import numpy as np
import pytest

from repro.dataset.chunk import Chunk
from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore, InjectedFault
from repro.store.cache import CachedChunkStore
from repro.store.chunk_store import MemoryChunkStore


def make_chunks(rng, n=5, items=4):
    out = []
    for i in range(n):
        coords = rng.uniform(0, 10, size=(items, 2))
        out.append(Chunk.from_items(i, coords, rng.normal(size=items)))
    return out


def chunk_bytes(chunk):
    return chunk.coords.nbytes + chunk.values.nbytes


@pytest.fixture
def filled(rng):
    """A cached memory store holding 5 same-size chunks of 'ds'."""
    inner = MemoryChunkStore()
    chunks = make_chunks(rng)
    for i, c in enumerate(chunks):
        inner.write_chunk("ds", c, node=i % 2, disk=0)
    return CachedChunkStore(inner), chunks


class TestCacheBasics:
    def test_hit_serves_same_object(self, filled):
        store, _ = filled
        a = store.read_chunk("ds", 0)
        b = store.read_chunk("ds", 0)
        assert a is b  # served from cache, not re-decoded
        assert store.hits == 1 and store.misses == 1
        assert len(store) == 1 and store.nbytes == chunk_bytes(a)

    def test_stacking_refused(self, filled):
        store, _ = filled
        with pytest.raises(ValueError, match="stack"):
            CachedChunkStore(store)

    def test_stats_keys(self, filled):
        store, _ = filled
        store.read_chunk("ds", 0)
        stats = store.stats()
        assert stats["chunk_misses"] == 1 and stats["chunk_bytes"] > 0


class TestEviction:
    def test_lru_eviction_by_bytes(self, filled, rng):
        _, chunks = filled
        inner = MemoryChunkStore()
        for i, c in enumerate(chunks):
            inner.write_chunk("ds", c, node=0, disk=0)
        store = CachedChunkStore(inner, max_bytes=2 * chunk_bytes(chunks[0]))
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 1)
        assert len(store) == 2
        store.read_chunk("ds", 0)  # touch 0: chunk 1 becomes LRU
        store.read_chunk("ds", 2)  # evicts 1
        assert store.evictions == 1
        hits_before = store.hits
        store.read_chunk("ds", 0)
        assert store.hits == hits_before + 1  # 0 survived
        misses_before = store.misses
        store.read_chunk("ds", 1)
        assert store.misses == misses_before + 1  # 1 was evicted

    def test_oversized_chunk_not_cached(self, filled):
        _, chunks = filled
        inner = MemoryChunkStore()
        inner.write_chunk("ds", chunks[0], 0, 0)
        store = CachedChunkStore(inner, max_bytes=chunk_bytes(chunks[0]) - 1)
        store.read_chunk("ds", 0)
        assert len(store) == 0 and store.nbytes == 0


class TestInvalidation:
    def test_write_invalidates(self, filled, rng):
        store, _ = filled
        stale = store.read_chunk("ds", 0)
        replacement = Chunk.from_items(
            0, rng.uniform(0, 10, size=(4, 2)), rng.normal(size=4)
        )
        store.write_chunk("ds", replacement, 0, 0)
        fresh = store.read_chunk("ds", 0)
        assert fresh is not stale
        np.testing.assert_array_equal(fresh.values, replacement.values)

    def test_write_chunks_invalidates_and_falls_back(self, filled, rng):
        """MemoryChunkStore has no bulk write; the wrapper must fall
        back to per-chunk writes after invalidating."""
        store, _ = filled
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 1)
        fresh = make_chunks(rng, 2)
        store.write_chunks("ds", fresh, [(0, 0), (1, 0)])
        assert len(store) == 0
        got = store.read_chunk("ds", 1)
        np.testing.assert_array_equal(got.coords, fresh[1].coords)

    def test_delete_dataset_drops_only_that_dataset(self, filled, rng):
        store, _ = filled
        other = make_chunks(rng, 1)[0]
        store.inner.write_chunk("other", other, 0, 0)
        store.read_chunk("ds", 0)
        store.read_chunk("other", 0)
        store.delete_dataset("ds")
        assert len(store) == 1 and store.nbytes == chunk_bytes(other)
        with pytest.raises(KeyError):
            store.read_chunk("ds", 0)

    def test_invalidate_specific_ids(self, filled):
        store, _ = filled
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 1)
        store.invalidate("ds", [0])
        assert len(store) == 1


class TestCacheFailureHandling:
    """Failed reads are never cached; successes around a failure are."""

    def make_faulty(self, rng, plan):
        inner = MemoryChunkStore()
        for c in make_chunks(rng):
            inner.write_chunk("ds", c, 0, 0)
        return CachedChunkStore(FaultyChunkStore(inner, FaultInjector(plan)))

    def test_failure_not_cached_then_retry_reaches_inner(self, rng):
        store = self.make_faulty(rng, FaultPlan.flaky_read(chunk_id=1, times=1))
        with pytest.raises(InjectedFault):
            store.read_chunk("ds", 1)
        assert len(store) == 0  # the failure left no cache entry
        assert store.read_chunk("ds", 1).chunk_id == 1  # retry hits inner
        assert len(store) == 1

class TestPinning:
    """Shared-scan pinning: pinned payloads survive eviction pressure
    for the lifetime of a batch (the query service pins a batch's
    consecutive-overlap set, then unpins when the batch completes)."""

    def test_pinned_chunk_survives_eviction_pressure(self, filled):
        _, chunks = filled
        inner = MemoryChunkStore()
        for c in chunks:
            inner.write_chunk("ds", c, node=0, disk=0)
        store = CachedChunkStore(inner, max_bytes=2 * chunk_bytes(chunks[0]))
        store.pin("ds", [0])
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 1)
        store.read_chunk("ds", 2)  # would evict LRU chunk 0 if unpinned
        store.read_chunk("ds", 3)
        hits_before = store.hits
        store.read_chunk("ds", 0)
        assert store.hits == hits_before + 1  # still resident
        store.unpin("ds", [0])

    def test_unpinned_chunk_becomes_ordinary_victim(self, filled):
        _, chunks = filled
        inner = MemoryChunkStore()
        for c in chunks:
            inner.write_chunk("ds", c, node=0, disk=0)
        store = CachedChunkStore(inner, max_bytes=2 * chunk_bytes(chunks[0]))
        store.pin("ds", [0])
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 1)
        store.unpin("ds", [0])
        assert store.pinned_count == 0
        store.read_chunk("ds", 2)  # chunk 0 is LRU and evictable again
        misses_before = store.misses
        store.read_chunk("ds", 0)
        assert store.misses == misses_before + 1

    def test_pin_is_refcounted(self, filled):
        store, _ = filled
        store.pin("ds", [0, 1])
        store.pin("ds", [0])  # second batch pins chunk 0 too
        store.unpin("ds", [0, 1])
        assert store.pinned_count == 1  # chunk 0 still held once
        store.unpin("ds", [0])
        assert store.pinned_count == 0

    def test_unpin_unknown_key_is_ignored(self, filled):
        store, _ = filled
        store.unpin("ds", [99])
        assert store.pinned_count == 0

    def test_pinned_oversized_chunk_is_cached_anyway(self, filled):
        """An over-budget pinned insert is a bounded, deliberate
        overshoot: the batch that pinned it needs it resident."""
        _, chunks = filled
        inner = MemoryChunkStore()
        inner.write_chunk("ds", chunks[0], 0, 0)
        store = CachedChunkStore(inner, max_bytes=chunk_bytes(chunks[0]) - 1)
        store.pin("ds", [0])
        store.read_chunk("ds", 0)
        assert len(store) == 1
        assert store.nbytes > store.max_bytes
        store.unpin("ds", [0])

    def test_all_pinned_cache_stops_evicting(self, filled):
        _, chunks = filled
        inner = MemoryChunkStore()
        for c in chunks:
            inner.write_chunk("ds", c, node=0, disk=0)
        store = CachedChunkStore(inner, max_bytes=2 * chunk_bytes(chunks[0]))
        store.pin("ds", [0, 1, 2])
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 1)
        store.read_chunk("ds", 2)  # over budget, nothing evictable
        assert len(store) == 3
        assert store.evictions == 0
        store.unpin("ds", [0, 1, 2])


class TestScanRecorder:
    """Per-query attribution of cache traffic (exact even when many
    queries share the cache concurrently, unlike global-counter deltas)."""

    def test_records_miss_then_hit(self, filled):
        from repro.store.cache import ScanRecorder

        store, chunks = filled
        recorder = ScanRecorder()
        store.read_chunk("ds", 0, recorder=recorder)
        store.read_chunk("ds", 0, recorder=recorder)
        snap = recorder.snapshot()
        size = chunk_bytes(chunks[0])
        assert snap == {"hits": 1, "misses": 1,
                        "hit_bytes": size, "miss_bytes": size}

    def test_recorders_are_independent(self, filled):
        from repro.store.cache import ScanRecorder

        store, _ = filled
        first, second = ScanRecorder(), ScanRecorder()
        store.read_chunk("ds", 0, recorder=first)   # miss, warms cache
        store.read_chunk("ds", 0, recorder=second)  # hit for second only
        assert first.snapshot()["hits"] == 0
        assert second.snapshot() == {
            "hits": 1, "misses": 0,
            "hit_bytes": second.snapshot()["hit_bytes"], "miss_bytes": 0,
        }
        assert second.snapshot()["hit_bytes"] > 0

    def test_reads_without_recorder_still_count_globally(self, filled):
        store, _ = filled
        store.read_chunk("ds", 0)
        store.read_chunk("ds", 0)
        assert store.hits == 1 and store.misses == 1
