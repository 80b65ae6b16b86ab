"""Bounded LRU payload cache over any :class:`ChunkStore`.

Batched queries deliberately ordered for shared scans
(:mod:`repro.planner.batch` and its ``cached_inputs`` model) only pay
off if a chunk retrieved by one query is still in memory when the next
query asks for it.  :class:`CachedChunkStore` provides that memory: a
byte-bounded LRU of decoded :class:`~repro.dataset.chunk.Chunk`
payloads in front of the real store, transparently invalidated by
writes and dataset deletion.

Cached chunks are shared between callers -- treat payload arrays as
read-only (the execution engine never mutates retrieved chunks).

Thread safety: all cache state (the LRU ordering, the byte budget and
the hit/miss/eviction counters) is guarded by one re-entrant lock, so
the cache may sit under a multi-worker
:class:`~repro.store.prefetch.TilePrefetcher` or be shared between a
query thread and a prefetch thread.  The lock is never held across an
inner-store read (misses fetch outside the guarded section and insert
on return), so a slow disk stalls only the caller that missed.  The
static pass :mod:`repro.analysis.effects` (ADR705) enforces the
discipline: every mutation happens under ``with self._lock`` or
inside a ``*_locked`` helper.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.dataset.chunk import Chunk
from repro.store.chunk_store import ChunkStore, ChunkStoreStage
from repro.util.units import MB

__all__ = ["CachedChunkStore", "ScanRecorder"]

_Key = Tuple[str, int]


def _chunk_bytes(chunk: Chunk) -> int:
    return int(chunk.coords.nbytes) + int(chunk.values.nbytes)


class ScanRecorder:
    """Per-query tally of payload-cache sharing.

    The cache's ``hits``/``misses`` counters are instance-global: under
    a concurrent query service many queries mutate them at once, so a
    before/after delta cannot attribute a hit to a query.  A recorder
    is the exact per-query view: the caller passes one to
    :meth:`CachedChunkStore.read_chunk` for every read issued on behalf
    of one query, and the cache tells the recorder whether that read
    was served from memory (a *shared* read -- some earlier query paid
    the disk retrieval) or went to the inner store.  Thread-safe, so
    prefetch worker threads reading for the same query may share one.
    """

    __slots__ = ("_lock", "hits", "misses", "hit_bytes", "miss_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0

    def record(self, hit: bool, nbytes: int) -> None:
        with self._lock:
            if hit:
                self.hits += 1
                self.hit_bytes += int(nbytes)
            else:
                self.misses += 1
                self.miss_bytes += int(nbytes)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_bytes": self.hit_bytes,
                "miss_bytes": self.miss_bytes,
            }


class CachedChunkStore(ChunkStoreStage):
    """LRU-cached view of *inner*, bounded by decoded payload bytes.

    Reads fill the cache; writes and deletions invalidate the affected
    entries before delegating, so the cache can never serve stale
    payloads for data modified *through this wrapper*.  (Mutating the
    wrapped store directly bypasses invalidation -- keep one handle.)
    """

    def __init__(self, inner: ChunkStore, max_bytes: int = 64 * MB) -> None:
        if isinstance(inner, CachedChunkStore):
            raise ValueError("refusing to stack chunk caches")
        super().__init__(inner)
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[_Key, Chunk]" = OrderedDict()
        self._pins: Dict[_Key, int] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- cache mechanics ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def _insert_locked(self, key: _Key, chunk: Chunk) -> None:
        """Insert under ``self._lock`` (evicting LRU entries to fit).

        Pinned keys are always inserted and never chosen as eviction
        victims: a shared-scan batch that pinned its overlap set is
        guaranteed the successor query finds the chunk in memory.  The
        byte budget may therefore be exceeded transiently, bounded by
        the pinned set's size (the query service unpins when the batch
        completes).
        """
        size = _chunk_bytes(chunk)
        pinned = key in self._pins
        if key in self._entries or (size > self.max_bytes and not pinned):
            return
        while self._bytes + size > self.max_bytes:
            victim = next((k for k in self._entries if k not in self._pins), None)
            if victim is None:
                break  # everything resident is pinned
            self._bytes -= _chunk_bytes(self._entries.pop(victim))
            self.evictions += 1
        if self._bytes + size <= self.max_bytes or pinned:
            self._entries[key] = chunk
            self._bytes += size

    # -- pinning ----------------------------------------------------------

    def pin(self, dataset: str, chunk_ids) -> None:
        """Protect ``(dataset, id)`` payloads from eviction until the
        matching :meth:`unpin`.  Counted: concurrent batches pinning
        the same chunk each hold an independent reference."""
        with self._lock:
            for cid in chunk_ids:
                key = (dataset, int(cid))
                self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, dataset: str, chunk_ids) -> None:
        """Release pins taken by :meth:`pin` (unknown keys ignored).
        Entries left over budget become ordinary LRU victims again."""
        with self._lock:
            for cid in chunk_ids:
                key = (dataset, int(cid))
                n = self._pins.get(key)
                if n is None:
                    continue
                if n <= 1:
                    del self._pins[key]
                else:
                    self._pins[key] = n - 1

    @property
    def pinned_count(self) -> int:
        with self._lock:
            return len(self._pins)

    def _lookup_locked(self, key: _Key) -> Optional[Chunk]:
        """Probe under ``self._lock``; counts the hit/miss."""
        chunk = self._entries.get(key)
        if chunk is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return chunk

    def invalidate(self, dataset: str, chunk_ids: Optional[List[int]] = None) -> None:
        """Drop cached payloads of *dataset* (or just *chunk_ids*)."""
        with self._lock:
            if chunk_ids is None:
                doomed = [k for k in self._entries if k[0] == dataset]
            else:
                wanted = set(int(c) for c in chunk_ids)
                doomed = [
                    k for k in self._entries if k[0] == dataset and k[1] in wanted
                ]
            for key in doomed:
                self._bytes -= _chunk_bytes(self._entries.pop(key))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "chunk_hits": self.hits,
                "chunk_misses": self.misses,
                "chunk_evictions": self.evictions,
                "chunk_bytes": self._bytes,
            }

    # -- store interface ---------------------------------------------------

    def read_chunk(
        self,
        dataset: str,
        chunk_id: int,
        recorder: Optional[ScanRecorder] = None,
    ) -> Chunk:
        key = (dataset, int(chunk_id))
        with self._lock:
            chunk = self._lookup_locked(key)
        if chunk is not None:
            if recorder is not None:
                recorder.record(True, _chunk_bytes(chunk))
            return chunk
        # The lock is dropped across the inner read: a raising read
        # inserts nothing (failures are never cached, a later retry
        # reaches the real store) and a slow disk stalls only the
        # caller that missed.
        chunk = self.inner.read_chunk(dataset, chunk_id)
        with self._lock:
            self._insert_locked(key, chunk)
        if recorder is not None:
            recorder.record(False, _chunk_bytes(chunk))
        return chunk

    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        self.invalidate(dataset, [chunk.chunk_id])
        self.inner.write_chunk(dataset, chunk, node, disk)

    def write_chunks(self, dataset: str, chunks, placements) -> None:
        self.invalidate(dataset)  # the dataset is replaced, dropped ids too
        self.inner.write_chunks(dataset, chunks, placements)

    def delete_dataset(self, dataset: str) -> None:
        self.invalidate(dataset)
        self.inner.delete_dataset(dataset)
