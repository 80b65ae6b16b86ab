"""Bounded LRU payload cache over any :class:`ChunkStore`.

Batched queries share scans (:mod:`repro.frontend.queryservice`, and
the ``cached_inputs`` model of :mod:`repro.planner.batch`) only if a
chunk retrieved by one query is still in memory when the next query
asks for it.  :class:`CachedChunkStore` provides that memory: a
byte-bounded LRU of decoded :class:`~repro.dataset.chunk.Chunk`
payloads in front of the real store, transparently invalidated by
writes and dataset deletion.  The budget is a hard bound: a chunk
larger than the whole budget is not cached.

Cached chunks are shared between callers -- treat payload arrays as
read-only (the execution engine never mutates retrieved chunks).

Thread safety: all cache state (the LRU ordering, the byte budget and
the hit/miss/eviction counters) is guarded by one re-entrant lock,
because one ADR facade's cache is shared by every worker thread of a
:class:`~repro.frontend.queryservice.QueryService` executing queries
against it.  A batch read takes it twice, for all its lookups and then
all its inserts, never across the inner read of its misses, so a slow
disk stalls only the caller that missed.  The
static pass :mod:`repro.analysis.effects` (ADR705) enforces the
discipline: every mutation happens under ``with self._lock`` or
inside a ``*_locked`` helper.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataset.chunk import Chunk
from repro.store.chunk_store import ChunkStore, ChunkStoreStage, ReadSlot, unwrap
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
    :meth:`CachedChunkStore.read_batch` for every batch read on behalf
    of one query, and the cache tells the recorder, once per batch, how
    many of its reads were served from memory (*shared* reads -- some
    earlier query paid the disk retrieval) and how many went to the
    inner store.  Failed reads are not counted.  Locked like the
    cache, so a recorder is safe whichever
    :class:`~repro.frontend.queryservice.QueryService` worker thread
    issues its query's reads.
    """

    __slots__ = ("_lock", "hits", "misses", "hit_bytes", "miss_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0

    def record(self, hits: Sequence[Chunk], misses: Sequence[Chunk]) -> None:
        """Count one batch: its chunks served from memory, and read."""
        with self._lock:
            self.hits += len(hits)
            self.hit_bytes += sum(map(_chunk_bytes, hits))
            self.misses += len(misses)
            self.miss_bytes += sum(map(_chunk_bytes, misses))

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
        """Insert under ``self._lock``, evicting LRU entries to fit."""
        size = _chunk_bytes(chunk)
        if key in self._entries or size > self.max_bytes:
            return
        while self._bytes + size > self.max_bytes:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= _chunk_bytes(victim)
            self.evictions += 1
        self._entries[key] = chunk
        self._bytes += size

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

    def read_batch(
        self,
        dataset: str,
        chunk_ids: Sequence[int],
        recorder: Optional[ScanRecorder] = None,
    ) -> List[ReadSlot]:
        """Serve the hits, then read every miss in one inner batch, with
        the lock dropped.  A failed slot is never cached; all lookups
        precede all inserts, so no insert evicts a later slot's hit."""
        keys = [(dataset, int(c)) for c in chunk_ids]
        with self._lock:
            out: List[ReadSlot] = [self._lookup_locked(k) for k in keys]
        missed = [i for i, c in enumerate(out) if c is None]
        hits = [c for c in out if c is not None] if recorder is not None else []
        if missed:
            fetched = self.inner.read_batch(dataset, [keys[i][1] for i in missed])
            with self._lock:
                for i, slot in zip(missed, fetched):
                    out[i] = slot
                    if isinstance(slot, Chunk):
                        self._insert_locked(keys[i], slot)
        if recorder is not None:
            recorder.record(hits, [out[i] for i in missed if isinstance(out[i], Chunk)])
        return out

    def read_chunk(
        self,
        dataset: str,
        chunk_id: int,
        recorder: Optional[ScanRecorder] = None,
    ) -> Chunk:
        (slot,) = self.read_batch(dataset, [chunk_id], recorder=recorder)
        return unwrap(slot)

    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        self.invalidate(dataset, [chunk.chunk_id])
        self.inner.write_chunk(dataset, chunk, node, disk)

    def write_chunks(self, dataset: str, chunks, placements) -> None:
        self.invalidate(dataset)  # the dataset is replaced, dropped ids too
        self.inner.write_chunks(dataset, chunks, placements)

    def delete_dataset(self, dataset: str) -> None:
        self.invalidate(dataset)
        self.inner.delete_dataset(dataset)
