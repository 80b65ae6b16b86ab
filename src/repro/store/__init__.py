"""Storage substrate: the disk farm behind the ADR back end.

The paper's back end is "a set of processing nodes and multiple disks
attached to these nodes"; every chunk lives on exactly one disk and is
read/written only by the node the disk is attached to.  This package
provides that substrate for the functional path:

- :mod:`repro.store.format` -- self-describing binary chunk files with
  header and CRC (corruption surfaces as :class:`CorruptChunkError`);
- :mod:`repro.store.chunk_store` -- the store interface, a
  file-backed :class:`FileChunkStore` (one directory per (node, disk)),
  a :class:`MemoryChunkStore` for tests, and :class:`ChunkStoreStage`,
  the delegating base of everything stacked on a store;
- :mod:`repro.store.retry` -- :class:`RetryPolicy` (exponential
  backoff + per-read deadline) and the :class:`RetryingChunkStore`
  wrapper;
- :mod:`repro.store.cache` -- the LRU payload cache (never caches a
  failed read);
- :mod:`repro.store.prefetch` -- bounded threaded read-ahead
  (:class:`PrefetchPolicy` / :class:`TilePrefetcher`) overlapping
  chunk retrieval with tile reduction in placement order.

Performance experiments never touch this package; they use the
machine model in :mod:`repro.machine` / :mod:`repro.sim`.
"""

from repro.store.format import (
    encode_chunk,
    decode_chunk,
    ChunkFormatError,
    CorruptChunkError,
)
from repro.store.chunk_store import (
    ChunkStore,
    ChunkStoreStage,
    FileChunkStore,
    MemoryChunkStore,
    RECOVERABLE_READ_ERRORS,
)
from repro.store.prefetch import PrefetchPolicy, TilePrefetcher
from repro.store.retry import RetryPolicy, RetryingChunkStore

__all__ = [
    "encode_chunk",
    "decode_chunk",
    "ChunkFormatError",
    "CorruptChunkError",
    "ChunkStore",
    "ChunkStoreStage",
    "FileChunkStore",
    "MemoryChunkStore",
    "RECOVERABLE_READ_ERRORS",
    "PrefetchPolicy",
    "RetryPolicy",
    "RetryingChunkStore",
    "TilePrefetcher",
]
