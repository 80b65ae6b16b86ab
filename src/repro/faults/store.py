"""Fault-injecting chunk-store wrapper.

:class:`FaultyChunkStore` sits between any real
:class:`~repro.store.chunk_store.ChunkStore` and its callers and
consults a :class:`~repro.faults.injector.FaultInjector` on every read.
Injected corruption is physical -- the decoded chunk is re-encoded, one
payload byte is flipped, and decoding trips the on-disk CRC -- so the
failure surfaces as the same
:class:`~repro.store.format.CorruptChunkError` a rotten file produces,
exercising the real integrity path rather than a simulated exception.

Compose it under the resilience wrappers to test them::

    CachedChunkStore(RetryingChunkStore(FaultyChunkStore(inner, injector),
                                        RetryPolicy(...)))
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.injector import FaultInjector
from repro.store.chunk_store import ChunkStore, ChunkStoreStage, ReadSlot

__all__ = ["FaultyChunkStore"]


class FaultyChunkStore(ChunkStoreStage):
    """Injects planned faults into reads of the wrapped store.

    Only the read path is fault-injected (the paper's degraded
    scenarios are all read-side: query processing never mutates input
    datasets); every slot of a batch is individually fault-checked
    (:meth:`FaultInjector.read_batch`), in whatever ``(node, disk,
    chunk id)`` placement order the caller reads in.
    """

    def __init__(self, inner: ChunkStore, injector: FaultInjector) -> None:
        super().__init__(inner)
        self.injector = injector

    def read_batch(self, dataset: str, chunk_ids: Sequence[int]) -> List[ReadSlot]:
        return self.injector.read_batch(
            lambda ids: self.inner.read_batch(dataset, ids), dataset, chunk_ids
        )
