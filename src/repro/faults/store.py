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

from repro.dataset.chunk import Chunk
from repro.faults.injector import FaultInjector
from repro.store.chunk_store import ChunkStore, ChunkStoreStage
from repro.store.format import decode_chunk, encode_chunk

__all__ = ["FaultyChunkStore", "corrupt_decode"]


def corrupt_decode(chunk: Chunk) -> Chunk:
    """Re-encode *chunk*, flip one payload byte, decode.

    Always raises :class:`~repro.store.format.CorruptChunkError` (the
    flipped byte is in the CRC-covered body); the return type exists
    only for signature honesty.
    """
    data = bytearray(encode_chunk(chunk))
    data[-1] ^= 0xFF
    return decode_chunk(bytes(data))


class FaultyChunkStore(ChunkStoreStage):
    """Injects planned faults into reads of the wrapped store.

    Only the read path is fault-injected (the paper's degraded
    scenarios are all read-side: query processing never mutates input
    datasets); every chunk read is individually fault-checked, in
    whatever ``(node, disk, chunk id)`` placement order the caller
    reads in.
    """

    def __init__(self, inner: ChunkStore, injector: FaultInjector) -> None:
        super().__init__(inner)
        self.injector = injector

    def read_chunk(self, dataset: str, chunk_id: int) -> Chunk:
        corrupt = self.injector.apply_read_faults(dataset, chunk_id)
        chunk = self.inner.read_chunk(dataset, chunk_id)
        if corrupt:
            return corrupt_decode(chunk)
        return chunk
