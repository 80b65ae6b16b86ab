"""Measurement from outside: spans, a store probe, process memory.

Nothing here reaches into ``src/``: spans wrap the calls the benchmark
makes into public functions, and :class:`StoreProbe` is an ordinary
``ChunkStore`` placed under the program's cache.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.store.cache import CachedChunkStore
from repro.store.chunk_store import ChunkStore, FileChunkStore

clock = time.perf_counter
#: ``ADR``'s own default payload-cache size, spelled out because the
#: traced stack has to build the (timed) cache itself
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

_SPIN_ARRAY = np.arange(2000, dtype=float)


def spin() -> float:
    """The calibration kernel: a fixed ~0.1 ms of interpreter and NumPy
    work.  Timed beside every op, it tells how much slower than its own
    best the machine was running just then."""
    total = 0
    for i in range(1500):
        total += i * i
    return total + float((_SPIN_ARRAY * 1.0001 + 3.0).sum())


class SpanLog:
    """In-memory span recorder: ``[name, start, end, parent, op]`` rows,
    written as JSONL when the benchmark ends.  Nesting is tracked per
    thread, so server worker threads and the two ``service_shared``
    connections can share one log."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the body as a child of this thread's open span; yields
        the row's index (the ``parent`` to pass to :meth:`add`)."""
        stack = self._local.__dict__.setdefault("stack", [])
        row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        with self._lock:
            index = len(self.rows)
            self.rows.append(row)
        stack.append(index)
        row[1] = clock()
        try:
            yield index
        finally:
            row[2] = clock()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Record a span timed elsewhere (another thread's stage).  With
        ``parent=None`` the span overlapped the blocking path: it is
        written out but counts toward no budget."""
        with self._lock:
            self.rows.append([name, start, end, parent, self.op])

    def self_times(self, first: int = 0, under: Optional[str] = None) -> Dict[str, float]:
        """Seconds per span name over the rows from *first* on, each
        span minus the part of it its children cover.  With *under*,
        only the spans inside a top-level span of that name: the rows
        of a budget, which sum to that span's total."""
        rows = self.rows[first:]
        child = [0.0] * len(rows)
        inside = [False] * len(rows)
        for k, (name, start, end, parent, _) in enumerate(rows):
            if parent is None:
                continue
            if parent >= first:
                child[parent - first] += end - start
                inside[k] = inside[parent - first]
            else:
                inside[k] = under is None or name == under
        out: Dict[str, float] = {}
        for (name, start, end, _, _), covered, counts in zip(rows, child, inside):
            if counts:
                out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def dump(self, path: Path, tag: str) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.rows):
                f.write(json.dumps({
                    "log": tag, "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")


class StoreProbe(ChunkStore):
    """Counts what reaches the base ``FileChunkStore``; with a span log
    attached, also times it.

    Counting is always on (one dictionary lookup per base read, one
    ``stat`` per write) because ``read_amp`` is an end-to-end metric;
    file sizes come from the documented
    ``root/<dataset>/node*/disk*/chunk*.adc`` layout.
    """

    def __init__(self, inner: FileChunkStore) -> None:
        self.inner = inner
        self.root = inner.root
        self.spans: Optional[SpanLog] = None
        #: ``(dataset, chunk id)`` of every traced read, for replays
        self.read_log: List[tuple] = []
        self._sizes: Dict[str, Dict[int, int]] = {}
        self.reads = 0
        self.read_bytes = 0
        self.writes = 0
        self.write_bytes = 0
        self.manifest_bytes = 0

    def counters(self) -> Dict[str, int]:
        return {
            "reads": self.reads, "read_bytes": self.read_bytes,
            "writes": self.writes, "write_bytes": self.write_bytes,
            "manifest_bytes": self.manifest_bytes,
        }

    def _path(self, dataset: str, chunk_id: int) -> str:
        node, disk = self.inner.placement(dataset, chunk_id)
        return (
            f"{self.root}/{dataset}/node{node:03d}/disk{disk:02d}"
            f"/chunk{chunk_id:08d}.adc"
        )

    def _size(self, dataset: str, chunk_id: int) -> int:
        sizes = self._sizes.setdefault(dataset, {})
        size = sizes.get(chunk_id)
        if size is None:
            size = sizes[chunk_id] = os.path.getsize(self._path(dataset, chunk_id))
        return size

    def file_bytes(self, dataset: str, chunk_id: int) -> bytes:
        with open(self._path(dataset, chunk_id), "rb") as f:
            return f.read()

    def read_chunk(self, dataset: str, chunk_id: int):
        self.reads += 1
        self.read_bytes += self._size(dataset, chunk_id)
        if self.spans is None:
            return self.inner.read_chunk(dataset, chunk_id)
        self.read_log.append((dataset, chunk_id))
        with self.spans.span("store.read"):
            return self.inner.read_chunk(dataset, chunk_id)

    def _wrote(self, dataset: str, chunk_ids: List[int]) -> None:
        sizes = self._sizes.setdefault(dataset, {})
        for cid in chunk_ids:
            sizes.pop(cid, None)
            self.write_bytes += self._size(dataset, cid)
        self.writes += len(chunk_ids)
        self.manifest_bytes += os.path.getsize(f"{self.root}/{dataset}/manifest.json")

    def write_chunk(self, dataset: str, chunk, node: int, disk: int) -> None:
        if self.spans is None:
            self.inner.write_chunk(dataset, chunk, node, disk)
        else:
            with self.spans.span("store.write"):
                self.inner.write_chunk(dataset, chunk, node, disk)
        self._wrote(dataset, [chunk.chunk_id])

    def write_chunks(self, dataset: str, chunks, placements) -> None:
        if self.spans is None:
            self.inner.write_chunks(dataset, chunks, placements)
        else:
            with self.spans.span("store.write"):
                self.inner.write_chunks(dataset, chunks, placements)
        self._wrote(dataset, [c.chunk_id for c in chunks])

    def placement(self, dataset: str, chunk_id: int):
        return self.inner.placement(dataset, chunk_id)

    def chunk_ids(self, dataset: str):
        return self.inner.chunk_ids(dataset)

    def delete_dataset(self, dataset: str) -> None:
        self._sizes.pop(dataset, None)
        self.inner.delete_dataset(dataset)


class TimedCache(CachedChunkStore):
    """The program's cache with its public read/write calls timed (the
    traced run only).  Self time of ``store.cache`` is the cache's own
    work; the base store's spans nest inside it."""

    def __init__(self, inner: ChunkStore, max_bytes: int, spans: SpanLog) -> None:
        super().__init__(inner, max_bytes=max_bytes)
        self.spans = spans

    def read_chunk(self, dataset, chunk_id, recorder=None):
        with self.spans.span("store.cache"):
            return super().read_chunk(dataset, chunk_id, recorder=recorder)

    def write_chunk(self, dataset, chunk, node, disk) -> None:
        with self.spans.span("store.cache"):
            super().write_chunk(dataset, chunk, node, disk)

    def write_chunks(self, dataset, chunks, placements) -> None:
        with self.spans.span("store.cache"):
            super().write_chunks(dataset, chunks, placements)


def _status_mb(pid, field: str) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def rss_mb(pid="self") -> float:
    """Resident set right now."""
    return _status_mb(pid, "VmRSS")


def peak_rss_mb(pid="self") -> float:
    """High-water mark of the resident set over the process's life."""
    return _status_mb(pid, "VmHWM")
