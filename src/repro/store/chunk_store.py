"""Chunk stores: where loaded chunks live.

A store holds the chunks of one or more datasets, organized by
placement: every chunk belongs to a ``(node, disk)`` pair, mirroring
the ADR rule that "each chunk is assigned to a single disk, and is
read and/or written during query processing only by the local
processor to which the disk is attached".

:class:`FileChunkStore` materializes the disk farm as a directory tree

    root/<dataset>/node<NNN>/disk<NN>/chunk<NNNNNNNN>.adc

plus a per-dataset ``manifest.json`` recording placements, so a store
can be reopened later.  :class:`MemoryChunkStore` implements the same
interface in dictionaries for tests and small examples.

Every file is read by one reader, :meth:`FileChunkStore._read_file`,
and written by one writer, :meth:`FileChunkStore._write_file`.  Files
are rewritten in place, never truncated to zero first, and the
manifest only when a placement changed.  ``write_chunk`` renames a
temporary file over the chunk, so it is atomic; a torn ``write_chunks``
file fails its CRC on read.  Nothing calls ``fsync``.

:class:`ChunkStoreStage` is the base of everything stacked on a store
(payload cache, read retry, fault injection): it forwards the whole
interface to ``inner``, and a stage overrides only what it changes.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.dataset.chunk import Chunk
from repro.store.format import ChunkFormatError, decode_chunk, encode_chunk

__all__ = [
    "ChunkStore",
    "ChunkStoreStage",
    "FileChunkStore",
    "MemoryChunkStore",
    "RECOVERABLE_READ_ERRORS",
]

Placement = Tuple[int, int]

#: Exception classes a degraded query (``on_error='degrade'``) may
#: absorb on a chunk read: damage (:class:`ChunkFormatError`, which
#: includes :class:`~repro.store.format.CorruptChunkError`), I/O
#: failure (``OSError``, which includes injected faults), and absence
#: (``KeyError``).  Anything else -- a planner bug, a kernel assertion
#: -- is never swallowed.
RECOVERABLE_READ_ERRORS: Tuple[type, ...] = (ChunkFormatError, OSError, KeyError)


class ChunkStore(ABC):
    """Interface shared by file-backed and in-memory stores."""

    @abstractmethod
    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        """Store *chunk* on ``(node, disk)`` under *dataset*."""

    @abstractmethod
    def read_chunk(self, dataset: str, chunk_id: int) -> Chunk:
        """Retrieve a chunk by id (raises ``KeyError`` if absent)."""

    @abstractmethod
    def placement(self, dataset: str, chunk_id: int) -> Placement:
        """The ``(node, disk)`` a chunk was written to."""

    @abstractmethod
    def chunk_ids(self, dataset: str) -> List[int]:
        """All chunk ids stored for *dataset* (sorted)."""

    @abstractmethod
    def delete_dataset(self, dataset: str) -> None:
        """Remove a dataset and all its chunks."""

    def write_chunks(
        self, dataset: str, chunks: Sequence[Chunk], placements: Sequence[Placement]
    ) -> None:
        """Store *chunks*, one placement each, as the whole of *dataset*
        (the loader's bulk path): afterwards :meth:`chunk_ids` lists
        exactly their ids, so reloading a name drops the chunks the
        earlier load had beyond them.  Stores with a cheaper bulk form
        override it."""
        if len(chunks) != len(placements):
            raise ValueError("one placement per chunk required")
        try:
            stale = set(self.chunk_ids(dataset)) - {c.chunk_id for c in chunks}
        except KeyError:  # a new dataset
            stale = set()
        if stale:
            self.delete_dataset(dataset)
        for chunk, (node, disk) in zip(chunks, placements):
            self.write_chunk(dataset, chunk, node, disk)

    def placements(self, dataset: str) -> Dict[int, Placement]:
        return {cid: self.placement(dataset, cid) for cid in self.chunk_ids(dataset)}


class ChunkStoreStage(ChunkStore):
    """A store stacked on another: every call goes to ``inner``.

    Reads go chunk by chunk through :meth:`read_chunk` -- the prefetcher
    issues them in ``(node, disk, chunk id)`` placement order -- so a
    stage that overrides it sees every read.
    """

    def __init__(self, inner: ChunkStore) -> None:
        self.inner = inner

    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        self.inner.write_chunk(dataset, chunk, node, disk)

    def write_chunks(
        self, dataset: str, chunks: Sequence[Chunk], placements: Sequence[Placement]
    ) -> None:
        self.inner.write_chunks(dataset, chunks, placements)

    def read_chunk(self, dataset: str, chunk_id: int) -> Chunk:
        return self.inner.read_chunk(dataset, chunk_id)

    def placement(self, dataset: str, chunk_id: int) -> Placement:
        return self.inner.placement(dataset, chunk_id)

    def chunk_ids(self, dataset: str) -> List[int]:
        return self.inner.chunk_ids(dataset)

    def delete_dataset(self, dataset: str) -> None:
        self.inner.delete_dataset(dataset)


class MemoryChunkStore(ChunkStore):
    """Dictionary-backed store (keeps encoded bytes, so the format
    round-trip is exercised even in memory)."""

    def __init__(self) -> None:
        self._data: Dict[str, Dict[int, bytes]] = {}
        self._place: Dict[str, Dict[int, Placement]] = {}

    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        if node < 0 or disk < 0:
            raise ValueError("placement indices must be non-negative")
        self._data.setdefault(dataset, {})[chunk.chunk_id] = encode_chunk(chunk)
        self._place.setdefault(dataset, {})[chunk.chunk_id] = (node, disk)

    def read_chunk(self, dataset: str, chunk_id: int) -> Chunk:
        try:
            raw = self._data[dataset][chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} of {dataset!r} not in store") from None
        return decode_chunk(raw)

    def placement(self, dataset: str, chunk_id: int) -> Placement:
        try:
            return self._place[dataset][chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} of {dataset!r} not in store") from None

    def chunk_ids(self, dataset: str) -> List[int]:
        return sorted(self._data.get(dataset, {}).keys())

    def delete_dataset(self, dataset: str) -> None:
        self._data.pop(dataset, None)
        self._place.pop(dataset, None)

    def nbytes(self) -> int:
        """Total encoded bytes held (for memory accounting in tests)."""
        return sum(len(b) for d in self._data.values() for b in d.values())


class FileChunkStore(ChunkStore):
    """Directory-tree store emulating a multi-disk farm."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # dataset -> chunk_id -> (node, disk); lazily loaded from manifests.
        self._manifests: Dict[str, Dict[int, Placement]] = {}
        self._dataset_dirs: Dict[str, str] = {}

    # -- paths -----------------------------------------------------------

    def _dataset_dir(self, dataset: str) -> Path:
        if not dataset or "/" in dataset or dataset.startswith("."):
            raise ValueError(f"invalid dataset name {dataset!r}")
        return self.root / dataset

    def _chunk_path(self, dataset: str, chunk_id: int, node: int, disk: int) -> str:
        # One string format per read/write; the dataset directory is
        # validated and resolved once per dataset.
        base = self._dataset_dirs.get(dataset)
        if base is None:
            base = self._dataset_dirs[dataset] = str(self._dataset_dir(dataset))
        return f"{base}/node{node:03d}/disk{disk:02d}/chunk{chunk_id:08d}.adc"

    @staticmethod
    def _write_file(path: str, data: bytes) -> None:
        """Make *data* the whole file at *path*: overwrite the old bytes
        in place, then cut the file to ``len(data)``.  Truncating an
        existing file to zero first makes ext4 start writeback on close,
        ten times the cost of the write.  Only a directory's first file
        makes the directory."""
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)

    @staticmethod
    def _read_file(path: str) -> bytes:
        """The whole file at *path*, the mirror of :meth:`_write_file`:
        ``os.open``, ``os.fstat``, then ``os.read`` until the size is in
        hand (a file object from ``open()`` costs more than the syscalls).
        A file cut short under the reader comes back short, for the
        decoder to reject."""
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            data = os.read(fd, size)
            while len(data) < size and (more := os.read(fd, size - len(data))):
                data += more
            return data
        finally:
            os.close(fd)

    def _manifest_path(self, dataset: str) -> Path:
        return self._dataset_dir(dataset) / "manifest.json"

    # -- manifest ------------------------------------------------------------

    def _manifest(self, dataset: str) -> Dict[int, Placement]:
        if dataset not in self._manifests:
            try:
                raw = json.loads(self._read_file(str(self._manifest_path(dataset))))
            except FileNotFoundError:
                raise KeyError(f"dataset {dataset!r} not in store") from None
            self._manifests[dataset] = {
                int(k): (int(v[0]), int(v[1])) for k, v in raw["placements"].items()
            }
        return self._manifests[dataset]

    def _manifest_or_new(self, dataset: str) -> Dict[int, Placement]:
        """The manifest, or a new one kept out of ``_manifests`` until it
        is saved: ``_manifests`` holds only manifests on disk."""
        try:
            return self._manifest(dataset)
        except KeyError:
            return {}

    def _save_manifest(self, dataset: str) -> None:
        path = self._manifest_path(dataset)
        payload = {
            "placements": {
                str(k): list(v) for k, v in self._manifests[dataset].items()
            }
        }
        tmp = str(path.with_suffix(".tmp"))
        self._write_file(tmp, json.dumps(payload).encode("utf-8"))
        os.replace(tmp, path)

    # -- store interface ---------------------------------------------------------

    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        if node < 0 or disk < 0:
            raise ValueError("placement indices must be non-negative")
        path = self._chunk_path(dataset, chunk.chunk_id, node, disk)
        tmp = os.path.splitext(path)[0] + ".tmp"
        self._write_file(tmp, encode_chunk(chunk))
        os.replace(tmp, path)
        manifest = self._manifest_or_new(dataset)
        if manifest.get(chunk.chunk_id) != (node, disk):
            manifest[chunk.chunk_id] = (node, disk)
            self._manifests[dataset] = manifest
            self._save_manifest(dataset)

    def write_chunks(
        self, dataset: str, chunks: Sequence[Chunk], placements: Sequence[Placement]
    ) -> None:
        """Bulk write with one manifest flush at most (loader fast path).

        The new manifest replaces the old one before the files it no
        longer lists where they are -- dropped ids, moved chunks -- are
        removed, so a crash in between leaves strays, never a manifest
        entry without its file; reloading the same ids to the same
        places removes nothing."""
        if len(chunks) != len(placements):
            raise ValueError("one placement per chunk required")
        old = self._manifest_or_new(dataset)
        manifest: Dict[int, Placement] = {}
        for chunk, (node, disk) in zip(chunks, placements):
            if node < 0 or disk < 0:
                raise ValueError("placement indices must be non-negative")
            path = self._chunk_path(dataset, chunk.chunk_id, node, disk)
            self._write_file(path, encode_chunk(chunk))
            manifest[chunk.chunk_id] = (node, disk)
        if manifest == old and dataset in self._manifests:
            return
        self._manifests[dataset] = manifest
        self._save_manifest(dataset)
        for chunk_id, placement in old.items():
            if manifest.get(chunk_id) != placement:
                try:
                    os.remove(self._chunk_path(dataset, chunk_id, *placement))
                except FileNotFoundError:  # noqa: ADR401 -- already gone: nothing is lost
                    pass

    def read_chunk(self, dataset: str, chunk_id: int) -> Chunk:
        node, disk = self.placement(dataset, chunk_id)
        path = self._chunk_path(dataset, chunk_id, node, disk)
        try:
            data = self._read_file(path)
        except FileNotFoundError:
            raise ChunkFormatError(
                f"manifest lists chunk {chunk_id} of {dataset!r} at "
                f"node {node} disk {disk} but the file is missing"
            ) from None
        chunk = decode_chunk(data)
        if chunk.chunk_id != chunk_id:
            raise ChunkFormatError(
                f"file {path} claims chunk id {chunk.chunk_id}, "
                f"expected {chunk_id}"
            )
        return chunk

    def placement(self, dataset: str, chunk_id: int) -> Placement:
        manifest = self._manifest(dataset)
        try:
            return manifest[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} of {dataset!r} not in store") from None

    def chunk_ids(self, dataset: str) -> List[int]:
        return sorted(self._manifest(dataset).keys())

    def delete_dataset(self, dataset: str) -> None:
        import shutil

        directory = self._dataset_dir(dataset)
        if directory.exists():
            shutil.rmtree(directory)
        self._manifests.pop(dataset, None)
