"""Tests for chunk stores (file-backed and in-memory)."""

import numpy as np
import pytest

from repro.dataset.chunk import Chunk
from repro.store.chunk_store import FileChunkStore, MemoryChunkStore
from repro.store.format import (
    ChunkFormatError,
    CorruptChunkError,
    decode_chunk,
    encode_chunk,
)


def make_chunks(rng, n=5):
    out = []
    for i in range(n):
        coords = rng.uniform(0, 10, size=(4, 2))
        out.append(Chunk.from_items(i, coords, rng.normal(size=4)))
    return out


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryChunkStore()
    return FileChunkStore(tmp_path / "farm")


class TestStoreInterface:
    def test_write_read_roundtrip(self, store, rng):
        chunks = make_chunks(rng)
        for i, c in enumerate(chunks):
            store.write_chunk("ds", c, node=i % 2, disk=0)
        for i, c in enumerate(chunks):
            back = store.read_chunk("ds", i)
            np.testing.assert_array_equal(back.coords, c.coords)
            np.testing.assert_array_equal(back.values, c.values)

    def test_placement(self, store, rng):
        c = make_chunks(rng, 1)[0]
        store.write_chunk("ds", c, node=3, disk=1)
        assert store.placement("ds", 0) == (3, 1)
        assert store.placements("ds") == {0: (3, 1)}

    def test_chunk_ids_sorted(self, store, rng):
        for c in reversed(make_chunks(rng, 4)):
            store.write_chunk("ds", c, 0, 0)
        assert store.chunk_ids("ds") == [0, 1, 2, 3]

    def test_missing_chunk(self, store, rng):
        store.write_chunk("ds", make_chunks(rng, 1)[0], 0, 0)
        with pytest.raises(KeyError):
            store.read_chunk("ds", 99)

    def test_missing_dataset(self, store):
        with pytest.raises(KeyError):
            store.chunk_ids("absent") if isinstance(store, FileChunkStore) else store.read_chunk("absent", 0)

    def test_delete_dataset(self, store, rng):
        store.write_chunk("ds", make_chunks(rng, 1)[0], 0, 0)
        store.delete_dataset("ds")
        with pytest.raises(KeyError):
            store.read_chunk("ds", 0)

    def test_negative_placement_rejected(self, store, rng):
        with pytest.raises(ValueError):
            store.write_chunk("ds", make_chunks(rng, 1)[0], -1, 0)

    def test_multiple_datasets_isolated(self, store, rng):
        a, b = make_chunks(rng, 2)
        store.write_chunk("d1", a, 0, 0)
        store.write_chunk("d2", b, 1, 0)
        assert store.chunk_ids("d1") == [0]
        assert store.placement("d2", 1) == (1, 0)

    def test_bulk_write_replaces_the_dataset(self, store, rng):
        """Reloading a name lists exactly the new ids: the chunks the
        first load had beyond them are gone, not merged in."""
        chunks = make_chunks(rng, 20)
        store.write_chunks("ds", chunks, [(i % 3, 0) for i in range(20)])
        store.write_chunks("ds", chunks[:4], [(i % 3, 0) for i in range(4)])
        assert store.chunk_ids("ds") == [0, 1, 2, 3]
        with pytest.raises(KeyError):
            store.read_chunk("ds", 10)
        store.write_chunks("ds", chunks[:6], [(0, 0)] * 6)  # grow again
        assert store.chunk_ids("ds") == list(range(6))
        np.testing.assert_array_equal(store.read_chunk("ds", 5).values, chunks[5].values)


class TestFileStoreSpecifics:
    def test_reopen_from_manifest(self, tmp_path, rng):
        root = tmp_path / "farm"
        chunks = make_chunks(rng, 3)
        s1 = FileChunkStore(root)
        s1.write_chunks("ds", chunks, [(0, 0), (1, 0), (0, 0)])
        s2 = FileChunkStore(root)  # fresh handle, manifest-driven
        assert s2.chunk_ids("ds") == [0, 1, 2]
        assert s2.placement("ds", 1) == (1, 0)
        np.testing.assert_array_equal(s2.read_chunk("ds", 2).coords, chunks[2].coords)

    @staticmethod
    def chunk_files(root):
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.adc"))

    def test_reload_removes_dropped_and_moved_files_and_reopens(self, tmp_path, rng):
        root = tmp_path / "farm"
        chunks = make_chunks(rng, 20)
        store = FileChunkStore(root)
        store.write_chunks("ds", chunks, [(i % 2, 0) for i in range(20)])
        assert len(self.chunk_files(root)) == 20
        # four stay, chunk 3 moves from node 1 to node 0
        store.write_chunks("ds", chunks[:4], [(0, 0), (1, 0), (0, 0), (0, 0)])
        assert self.chunk_files(root) == [
            f"ds/node000/disk00/chunk{i:08d}.adc" for i in (0, 2, 3)
        ] + ["ds/node001/disk00/chunk00000001.adc"]
        reopened = FileChunkStore(root)
        assert reopened.chunk_ids("ds") == [0, 1, 2, 3]
        assert reopened.placement("ds", 3) == (0, 0)
        np.testing.assert_array_equal(reopened.read_chunk("ds", 3).values, chunks[3].values)

    def test_reloading_the_same_ids_adds_no_file_system_call(self, tmp_path, rng, monkeypatch):
        """The bulk path of a reload in place -- ``update_write`` does it
        every other op -- pays for the writes only: one open per chunk
        file, none of them truncating it to zero, and no manifest flush."""
        import builtins
        import os

        import repro.store.chunk_store as chunk_store

        store = FileChunkStore(tmp_path / "farm")
        chunks, places = make_chunks(rng, 5), [(i % 2, 0) for i in range(5)]
        store.write_chunks("ds", chunks, places)
        calls = []

        def logged(name, real):
            return lambda *a, **k: calls.append((name, a)) or real(*a, **k)

        monkeypatch.setattr(chunk_store.os, "open", logged("os.open", os.open))
        monkeypatch.setattr(chunk_store, "open", logged("open", builtins.open), raising=False)
        monkeypatch.setattr(chunk_store.os, "remove", logged("remove", os.remove))
        monkeypatch.setattr(chunk_store.Path, "exists", logged("exists", chunk_store.Path.exists))
        monkeypatch.setattr(store, "_save_manifest", logged("flush", store._save_manifest))
        reloaded = make_chunks(rng, 5)
        store.write_chunks("ds", reloaded, places)
        ids = store.chunk_ids("ds")
        monkeypatch.undo()
        assert [name for name, _ in calls] == ["os.open"] * 5
        assert not any(args[1] & os.O_TRUNC for _, args in calls)
        assert ids == list(range(5))
        reopened = FileChunkStore(tmp_path / "farm")
        assert reopened.placements("ds") == dict(enumerate(places))
        np.testing.assert_array_equal(reopened.read_chunk("ds", 4).values, reloaded[4].values)

    def test_single_write_on_a_reopened_store_keeps_the_rest(self, tmp_path, rng):
        root = tmp_path / "farm"
        chunks = make_chunks(rng, 3)
        FileChunkStore(root).write_chunks("ds", chunks, [(0, 0)] * 3)
        FileChunkStore(root).write_chunk("ds", chunks[1], 1, 0)  # a fresh handle
        assert FileChunkStore(root).placements("ds") == {0: (0, 0), 1: (1, 0), 2: (0, 0)}

    def test_directory_layout(self, tmp_path, rng):
        s = FileChunkStore(tmp_path / "farm")
        s.write_chunk("ds", make_chunks(rng, 1)[0], node=2, disk=1)
        expected = tmp_path / "farm" / "ds" / "node002" / "disk01" / "chunk00000000.adc"
        assert expected.exists()

    def test_corrupt_file_detected(self, tmp_path, rng):
        s = FileChunkStore(tmp_path / "farm")
        s.write_chunk("ds", make_chunks(rng, 1)[0], 0, 0)
        path = tmp_path / "farm" / "ds" / "node000" / "disk00" / "chunk00000000.adc"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChunkFormatError):
            s.read_chunk("ds", 0)

    def test_missing_file_with_manifest_entry(self, tmp_path, rng):
        s = FileChunkStore(tmp_path / "farm")
        s.write_chunk("ds", make_chunks(rng, 1)[0], 0, 0)
        (tmp_path / "farm" / "ds" / "node000" / "disk00" / "chunk00000000.adc").unlink()
        with pytest.raises(ChunkFormatError, match="missing"):
            s.read_chunk("ds", 0)

    def test_invalid_dataset_name(self, tmp_path, rng):
        s = FileChunkStore(tmp_path / "farm")
        with pytest.raises(ValueError):
            s.write_chunk("../evil", make_chunks(rng, 1)[0], 0, 0)

    def test_bulk_write_length_mismatch(self, tmp_path, rng):
        s = FileChunkStore(tmp_path / "farm")
        with pytest.raises(ValueError):
            s.write_chunks("ds", make_chunks(rng, 2), [(0, 0)])


class TestWritePath:
    """Files are rewritten where they are and the manifest is flushed
    only when a placement changed; every write still leaves a manifest
    from which a fresh store reads back every placement."""

    @staticmethod
    def count_flushes(store):
        flushes, save = [], store._save_manifest
        store._save_manifest = lambda dataset: flushes.append(dataset) or save(dataset)
        return flushes

    @staticmethod
    def chunk(rng, n):
        return Chunk.from_items(0, rng.uniform(0, 10, size=(n, 2)), rng.normal(size=n))

    def test_empty_bulk_write_to_a_new_dataset(self, tmp_path):
        FileChunkStore(tmp_path).write_chunks("new", [], [])
        assert FileChunkStore(tmp_path).placements("new") == {}

    def test_single_write_to_a_new_dataset(self, tmp_path, rng):
        store = FileChunkStore(tmp_path)
        flushes = self.count_flushes(store)
        store.write_chunk("new", make_chunks(rng, 1)[0], 2, 1)
        assert flushes == ["new"]
        assert FileChunkStore(tmp_path).placements("new") == {0: (2, 1)}

    def test_single_write_on_a_reopened_store_flushes_only_a_move(self, tmp_path, rng):
        chunks = make_chunks(rng, 3)
        FileChunkStore(tmp_path).write_chunks("ds", chunks, [(0, 0), (1, 0), (0, 1)])
        store = FileChunkStore(tmp_path)
        flushes = self.count_flushes(store)
        store.write_chunk("ds", chunks[2], 0, 1)  # where it is
        assert flushes == []
        store.write_chunk("ds", chunks[1], 0, 0)  # a move
        assert flushes == ["ds"]
        reopened = FileChunkStore(tmp_path)
        assert reopened.placements("ds") == {0: (0, 0), 1: (0, 0), 2: (0, 1)}
        for c in chunks:
            np.testing.assert_array_equal(reopened.read_chunk("ds", c.chunk_id).values, c.values)

    def test_shorter_rewrite_reads_back_exactly(self, tmp_path, rng):
        store = FileChunkStore(tmp_path)
        path = tmp_path / "ds" / "node000" / "disk00" / "chunk00000000.adc"
        store.write_chunks("ds", [self.chunk(rng, 40)], [(0, 0)])
        short = self.chunk(rng, 3)
        store.write_chunks("ds", [short], [(0, 0)])
        assert path.read_bytes() == encode_chunk(short)
        path.with_suffix(".tmp").write_bytes(b"stale" * 1000)  # a crashed write_chunk's
        shorter = self.chunk(rng, 2)
        store.write_chunk("ds", shorter, 0, 0)
        assert path.read_bytes() == encode_chunk(shorter)
        back = FileChunkStore(tmp_path).read_chunk("ds", 0)
        np.testing.assert_array_equal(back.coords, shorter.coords)
        np.testing.assert_array_equal(back.values, shorter.values)

    def test_torn_in_place_rewrite_fails_the_crc(self, tmp_path, rng):
        """What a crash inside an in-place rewrite leaves: the new head
        over the old tail, or a shorter record not yet cut to length."""
        store = FileChunkStore(tmp_path)
        old = encode_chunk(self.chunk(rng, 40))
        store.write_chunks("ds", [decode_chunk(old)], [(0, 0)])
        path = tmp_path / "ds" / "node000" / "disk00" / "chunk00000000.adc"
        same = encode_chunk(self.chunk(rng, 40))
        short = encode_chunk(self.chunk(rng, 3))
        for torn in (same[: len(same) // 2] + old[len(same) // 2 :], short + old[len(short) :]):
            assert len(torn) == len(old)
            path.write_bytes(torn)
            with pytest.raises(CorruptChunkError):
                FileChunkStore(tmp_path).read_chunk("ds", 0)


class TestReadPath:
    """One reader: chunk files and the manifest are read by
    ``_read_file`` -- ``os.open``, ``os.fstat``, ``os.read`` -- and never
    through a file object."""

    def test_no_file_object_on_any_read(self, tmp_path, rng, monkeypatch):
        import repro.store.chunk_store as chunk_store

        chunks = make_chunks(rng, 3)
        FileChunkStore(tmp_path).write_chunks("ds", chunks, [(0, 0), (1, 0), (1, 1)])

        def refuse(*args, **kwargs):
            raise AssertionError("a store read opened a file object")

        monkeypatch.setattr(chunk_store, "open", refuse, raising=False)
        reopened = FileChunkStore(tmp_path)  # the manifest is read anew
        assert reopened.chunk_ids("ds") == [0, 1, 2]
        for c in chunks:
            np.testing.assert_array_equal(reopened.read_chunk("ds", c.chunk_id).values, c.values)

    def test_short_reads_are_gathered(self, tmp_path, monkeypatch):
        import os

        import repro.store.chunk_store as chunk_store

        path = tmp_path / "blob"
        data = bytes(range(256)) * 40
        path.write_bytes(data)
        real = os.read
        monkeypatch.setattr(chunk_store.os, "read", lambda fd, n: real(fd, min(n, 1000)))
        assert FileChunkStore._read_file(str(path)) == data
        (tmp_path / "empty").write_bytes(b"")
        assert FileChunkStore._read_file(str(tmp_path / "empty")) == b""


class TestMemoryStoreSpecifics:
    def test_nbytes_accounting(self, rng):
        s = MemoryChunkStore()
        assert s.nbytes() == 0
        s.write_chunk("ds", make_chunks(rng, 1)[0], 0, 0)
        assert s.nbytes() > 0


class TestStages:
    """The wrappers share one delegating base and nothing falls through
    ``__getattr__`` any more."""

    @staticmethod
    def stages(inner):
        from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore
        from repro.store.cache import CachedChunkStore
        from repro.store.retry import RetryingChunkStore, RetryPolicy

        return [
            CachedChunkStore(inner),
            RetryingChunkStore(inner, RetryPolicy()),
            FaultyChunkStore(inner, FaultInjector(FaultPlan())),
        ]

    def test_copy_returns_a_stage_over_the_same_inner(self):
        """Regression: ``__getattr__('inner')`` recursed before ``inner``
        was set, so ``copy.copy`` of any wrapper raised RecursionError."""
        import copy

        inner = MemoryChunkStore()
        for stage in self.stages(inner):
            clone = copy.copy(stage)
            assert type(clone) is type(stage) and clone.inner is inner

    def test_bulk_write_reaches_the_base_store_once(self, tmp_path, rng):
        """``write_chunks`` is part of the interface: every stage hands
        the batch on whole (one manifest flush), and a store without a
        bulk form gets the loop default."""
        chunks = make_chunks(rng, 3)
        places = [(0, 0), (1, 0), (0, 1)]
        base = FileChunkStore(tmp_path)
        flushes = []
        base._save_manifest = flushes.append
        for stage in self.stages(base):
            name = type(stage).__name__
            stage.write_chunks(name, chunks, places)
            assert flushes.pop() == name and not flushes
            assert stage.placements(name) == dict(enumerate(places))
        memory = MemoryChunkStore()
        memory.write_chunks("ds", chunks, places)
        assert memory.placements("ds") == dict(enumerate(places))
        with pytest.raises(ValueError, match="one placement per chunk"):
            memory.write_chunks("ds", chunks, places[:2])

    def test_inner_extras_do_not_fall_through(self, tmp_path):
        for stage in self.stages(FileChunkStore(tmp_path)):
            assert not hasattr(stage, "root")
            assert stage.inner.root == tmp_path
