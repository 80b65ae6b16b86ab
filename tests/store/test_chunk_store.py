"""Tests for chunk stores (file-backed and in-memory)."""

import numpy as np
import pytest

from repro.dataset.chunk import Chunk
from repro.store.chunk_store import FileChunkStore, MemoryChunkStore
from repro.store.format import ChunkFormatError


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
        every other op -- pays for the writes and one manifest flush only."""
        import repro.store.chunk_store as chunk_store

        store = FileChunkStore(tmp_path / "farm")
        chunks, places = make_chunks(rng, 5), [(i % 2, 0) for i in range(5)]
        store.write_chunks("ds", chunks, places)
        monkeypatch.setattr(chunk_store.os, "remove", lambda path: pytest.fail(f"removed {path}"))
        monkeypatch.setattr(
            chunk_store.Path, "exists", lambda self: pytest.fail(f"probed {self}")
        )
        store.write_chunks("ds", make_chunks(rng, 5), places)
        assert store.chunk_ids("ds") == list(range(5))

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
