"""Tests for Dataset and DatasetCatalog."""

import numpy as np
import pytest

from repro.dataset.dataset import Dataset, DatasetCatalog
from repro.dataset.partition import hilbert_partition
from repro.space.attribute_space import AttributeSpace
from repro.util.geometry import Rect


def build_dataset(rng, name="d"):
    space = AttributeSpace.regular("sp", ("x", "y"), (0, 0), (10, 10))
    coords = rng.uniform(0, 10, size=(60, 2))
    chunks = hilbert_partition(coords, np.zeros(60), items_per_chunk=10)
    return Dataset.from_chunks(name, space, chunks)


class TestDataset:
    def test_from_chunks(self, rng):
        ds = build_dataset(rng)
        assert ds.n_chunks == 6
        assert ds.payload(2).chunk_id == 2

    def test_metadata_only_payload_access(self, rng):
        ds = build_dataset(rng)
        meta_only = Dataset(ds.name, ds.space, ds.chunks, payloads=None)
        with pytest.raises(RuntimeError, match="metadata-only"):
            meta_only.payload(0)

    def test_intersecting_validates_query(self, rng):
        ds = build_dataset(rng)
        with pytest.raises(ValueError):
            ds.intersecting(Rect((20, 20), (30, 30)))
        hits = ds.intersecting(Rect((0, 0), (10, 10)))
        assert len(hits) == 6

    def test_space_mismatch(self, rng):
        ds = build_dataset(rng)
        bad_space = AttributeSpace.regular("sp3", ("x", "y", "z"), (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            Dataset("x", bad_space, ds.chunks)

    def test_payload_order_enforced(self, rng):
        ds = build_dataset(rng)
        with pytest.raises(ValueError):
            Dataset(ds.name, ds.space, ds.chunks, payloads=list(reversed(ds.payloads)))

    def test_with_placement(self, rng):
        ds = build_dataset(rng)
        node = np.zeros(6, dtype=np.int32)
        disk = np.zeros(6, dtype=np.int32)
        placed = ds.with_placement(node, disk)
        assert placed.chunks.placed

    def test_empty_name(self, rng):
        ds = build_dataset(rng)
        with pytest.raises(ValueError):
            Dataset("", ds.space, ds.chunks)


class TestCatalog:
    def test_add_get_remove(self, rng):
        cat = DatasetCatalog()
        ds = build_dataset(rng)
        cat.add(ds)
        assert cat.get("d") is ds
        assert "d" in cat and len(cat) == 1
        cat.remove("d")
        assert "d" not in cat

    def test_duplicate_add(self, rng):
        cat = DatasetCatalog()
        ds = build_dataset(rng)
        cat.add(ds)
        with pytest.raises(ValueError):
            cat.add(ds)
        cat.add(ds, replace=True)  # explicit replace allowed

    def test_missing(self):
        cat = DatasetCatalog()
        with pytest.raises(KeyError):
            cat.get("nope")
        with pytest.raises(KeyError):
            cat.remove("nope")
