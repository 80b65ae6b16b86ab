"""Tests for the chunked output grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.output_grid import OutputGrid, PlacedGrids
from repro.decluster.simple import RandomDeclusterer
from repro.space.attribute_space import AttributeSpace
from repro.util.geometry import Rect


def make_grid(grid=(12, 8), chunk=(4, 4)):
    space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    return OutputGrid(space, grid, chunk)


class TestShape:
    def test_counts(self):
        g = make_grid()
        assert g.n_cells == 96
        assert g.blocks == (3, 2)
        assert g.n_chunks == 6

    def test_uneven_blocking(self):
        g = make_grid(grid=(10, 10), chunk=(4, 4))
        assert g.blocks == (3, 3)
        counts = g.chunk_cell_counts()
        assert counts.sum() == 100
        assert counts.max() == 16 and counts.min() == 4  # corner block 2x2

    def test_chunk_block_ranges(self):
        g = make_grid(grid=(10, 10), chunk=(4, 4))
        start, stop = g.chunk_block(8)  # last block
        assert start == (8, 8) and stop == (10, 10)

    def test_validation(self):
        space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        with pytest.raises(ValueError):
            OutputGrid(space, (4,), (2, 2))
        with pytest.raises(ValueError):
            OutputGrid(space, (4, 4), (8, 2))
        with pytest.raises(ValueError):
            OutputGrid(space, (4, 4), (2, 2), cell_value_bytes=0)


class TestChunkset:
    def test_mbrs_tile_bounds(self):
        g = make_grid()
        cs = g.chunkset()
        assert len(cs) == 6
        assert cs.bounds == Rect((0, 0), (1, 1))
        assert cs.nbytes.sum() == g.n_cells * g.cell_value_bytes

    def test_uneven_sizes_reflected(self):
        g = make_grid(grid=(10, 10), chunk=(4, 4))
        cs = g.chunkset()
        assert cs.nbytes.min() == 4 * g.cell_value_bytes


    @pytest.mark.parametrize(
        "grid,chunk", [((12, 8), (4, 4)), ((10, 7), (4, 3)), ((5, 5), (5, 1))]
    )
    def test_all_chunks_at_once_equal_one_chunk_at_a_time(self, grid, chunk):
        """``chunkset`` / ``chunk_cell_counts`` unravel every chunk id at
        once; ``chunk_block`` (one id) is the reference."""
        g = make_grid(grid, chunk)
        cs = g.chunkset()
        lo, hi = g.space.bounds.as_arrays()
        cell = (hi - lo) / np.asarray(g.grid_shape)
        for cid in range(g.n_chunks):
            start, stop = g.chunk_block(cid)
            assert cs.los[cid].tolist() == (lo + np.asarray(start) * cell).tolist()
            assert cs.his[cid].tolist() == (lo + np.asarray(stop) * cell).tolist()
            assert cs.n_items[cid] == g.cells_in_chunk(cid)
            assert cs.nbytes[cid] == g.cells_in_chunk(cid) * g.cell_value_bytes
        assert g.chunk_cell_counts().tolist() == cs.n_items.tolist()
        assert g.chunk_cell_counts().dtype == np.int64

    def test_three_dimensions(self):
        space = AttributeSpace.regular("o", ("u", "v", "w"), (0, 0, 0), (1, 2, 4))
        g = OutputGrid(space, (4, 5, 6), (2, 2, 4))
        cs = g.chunkset()
        assert len(cs) == g.n_chunks == 2 * 3 * 2
        assert cs.n_items.tolist() == [g.cells_in_chunk(c) for c in range(g.n_chunks)]
        assert cs.bounds == space.bounds


class TestKey:
    def test_equal_grids_built_apart_share_a_key(self):
        a, b = make_grid(), make_grid()
        assert a is not b and a.key() == b.key() and hash(a.key()) == hash(b.key())

    def test_every_parameter_is_part_of_the_key(self):
        space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        other = AttributeSpace.regular("o", ("u", "v"), (0, 0), (2, 1))
        keys = {
            OutputGrid(space, (12, 8), (4, 4)).key(),
            OutputGrid(space, (12, 12), (4, 4)).key(),
            OutputGrid(space, (12, 8), (4, 2)).key(),
            OutputGrid(space, (12, 8), (4, 4), cell_value_bytes=4).key(),
            OutputGrid(other, (12, 8), (4, 4)).key(),
        }
        assert len(keys) == 5


class TestPlacedGrids:
    def test_drawn_once_per_grid_value_and_read_only(self):
        placed = PlacedGrids(RandomDeclusterer(seed=3), n_nodes=4, disks_per_node=2)
        first = placed.get(make_grid())
        assert placed.get(make_grid()) is first  # an equal grid, built anew
        assert first.placed and first.node.max() < 4 and first.disk.max() < 2
        assert placed.get(make_grid(grid=(12, 12))) is not first
        for a in (first.los, first.his, first.nbytes, first.n_items, first.node, first.disk):
            assert not a.flags.writeable

    def test_memo_is_bounded(self):
        placed = PlacedGrids(RandomDeclusterer(seed=3), n_nodes=2)
        first = placed.get(make_grid())
        for n in range(PlacedGrids.MAX_GRIDS):
            placed.get(make_grid(grid=(16 + n, 8)))
        assert len(placed._placed) == PlacedGrids.MAX_GRIDS
        assert placed.get(make_grid()) is not first  # the oldest was dropped

    def test_hilbert_keys_taken_once_per_grid_over_its_bounds(self, monkeypatch):
        import repro.dataset.chunkset as chunkset
        from repro.util.hilbert import hilbert_sort_keys

        calls = []

        def counted(points, bbox, bits):
            calls.append(bits)
            return hilbert_sort_keys(points, bbox, bits)

        monkeypatch.setattr(chunkset, "hilbert_sort_keys", counted)
        placed = PlacedGrids(RandomDeclusterer(seed=3), n_nodes=2)
        grid = make_grid()
        keys = placed.get(grid).hilbert_keys()
        assert calls == [16]
        assert placed.get(make_grid()).hilbert_keys() is keys and calls == [16]
        assert not keys.flags.writeable
        want = hilbert_sort_keys(grid.chunkset().centers, grid.space.bounds, 16)
        assert keys.tolist() == want.tolist()
        # a query's outputs keep the grid's keys instead of re-fitting
        sub = placed.get(grid).subset(np.array([5, 1, 3]))
        assert sub.hilbert_keys().tolist() == want[[5, 1, 3]].tolist() and calls == [16]
        # the keys live and die with their grid under the MAX_GRIDS bound
        for n in range(PlacedGrids.MAX_GRIDS):
            placed.get(make_grid(grid=(16 + n, 8)))
        assert len(placed._placed) == PlacedGrids.MAX_GRIDS
        assert len(calls) == 1 + PlacedGrids.MAX_GRIDS
        placed.get(make_grid())
        assert len(calls) == 2 + PlacedGrids.MAX_GRIDS


class TestCellPlumbing:
    def test_chunk_of_cells(self):
        g = make_grid()
        cells = np.array([[0, 0], [5, 5], [11, 7]])
        assert g.chunk_of_cells(cells).tolist() == [0, 3, 5]

    def test_local_cell_index_roundtrip(self):
        g = make_grid(grid=(10, 10), chunk=(4, 4))
        for cid in range(g.n_chunks):
            start, stop = g.chunk_block(cid)
            all_cells = np.stack(
                np.meshgrid(
                    np.arange(start[0], stop[0]),
                    np.arange(start[1], stop[1]),
                    indexing="ij",
                ),
                axis=-1,
            ).reshape(-1, 2)
            local = g.local_cell_index(cid, all_cells)
            assert sorted(local.tolist()) == list(range(g.cells_in_chunk(cid)))

    def test_local_cell_index_outside_chunk(self):
        g = make_grid()
        with pytest.raises(IndexError):
            g.local_cell_index(0, np.array([[11, 7]]))

    @staticmethod
    def check_locate_cells(grid_shape, chunk_shape):
        names = tuple(f"d{i}" for i in range(len(grid_shape)))
        space = AttributeSpace.regular("o", names, (0,) * len(names), (1,) * len(names))
        g = OutputGrid(space, grid_shape, chunk_shape)
        cells = np.stack(
            np.meshgrid(*[np.arange(n) for n in grid_shape], indexing="ij"), -1
        ).reshape(-1, len(grid_shape))
        chunks, local = g.locate_cells(cells)
        assert chunks.dtype == local.dtype == np.int64
        assert chunks.tolist() == g.chunk_of_cells(cells).tolist()
        for cid in range(g.n_chunks):
            mine = chunks == cid
            assert local[mine].tolist() == g.local_cell_index(cid, cells[mine]).tolist()

    @pytest.mark.parametrize("grid,chunk", [
        ((64, 64), (16, 16)), ((50, 37), (16, 10)), ((7,), (3,)), ((9, 8, 7), (4, 3, 7)),
    ])
    def test_locate_cells_on_fixed_grids(self, grid, chunk):
        """``locate_cells`` -- one divmod per dimension -- against the
        per-chunk path the serial oracle takes, on every cell."""
        self.check_locate_cells(grid, chunk)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_locate_cells_on_ragged_grids(self, data, ndim):
        """The same on drawn grids, most of them with ragged edge blocks."""
        grid = data.draw(st.lists(st.integers(1, 13), min_size=ndim, max_size=ndim))
        chunk = [data.draw(st.integers(1, g)) for g in grid]
        self.check_locate_cells(tuple(grid), tuple(chunk))

    def test_clip_cells(self):
        g = make_grid()
        out = g.clip_cells(np.array([[-3, 5], [50, 9]]))
        assert out.tolist() == [[0, 5], [11, 7]]


class TestAssemble:
    def test_roundtrip(self, rng):
        g = make_grid(grid=(6, 6), chunk=(3, 2))
        full = rng.normal(size=(6, 6, 2))
        parts = []
        for cid in range(g.n_chunks):
            start, stop = g.chunk_block(cid)
            block = full[start[0] : stop[0], start[1] : stop[1]]
            parts.append(block.reshape(-1, 2))
        np.testing.assert_array_equal(g.assemble(parts), full)

    def test_wrong_chunk_count(self):
        g = make_grid()
        with pytest.raises(ValueError):
            g.assemble([np.zeros((16, 1))])

    def test_wrong_chunk_shape(self):
        g = make_grid(grid=(4, 4), chunk=(2, 2))
        parts = [np.zeros((4, 1))] * 3 + [np.zeros((3, 1))]
        with pytest.raises(ValueError):
            g.assemble(parts)
