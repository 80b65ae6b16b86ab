"""Tests for item-level range filtering and output write-back."""

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.runtime.engine import execute_plan
from repro.runtime.serial import execute_serial, filter_items
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.units import MB


def one_chunk_instance(rng):
    """An ADR instance whose single chunk straddles the query boundary."""
    adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
    space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
    # 100 items spanning the whole space, deliberately in ONE chunk so
    # any partial query intersects it.
    coords = rng.uniform(0, 10, size=(100, 2))
    values = rng.integers(1, 9, size=100).astype(float)
    adr.load("d", space, [Chunk.from_items(0, coords, values)])
    out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(out_space, (4, 4), (2, 2))
    mapping = GridMapping(space, out_space, (4, 4))
    return adr, coords, values, mapping, grid


class TestItemLevelFiltering:
    def test_filter_items(self, rng):
        coords = rng.uniform(0, 10, size=(50, 2))
        chunk = Chunk.from_items(0, coords, np.zeros(50))
        idx = filter_items(chunk, Rect((0, 0), (5, 5)))
        expected = np.flatnonzero((coords <= 5).all(axis=1))
        assert idx.tolist() == expected.tolist()

    def test_filter_none_keeps_all(self, rng):
        coords = rng.uniform(0, 10, size=(10, 2))
        chunk = Chunk.from_items(0, coords, np.zeros(10))
        assert len(filter_items(chunk, None)) == 10

    def test_partial_query_excludes_out_of_box_items(self, rng):
        """Only items inside the box contribute -- even when their
        chunk is retrieved (it straddles the boundary)."""
        adr, coords, values, mapping, grid = one_chunk_instance(rng)
        region = Rect((0, 0), (10, 5))  # lower half in y
        q = RangeQuery("d", region, mapping, grid, aggregation="sum", strategy="FRA")
        result = adr.execute(q)
        # manual: only items with y <= 5, binned at 4x4
        inside = coords[:, 1] <= 5
        vals = values[inside]
        total_expected = vals.sum()
        total_measured = sum(np.nansum(v) for v in result.chunk_values)
        assert total_measured == pytest.approx(total_expected)

    def test_serial_region_agrees_with_parallel(self, rng):
        adr, coords, values, mapping, grid = one_chunk_instance(rng)
        region = Rect((2, 2), (8, 8))
        q = RangeQuery("d", region, mapping, grid, aggregation="sum", strategy="DA")
        result = adr.execute(q)
        chunk = adr.store.read_chunk("d", 0)
        serial = execute_serial(
            [chunk], mapping, grid, q.spec(),
            output_ids=result.output_ids, region=region,
        )
        for o, v in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(v, serial[int(o)], equal_nan=True)


class TestWriteBack:
    def test_result_becomes_queryable_dataset(self, rng):
        adr, coords, values, mapping, grid = one_chunk_instance(rng)
        q = RangeQuery("d", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="mean", strategy="FRA")
        result = adr.execute(q, store_as="composite")
        assert "composite" in adr.catalog
        ds = adr.dataset("composite")
        assert ds.chunks.placed
        assert adr.index("composite").n_entries == len(result.output_ids)

    def test_stored_values_roundtrip(self, rng):
        adr, coords, values, mapping, grid = one_chunk_instance(rng)
        q = RangeQuery("d", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="mean", strategy="FRA")
        result = adr.execute(q, store_as="composite")
        # read back every stored chunk; values must equal the result
        for new_id, (out_id, vals) in enumerate(
            zip(result.output_ids, result.chunk_values)
        ):
            chunk = adr.store.read_chunk("composite", new_id)
            np.testing.assert_allclose(chunk.values, vals, equal_nan=True)
            # coordinates are cell centres inside the output chunk MBR
            assert chunk.n_items == grid.cells_in_chunk(int(out_id))

    def test_second_level_query(self, rng):
        """Query the written-back composite: the paper's stored-output
        path, exercised end to end."""
        adr, coords, values, mapping, grid = one_chunk_instance(rng)
        q = RangeQuery("d", Rect((0, 0), (10, 10)), mapping, grid,
                       aggregation="sum", strategy="FRA")
        adr.execute(q, store_as="level1")
        out_space = grid.space
        grid2 = OutputGrid(out_space, (2, 2), (1, 1))

        mapping2 = GridMapping(out_space, out_space, (2, 2))
        q2 = RangeQuery("level1", Rect((0, 0), (1, 1)), mapping2, grid2,
                        aggregation="sum", strategy="DA")
        second = adr.execute(q2)
        # total is conserved through both levels
        total0 = values.sum()
        total2 = sum(np.nansum(v) for v in second.chunk_values)
        assert total2 == pytest.approx(total0)


class TestClosedQueryBox:
    """The query box is closed: items exactly on a face or a corner are
    in it, through every execution path, for point and fan-out
    footprints alike.  Each item's value is a distinct power of two, so
    the total names exactly which items counted."""

    BOX = Rect((2.5, 2.5), (6.5, 6.5))
    #: the four faces, the four corners and the middle: in the box
    IN_BOX = [(2.5, 4.5), (6.5, 4.5), (4.5, 2.5), (4.5, 6.5),
              (2.5, 2.5), (6.5, 6.5), (2.5, 6.5), (6.5, 2.5), (4.5, 4.5)]
    #: just past each face, and far off: out of it
    OFF_BOX = [(2.4, 4.5), (6.6, 4.5), (4.5, 2.4), (4.5, 6.6), (8.5, 1.5)]
    #: cells each item covers on the 10x10 grid: a footprint half-width
    #: of 0.075 around a cell centre spans three cells per dimension
    FOOTPRINTS = {"point": (None, 1), "fan": ((0.075, 0.075), 9)}

    def instance(self, footprint):
        space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
        out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
        coords = np.array(self.IN_BOX + self.OFF_BOX, dtype=float)
        values = 2.0 ** np.arange(len(coords))
        # Two chunks split at the box's hi x face: the second one's MBR
        # only touches the box.
        right = coords[:, 0] >= 6.5
        chunks = [
            Chunk.from_items(0, coords[~right], values[~right]),
            Chunk.from_items(1, coords[right], values[right]),
        ]
        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
        adr.load("d", space, chunks)
        grid = OutputGrid(out_space, (10, 10), (2, 2))
        mapping = GridMapping(space, out_space, (10, 10), footprint=footprint)
        query = RangeQuery("d", self.BOX, mapping, grid, aggregation="sum", strategy="FRA")
        return adr, chunks, mapping, grid, query

    @pytest.mark.parametrize("kind", ["point", "fan"])
    def test_face_and_corner_items_count_on_every_path(self, kind):
        footprint, cells_per_item = self.FOOTPRINTS[kind]
        adr, chunks, mapping, grid, query = self.instance(footprint)
        # the nine in-box items carry 2**0 .. 2**8
        want = cells_per_item * float(2**9 - 1)

        via_adr = adr.execute(query)
        plan = adr.plan(query)
        via_plan = execute_plan(
            plan, lambda cid: adr.store.read_chunk("d", cid), mapping, grid,
            query.spec(), region=self.BOX,
        )
        serial = execute_serial(chunks, mapping, grid, query.spec(), region=self.BOX)
        totals = {
            "ADR.execute": sum(np.nansum(v) for v in via_adr.chunk_values),
            "execute_plan": sum(np.nansum(v) for v in via_plan.chunk_values),
            "execute_serial": sum(np.nansum(v) for v in serial.values()),
        }
        assert totals == dict.fromkeys(totals, want)
