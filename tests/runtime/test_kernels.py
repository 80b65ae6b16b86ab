"""Fused reduction kernels vs the serial oracle.

Every fast path in :mod:`repro.runtime.kernels` and the
``prereduce_groups``/``scatter_groups`` spec hooks must reproduce
:func:`~repro.runtime.serial.execute_serial` -- the scalar Figure-1
loop, which shares no kernel with them -- on arbitrary workloads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import (
    AGGREGATIONS,
    BestValueComposite,
    CountAggregation,
    MaxAggregation,
    MeanAggregation,
    MinAggregation,
    SumAggregation,
)
from repro.aggregation.output_grid import OutputGrid
from repro.runtime.kernels import (
    RoutingCache,
    coerce_values,
    group_reads,
    route_batch,
    routing_tail,
)
from repro.runtime.serial import execute_serial, map_chunk_to_cells
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect

from helpers import make_functional_setup


def specs():
    return [
        SumAggregation(1),
        CountAggregation(1),
        MinAggregation(2),
        MeanAggregation(2),
        BestValueComposite(2),
    ]


def flat_batch(chunks, mapping, grid, region, value_components):
    """The flat ``(read, item, cells, values)`` arrays of one read batch
    holding *chunks*, as the phase executor hands them to
    ``group_reads``."""
    item, cells = route_batch(chunks, mapping, grid, region)
    values = np.concatenate([coerce_values(c.values, value_components) for c in chunks])
    ends = np.cumsum([c.n_items for c in chunks])
    return np.searchsorted(ends, item, side="right"), item, cells, values


def run_fused(chunks, mapping, grid, spec, sel_map, tile_of_output, tile, out_global):
    """Final values per local output chunk (global id ``out_global[o]``),
    with *chunks* routed and grouped as one batch."""
    accs = {
        o: spec.initialize(grid.cells_in_chunk(int(g))) for o, g in enumerate(out_global)
    }
    batch = flat_batch(chunks, mapping, grid, None, spec.value_components)
    segs = group_reads(*batch, grid, sel_map, tile_of_output, tile)
    if segs is None:
        return {o: spec.output(acc) for o, acc in accs.items()}
    reduced = spec.prereduce_groups(segs.values, segs.group_starts)
    if reduced is None:
        for k in range(len(segs.seg_out)):
            o = int(segs.seg_out[k])
            s, e = segs.starts[k], segs.ends[k]
            spec.aggregate(accs[o], segs.flat[s:e], segs.values[s:e])
    else:
        gflat = segs.flat[segs.group_starts]
        gb = segs.group_bounds
        for k in range(len(segs.seg_out)):
            o = int(segs.seg_out[k])
            spec.scatter_groups(
                accs[o], gflat[gb[k] : gb[k + 1]], reduced[gb[k] : gb[k + 1]]
            )
    return {o: spec.output(acc) for o, acc in accs.items()}


class TestFusedVsReference:
    @pytest.mark.parametrize("spec", specs(), ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("footprint", [None, (0.08, 0.05)], ids=["point", "fan"])
    def test_full_grid(self, rng, spec, footprint):
        _, _, chunks, mapping, grid = make_functional_setup(
            rng, value_components=spec.value_components, footprint=footprint
        )
        n = grid.n_chunks
        every = np.arange(n, dtype=np.int64)
        fused = run_fused(
            chunks, mapping, grid, spec, every, np.zeros(n, dtype=np.int64), 0, every
        )
        serial = execute_serial(chunks, mapping, grid, spec)
        for o in range(n):
            np.testing.assert_allclose(fused[o], serial[o])

    def test_tile_and_selection_filtering(self, rng):
        """A tile is exactly the oracle restricted to the tile's
        outputs: cells outside the selected outputs or the current tile
        are dropped, and the other tile's accumulators stay untouched."""
        spec = SumAggregation(1)
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        n = grid.n_chunks
        # select half the outputs, spread over two tiles
        sel_map = np.full(n, -1, dtype=np.int64)
        picked = np.arange(0, n, 2, dtype=np.int64)
        sel_map[picked] = np.arange(len(picked))
        tile_of_output = np.arange(len(picked), dtype=np.int64) % 2
        for tile in (0, 1):
            fused = run_fused(chunks, mapping, grid, spec, sel_map, tile_of_output, tile, picked)
            serial = execute_serial(
                chunks, mapping, grid, spec, output_ids=picked[tile_of_output == tile]
            )
            for o, g in enumerate(picked):
                want = (
                    serial[int(g)] if tile_of_output[o] == tile
                    else spec.output(spec.initialize(grid.cells_in_chunk(int(g))))
                )
                np.testing.assert_allclose(fused[o], want)

    def test_group_reads_segments_are_sorted(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng, footprint=(0.1, 0.1))
        n = grid.n_chunks
        sel_map = np.arange(n, dtype=np.int64)
        tile_of_output = np.zeros(n, dtype=np.int64)
        segs = group_reads(
            *flat_batch(chunks[:3], mapping, grid, None, 1), grid, sel_map, tile_of_output, 0
        )
        assert segs is not None
        # segments ascend by (read, output chunk), each pair once
        assert np.all(np.diff(segs.seg_read) >= 0)
        key = segs.seg_read * n + segs.seg_out
        assert np.all(np.diff(key) > 0)
        for k in range(len(segs.seg_out)):
            s, e = segs.starts[k], segs.ends[k]
            assert np.all(np.diff(segs.flat[s:e]) >= 0)
        # cell runs tile the batch and are strictly finer than segments
        assert segs.group_starts[0] == 0
        assert np.all(np.diff(segs.group_starts) > 0)
        assert segs.group_bounds[0] == 0
        assert segs.group_bounds[-1] == len(segs.group_starts)
        # run starts restricted to segment k stay inside [starts, ends)
        for k in range(len(segs.seg_out)):
            runs = segs.group_starts[segs.group_bounds[k] : segs.group_bounds[k + 1]]
            assert runs[0] == segs.starts[k]
            assert np.all(runs < segs.ends[k])
            # within a segment every run is one distinct cell
            assert np.all(np.diff(segs.flat[runs]) > 0)


class TestRouteBatch:
    """``route_batch`` is the oracle's per-chunk ``map_chunk_to_cells``
    laid end to end: the same arrays, dtypes and row order, with item
    indices offset by the items of the chunks before."""

    @given(
        seed=st.integers(0, 2**31),
        n_chunks=st.integers(1, 6),
        region_kind=st.sampled_from(["none", "empty", "box", "faces"]),
        footprint=st.sampled_from([None, (0.08, 0.05), (0.0, 0.2), (0.3, 0.3)]),
    )
    @example(seed=0, n_chunks=1, region_kind="none", footprint=None)
    @example(seed=1, n_chunks=3, region_kind="faces", footprint=None)
    @example(seed=2, n_chunks=4, region_kind="faces", footprint=(0.08, 0.05))
    @example(seed=3, n_chunks=2, region_kind="empty", footprint=(0.3, 0.3))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_chunk_routing(self, seed, n_chunks, region_kind, footprint):
        rng = np.random.default_rng(seed)
        in_space, out_space, chunks, _, _ = make_functional_setup(
            rng, n_items=int(rng.integers(n_chunks, 20 * n_chunks + 1)),
            items_per_chunk=int(rng.integers(1, 25)),
        )
        chunks = [chunks[i] for i in rng.permutation(len(chunks))[:n_chunks]]
        shape = tuple(int(k) for k in rng.integers(1, 13, size=2))
        grid = OutputGrid(out_space, shape, tuple(int(rng.integers(1, k + 1)) for k in shape))
        mapping = GridMapping(in_space, out_space, shape, footprint=footprint)
        coords = np.concatenate([c.coords for c in chunks])
        if region_kind == "none":
            region = None
        elif region_kind == "empty":
            region = Rect((11.0, 11.0), (12.0, 12.0))
        elif region_kind == "box":
            lo = rng.uniform(0, 8, size=2)
            region = Rect(tuple(lo), tuple(lo + rng.uniform(0.1, 4, size=2)))
        else:  # faces on items: some items lie exactly on lo and hi
            picks = coords[rng.integers(0, len(coords), size=2)]
            region = Rect(tuple(picks.min(axis=0)), tuple(picks.max(axis=0)))

        item, cells = route_batch(chunks, mapping, grid, region)
        parts = [map_chunk_to_cells(c, mapping, grid, region) for c in chunks]
        offsets = np.cumsum([0] + [c.n_items for c in chunks[:-1]])
        want_item = np.concatenate([idx + off for (idx, _), off in zip(parts, offsets, strict=True)])
        want_cells = np.concatenate([c for _, c in parts])
        assert item.dtype == want_item.dtype and cells.dtype == want_cells.dtype
        np.testing.assert_array_equal(item, want_item)
        np.testing.assert_array_equal(cells, want_cells)
        if region_kind == "empty":
            assert len(item) == 0


#: What one batch position holds: nothing (a degraded read), a routed
#: read left empty by the predicate, items only in unselected output
#: chunks, items only in another tile's output chunks, or items landing
#: (partly) in this tile.
PART_KINDS = ("none", "empty", "unselected", "other_tile", "live", "live")


def flatten(parts):
    """The flat ``(read, item, cells, values)`` arrays of per-position
    parts ``(item_idx, cells, values)`` (or None), laid end to end."""
    live = [(k, part) for k, part in enumerate(parts) if part is not None]
    if not live:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty((0, 2), dtype=np.int64), np.empty((0, 1)))
    offsets = np.cumsum([0] + [len(part[2]) for _, part in live[:-1]])
    return (
        np.concatenate([np.full(len(part[1]), k) for k, part in live]),
        np.concatenate([part[0] + off for (_, part), off in zip(live, offsets, strict=True)]),
        np.concatenate([part[1] for _, part in live]),
        np.concatenate([part[2] for _, part in live]),
    )


class TestGroupReadsBatch:
    """A batch grouped at once equals each read grouped on its own,
    laid end to end: the batch sliced per read by ``seg_read`` equals
    the read's own grouping field by field, and the batch-wide
    pre-reduced rows are the per-read rows bit for bit -- which is what
    lets the phase executor batch a tile's reads without changing a
    result."""

    GRID = OutputGrid(
        make_functional_setup(np.random.default_rng(0))[1], (9, 8), (3, 2)
    )

    def make_batch(self, seed, kinds, value_components):
        rng = np.random.default_rng(seed)
        grid = self.GRID
        n = grid.n_chunks
        # Two thirds of the output chunks selected, over two tiles.
        picked = np.flatnonzero(np.arange(n) % 3 != 2)
        sel_map = np.full(n, -1, dtype=np.int64)
        sel_map[picked] = np.arange(len(picked))
        tile_of_output = np.arange(len(picked), dtype=np.int64) % 2
        all_cells = np.stack(
            np.meshgrid(*[np.arange(k) for k in grid.grid_shape], indexing="ij"), -1
        ).reshape(-1, grid.ndim)
        local = sel_map[grid.chunk_of_cells(all_cells)]
        pools = {
            "unselected": all_cells[local < 0],
            "other_tile": all_cells[(local >= 0) & (tile_of_output[local] == 1)],
            "live": all_cells,
        }
        parts = []
        for kind in kinds:
            if kind == "none":
                parts.append(None)
                continue
            n_items = int(rng.integers(1, 12))
            m = 0 if kind == "empty" else int(rng.integers(1, 40))
            pool = pools.get(kind, all_cells)
            values = rng.normal(size=(n_items, value_components))
            values *= 10.0 ** rng.integers(-8, 8, size=values.shape)
            parts.append((
                rng.integers(0, n_items, size=m),  # fan-out: items repeat
                pool[rng.integers(0, len(pool), size=m)],
                values,
            ))
        return parts, grid, sel_map, tile_of_output

    @pytest.mark.parametrize(
        "spec",
        [SumAggregation(1), MeanAggregation(2), MaxAggregation(2),
         AGGREGATIONS["variance"](), BestValueComposite(2)],
        ids=lambda s: type(s).__name__,
    )
    @given(
        seed=st.integers(0, 2**31),
        kinds=st.lists(st.sampled_from(PART_KINDS), min_size=1, max_size=7),
    )
    @example(seed=1, kinds=["live"])
    @example(seed=2, kinds=["none", "live", "empty", "live", "other_tile"])
    @example(seed=3, kinds=["empty", "unselected", "live", "live", "none"])
    @example(seed=4, kinds=["none", "empty", "unselected", "other_tile"])
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_per_read(self, spec, seed, kinds):
        parts, grid, sel_map, tile_of_output = self.make_batch(
            seed, kinds, spec.value_components
        )
        singles = [
            None if part is None
            else group_reads(
                *flatten([None] * k + [part]), grid, sel_map, tile_of_output, 0
            )
            for k, part in enumerate(parts)
        ]
        batch = group_reads(*flatten(parts), grid, sel_map, tile_of_output, 0)
        if batch is None:
            assert all(single is None for single in singles)
            return
        rows = spec.prereduce_groups(batch.values, batch.group_starts)
        assert np.all(np.diff(batch.seg_read) >= 0)
        for k, single in enumerate(singles):
            mine = np.flatnonzero(batch.seg_read == k)
            if single is None:
                assert len(mine) == 0, f"read {k} groups to nothing on its own"
                continue
            a, b = mine[0], mine[-1] + 1
            assert b - a == len(mine)
            lo, hi = batch.starts[a], batch.ends[b - 1]
            g0, g1 = batch.group_bounds[a], batch.group_bounds[b]
            got = {
                "seg_read": batch.seg_read[a:b],
                "seg_out": batch.seg_out[a:b],
                "starts": batch.starts[a:b] - lo,
                "ends": batch.ends[a:b] - lo,
                "flat": batch.flat[lo:hi],
                "values": batch.values[lo:hi],
                "group_starts": batch.group_starts[g0:g1] - lo,
                "group_bounds": batch.group_bounds[a : b + 1] - g0,
            }
            for name, value in got.items():
                np.testing.assert_array_equal(value, getattr(single, name), name)
            own = spec.prereduce_groups(single.values, single.group_starts)
            if rows is None:
                assert own is None
            else:
                assert np.array_equal(rows[g0:g1], own)


class TestPrereduceMatchesGrouped:
    @pytest.mark.parametrize("name", ["sum", "count", "min", "max", "mean"])
    def test_bitwise_equal(self, rng, name):
        spec = AGGREGATIONS[name]()
        n_cells = 50
        m = 300
        cell_idx = np.sort(rng.integers(0, n_cells, size=m)).astype(np.int64)
        # Integer-valued items: every partial sum is exact, so the scalar
        # path and the pre-reduction (whose run sums may associate
        # differently) must agree bit for bit.
        values = rng.integers(-50, 50, size=(m, spec.value_components)).astype(float)
        acc_a = spec.initialize(n_cells)
        spec.aggregate(acc_a, cell_idx, values)
        # one "read" = one segment: runs are the duplicate-cell runs
        run_starts = np.concatenate(([0], np.flatnonzero(np.diff(cell_idx)) + 1))
        reduced = spec.prereduce_groups(values, run_starts)
        assert reduced is not None
        acc_b = spec.initialize(n_cells)
        spec.scatter_groups(acc_b, cell_idx[run_starts], reduced)
        np.testing.assert_array_equal(acc_a, acc_b)

    def test_best_composite_has_no_prereduction(self):
        spec = BestValueComposite(2)
        assert spec.prereduce_groups(np.zeros((3, 2)), np.array([0])) is None

    def test_extra_aggregations_fall_back(self):
        """Aggregations without a pre-reduction (variance, wmean) keep
        the default None, which routes the engine onto the scalar
        aggregate fallback."""
        for name in ("variance", "wmean"):
            spec = AGGREGATIONS[name]()
            assert spec.prereduce_groups(np.zeros((3, spec.value_components)),
                                         np.array([0])) is None


class TestCoerceValues:
    def test_promotes_1d(self):
        out = coerce_values(np.array([1, 2, 3]), 1)
        assert out.shape == (3, 1) and out.dtype == np.float64

    def test_component_mismatch(self):
        with pytest.raises(ValueError, match="value components"):
            coerce_values(np.zeros((4, 2)), 3)


class TestRoutingCache:
    @staticmethod
    def batch_key(chunks, mapping, grid, region=None):
        """The key the phase executor memoizes a batch under."""
        return (tuple(c.chunk_id for c in chunks), *routing_tail(mapping, grid, region))

    def test_hit_and_miss_counters(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        cache = RoutingCache()
        key = self.batch_key(chunks[:3], mapping, grid)
        assert cache.get(key) is None
        cache.put(key, *route_batch(chunks[:3], mapping, grid, None))
        a = route_batch(chunks[:3], mapping, grid, None)
        b = cache.get(key)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert cache.hits == 1 and cache.misses == 1
        # cached arrays are immutable
        with pytest.raises(ValueError):
            b[0][0] = 0

    def test_lru_eviction_by_bytes(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        item, cells = route_batch(chunks[:2], mapping, grid, None)
        cache = RoutingCache(max_bytes=2 * (item.nbytes + cells.nbytes))
        keys = [self.batch_key(chunks[k : k + 2], mapping, grid) for k in range(3)]
        for key in keys:
            cache.put(key, item, cells)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(keys[0]) is None  # evicted LRU

    def test_custom_mapping_not_cached(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng)

        class CustomMapping(GridMapping):
            pass

        custom = CustomMapping(
            mapping.input_space, mapping.output_space, mapping.grid_shape
        )
        assert routing_tail(custom, grid, None) is None

    def test_region_namespaces_key(self, rng):
        _, _, chunks, mapping, grid = make_functional_setup(rng)
        k1 = self.batch_key(chunks[:2], mapping, grid)
        k2 = self.batch_key(chunks[:2], mapping, grid, Rect((0.0, 0.0), (5.0, 5.0)))
        assert k1 != k2

    def test_key_is_batch_ids_then_per_query_tail(self, rng):
        """The executor keys one entry per read batch: the batch's
        dataset-level chunk ids in read order, then the query's
        :func:`routing_tail`."""
        from helpers import build_problem
        from repro.planner.strategies import plan_query
        from repro.runtime.engine import execute_plan

        _, _, chunks, mapping, grid = make_functional_setup(rng)
        spec = SumAggregation(1)
        plan = plan_query(build_problem(chunks, mapping, grid, spec, 2, 1 << 20), "FRA")
        region = Rect((1.0, 1.0), (9.0, 9.0))
        cache = RoutingCache()
        execute_plan(plan, lambda i: chunks[i], mapping, grid, spec,
                     region=region, routing_cache=cache)
        tail = routing_tail(mapping, grid, region)
        problem = plan.problem
        read_ids = problem.input_global_ids[plan.reads.chunk[plan.schedule().reads_of(0)]]
        assert plan.n_tiles == 1 and len(cache) == 1
        (key,) = cache._entries
        assert key == (tuple(read_ids.tolist()), *tail)
