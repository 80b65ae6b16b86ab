"""The one problem builder: ``ADR.build_problem`` and
``ShardRouter.plan`` run the same selection -> prune -> projection ->
graph steps and differ only in input placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunkset import ChunkSet
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.shard.router import ShardEndpoint, ShardRouter
from repro.shard.topology import ShardTopology
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.hilbert import hilbert_sort_keys
from repro.util.units import MB

IN_SPACE = AttributeSpace.regular("in", ("x", "y"), (0, 0), (10, 10))
OUT_SPACE = AttributeSpace.regular("out", ("u", "v"), (0, 0), (1, 1))
#: a mapping into this space projects every region off the output grid
FAR_SPACE = AttributeSpace.regular("far", ("u", "v"), (5, 5), (6, 6))


def edges_by_global_id(problem):
    edge_in, edge_out = problem.graph.edge_arrays()
    return sorted(zip(
        problem.input_global_ids[edge_in].tolist(),
        problem.output_global_ids[edge_out].tolist(),
    ))


def build_or_message(build):
    try:
        return build(), None
    except ValueError as e:
        return None, str(e)


class TestRouterAndSoloShareOneBuilder:
    @given(st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_same_population_same_problem(self, seed):
        rng = np.random.default_rng(seed)
        # points in one corner now and then, so regions can miss them
        extent = 10.0 if rng.random() < 0.8 else 4.0
        coords = rng.uniform(0, extent, size=(int(rng.integers(20, 300)), 2))
        # values follow x, so a chunk's synopsis is narrow enough to prune
        values = coords[:, :1] * 10 + rng.uniform(0, 5, size=(len(coords), 1))
        chunks = hilbert_partition(coords, values, int(rng.integers(5, 30)))

        solo = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB))
        solo.load("d", IN_SPACE, chunks)
        n_shards = int(rng.integers(1, 5))
        router = ShardRouter(
            ShardTopology.build("d", IN_SPACE, chunks, n_shards),
            [ShardEndpoint(sid, sid) for sid in range(n_shards)],
        )

        cells = int(rng.integers(2, 17))
        lo = rng.uniform(0, 9, size=2)
        low, span = rng.uniform(0, 100), rng.uniform(0, 40)
        query = RangeQuery(
            "d",
            Rect(tuple(lo), tuple(lo + rng.uniform(0.1, 8, size=2))),
            GridMapping(
                IN_SPACE, FAR_SPACE if rng.random() < 0.1 else OUT_SPACE,
                (cells, cells),
            ),
            OutputGrid(OUT_SPACE, (cells, cells), (int(rng.integers(1, cells + 1)),) * 2),
            aggregation=str(rng.choice(["sum", "mean", "max"])),
            where={0: (low, low + span)} if rng.random() < 0.6 else None,
        )

        mine, my_error = build_or_message(lambda: solo.build_problem(query))
        theirs, their_error = build_or_message(
            lambda: router.plan(query).choice.plan.problem
        )
        # the same text when pruning, the region or the projection
        # leaves nothing to plan
        assert my_error == their_error
        if mine is None:
            return

        for name in ("input_global_ids", "pruned_input_ids", "output_global_ids", "acc_nbytes"):
            assert getattr(mine, name).tolist() == getattr(theirs, name).tolist(), name
        assert mine.pruned_bytes == theirs.pruned_bytes
        assert edges_by_global_id(mine) == edges_by_global_id(theirs)
        # placement is the other parameter: inputs sit on their shard
        shard_of = router.topology.assignment.shard_of
        assert theirs.input_owner.tolist() == shard_of[theirs.input_global_ids].tolist()

    def test_fixed_strategy_scatter_builds_no_graph(self, rng, monkeypatch):
        from repro.dataset.graph import ChunkGraph

        coords = rng.uniform(0, 10, size=(200, 2))
        chunks = hilbert_partition(coords, np.ones((200, 1)), 20)
        router = ShardRouter(
            ShardTopology.build("d", IN_SPACE, chunks, 2),
            [ShardEndpoint(sid, sid) for sid in range(2)],
        )
        monkeypatch.setattr(
            ChunkGraph, "from_geometry",
            lambda *a, **k: pytest.fail("a fixed-strategy scatter built a graph"),
        )
        plan = router.plan(RangeQuery(
            "d", Rect((0, 0), (10, 10)), GridMapping(IN_SPACE, OUT_SPACE, (8, 8)),
            OutputGrid(OUT_SPACE, (8, 8), (4, 4)), aggregation="sum", strategy="FRA",
        ))
        assert plan.choice is None and plan.n_planned == len(chunks)


class TestOutputsFollowTheGridCurve:
    """A built problem tiles its outputs in the order of the Hilbert
    curve over the whole output grid, restricted to the query."""

    @staticmethod
    def adr_and_grid(rng, cells=16, chunk=2):
        coords = rng.uniform(0, 10, size=(300, 2))
        adr = ADR(machine=MachineConfig(n_procs=3, memory_per_proc=MB))
        adr.load("d", IN_SPACE, hilbert_partition(coords, np.ones((300, 1)), 15))
        mapping = GridMapping(IN_SPACE, OUT_SPACE, (cells, cells))
        return adr, OutputGrid(OUT_SPACE, (cells, cells), (chunk, chunk)), mapping, coords

    def test_whole_grid_order_is_the_outputs_own(self, rng):
        adr, grid, mapping, _ = self.adr_and_grid(rng)
        problem = adr.build_problem(
            RangeQuery("d", Rect((0, 0), (10, 10)), mapping, grid, aggregation="sum")
        )
        assert problem.n_out == grid.n_chunks
        outputs = problem.outputs
        fresh = ChunkSet(outputs.los, outputs.his, outputs.nbytes)  # no keys yet
        assert problem.output_hilbert_order().tolist() == fresh.hilbert_order().tolist()

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_query_order_is_monotone_in_the_grid_keys(self, seed):
        rng = np.random.default_rng(seed)
        adr, grid, mapping, coords = self.adr_and_grid(rng, chunk=int(rng.integers(1, 5)))
        # Centred on an item, so the box always selects its chunk (a box
        # in a gap between chunks makes build_problem raise, as documented).
        centre = coords[rng.integers(len(coords))]
        half = rng.uniform(0.25, 1, size=2)
        problem = adr.build_problem(RangeQuery(
            "d", Rect(tuple(centre - half), tuple(centre + half)),
            mapping, grid, aggregation="sum",
        ))
        grid_keys = hilbert_sort_keys(grid.chunkset().centers, OUT_SPACE.bounds, 16)
        order = problem.output_hilbert_order()
        keys = grid_keys[problem.output_global_ids[order]]
        ids = problem.output_global_ids[order]
        assert np.all(np.diff(keys) >= 0)
        assert all(i < j for k, l, i, j in zip(keys, keys[1:], ids, ids[1:]) if k == l)

    def test_problems_built_directly_keep_their_own_curve(self, rng):
        from helpers import make_problem

        problem = make_problem(rng, n_out=9)
        outputs = problem.outputs
        fresh = ChunkSet(outputs.los, outputs.his, outputs.nbytes)
        assert problem.output_hilbert_order().tolist() == fresh.hilbert_order().tolist()
