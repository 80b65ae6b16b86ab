"""Tests for the bipartite chunk graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import AffineMapping, IdentityMapping


class TestConstruction:
    def test_from_lists(self):
        g = ChunkGraph.from_lists(3, 2, [[0], [0, 1], []])
        assert g.n_edges == 3
        assert g.outputs_of(1).tolist() == [0, 1]
        assert g.inputs_of(0).tolist() == [0, 1]
        assert g.inputs_of(1).tolist() == [1]
        assert g.outputs_of(2).tolist() == []

    def test_duplicates_merged(self):
        g = ChunkGraph(2, 2, np.array([0, 0, 1]), np.array([1, 1, 0]))
        assert g.n_edges == 2
        assert g.outputs_of(0).tolist() == [1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ChunkGraph(2, 2, np.array([2]), np.array([0]))
        with pytest.raises(ValueError):
            ChunkGraph(2, 2, np.array([0]), np.array([-1]))

    def test_empty(self):
        g = ChunkGraph(3, 3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.n_edges == 0
        assert g.avg_fan_in == 0.0
        g.validate()

    def test_from_lists_wrong_length(self):
        with pytest.raises(ValueError):
            ChunkGraph.from_lists(2, 2, [[0]])


class TestDegrees:
    def test_fan_stats(self):
        g = ChunkGraph.from_lists(4, 2, [[0], [0, 1], [1], [0, 1]])
        assert g.fan_out.tolist() == [1, 2, 1, 2]
        assert g.fan_in.tolist() == [3, 3]
        assert g.avg_fan_out == 1.5
        assert g.avg_fan_in == 3.0

    def test_edge_arrays(self):
        g = ChunkGraph.from_lists(2, 2, [[1], [0, 1]])
        in_ids, out_ids = g.edge_arrays()
        assert in_ids.tolist() == [0, 1, 1]
        assert out_ids.tolist() == [1, 0, 1]


class TestValidate:
    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_directions_consistent(self, seed):
        rng = np.random.default_rng(seed)
        n_in, n_out = int(rng.integers(1, 40)), int(rng.integers(1, 15))
        n_edges = int(rng.integers(0, 120))
        g = ChunkGraph(
            n_in,
            n_out,
            rng.integers(0, n_in, size=n_edges),
            rng.integers(0, n_out, size=n_edges),
        )
        g.validate()
        # fan sums agree
        assert g.fan_in.sum() == g.fan_out.sum() == g.n_edges
        # adjacency round-trip
        for i in range(n_in):
            for o in g.outputs_of(i):
                assert i in g.inputs_of(int(o))


class TestFromGeometry:
    def test_matches_brute_force(self, rng):
        space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (100, 100))
        in_los = rng.uniform(0, 90, size=(30, 2))
        inputs = ChunkSet(in_los, in_los + rng.uniform(1, 10, size=(30, 2)),
                          np.full(30, 10, dtype=np.int64))
        out_los = rng.uniform(0, 90, size=(8, 2))
        outputs = ChunkSet(out_los, out_los + 10, np.full(8, 10, dtype=np.int64))
        mapping = IdentityMapping(space)
        g = ChunkGraph.from_geometry(inputs, outputs, mapping)
        g.validate()
        for i in range(30):
            expected = outputs.intersecting(inputs.mbr(i)).tolist()
            assert g.outputs_of(i).tolist() == expected

    def test_footprint_widens(self, rng):
        space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (100, 100))
        inputs = ChunkSet(np.array([[10.0, 10.0]]), np.array([[11.0, 11.0]]),
                          np.array([10], dtype=np.int64))
        outputs = ChunkSet(np.array([[12.0, 10.0]]), np.array([[13.0, 11.0]]),
                           np.array([10], dtype=np.int64))
        no_fp = ChunkGraph.from_geometry(inputs, outputs, IdentityMapping(space))
        with_fp = ChunkGraph.from_geometry(
            inputs, outputs, IdentityMapping(space, footprint=(2.0, 0.0))
        )
        assert no_fp.n_edges == 0
        assert with_fp.n_edges == 1


def loop_from_geometry(inputs, outputs, mapping):
    """The per-input ``project_rect`` / ``intersecting`` loop that
    ``from_geometry`` used to be, kept here as its oracle."""
    return [
        outputs.intersecting(mapping.project_rect(inputs.mbr(i))).tolist()
        for i in range(len(inputs))
    ]


def chunks_on_lattice(rng, n, ndim, zero_extent=False):
    """MBRs with integer corners, so touching edges and zero-extent
    boxes (the closed-interval corner cases) occur often."""
    los = rng.integers(0, 12, size=(n, ndim)).astype(float)
    ext = rng.integers(0 if zero_extent else 1, 4, size=(n, ndim))
    return ChunkSet(los, los + ext, np.full(n, 10, dtype=np.int64))


class TestFromGeometryVectorized:
    @given(st.integers(0, 2**31), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_input_loop(self, seed, footprint, zero_extent):
        rng = np.random.default_rng(seed)
        d_out = int(rng.integers(1, 4))
        d_in = d_out + int(rng.integers(0, 2))  # dim_select may drop a dimension
        in_space = AttributeSpace.regular(
            "i", [f"x{k}" for k in range(d_in)], (0,) * d_in, (16,) * d_in
        )
        out_space = AttributeSpace.regular(
            "o", [f"u{k}" for k in range(d_out)], (0,) * d_out, (16,) * d_out
        )
        mapping = AffineMapping(
            in_space, out_space,
            scale=rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], size=d_out),
            offset=rng.integers(-3, 4, size=d_out).astype(float),
            dim_select=tuple(rng.permutation(d_in)[:d_out].tolist()),
            footprint=tuple(rng.integers(0, 3, size=d_out).tolist()) if footprint else None,
        )
        inputs = chunks_on_lattice(rng, int(rng.integers(1, 25)), d_in, zero_extent)
        outputs = chunks_on_lattice(rng, int(rng.integers(1, 12)), d_out, zero_extent)
        g = ChunkGraph.from_geometry(inputs, outputs, mapping)
        g.validate()
        want = loop_from_geometry(inputs, outputs, mapping)
        assert [g.outputs_of(i).tolist() for i in range(len(inputs))] == want
        same = ChunkGraph.from_lists(len(inputs), len(outputs), want)
        assert g.reverse_csr[0].tolist() == same.reverse_csr[0].tolist()
        assert g.reverse_csr[1].tolist() == same.reverse_csr[1].tolist()

    def test_empty_populations(self):
        space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (16, 16))
        none = ChunkSet(np.empty((0, 2)), np.empty((0, 2)), np.empty(0, dtype=np.int64))
        some = ChunkSet(np.zeros((3, 2)), np.ones((3, 2)), np.ones(3, dtype=np.int64))
        for inputs, outputs in ((none, some), (some, none), (none, none)):
            g = ChunkGraph.from_geometry(inputs, outputs, IdentityMapping(space))
            g.validate()
            assert (g.n_in, g.n_out, g.n_edges) == (len(inputs), len(outputs), 0)

    def test_blocks_of_inputs_concatenate_in_order(self, rng, monkeypatch):
        import repro.dataset.graph as graph_module

        space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (16, 16))
        inputs = chunks_on_lattice(rng, 23, 2)
        outputs = chunks_on_lattice(rng, 7, 2)
        whole = ChunkGraph.from_geometry(inputs, outputs, IdentityMapping(space))
        monkeypatch.setattr(graph_module, "_PAIRS_PER_BLOCK", 7 * 5)
        blocked = ChunkGraph.from_geometry(inputs, outputs, IdentityMapping(space))
        assert blocked.n_edges == whole.n_edges > 0
        for a, b in zip(blocked.edge_arrays(), whole.edge_arrays()):
            assert a.tolist() == b.tolist()


class TestSharedArrays:
    def graph(self):
        return ChunkGraph(3, 2, np.array([2, 0, 1, 1]), np.array([1, 0, 1, 0]))

    def test_views_are_read_only(self):
        g = self.graph()
        shared = [*g.edge_arrays(), *g.forward_csr, *g.reverse_csr, g.reverse_to_forward]
        assert shared and not any(a.flags.writeable for a in shared)
        with pytest.raises(ValueError):
            g.edge_arrays()[1][0] = 1

    def test_reverse_to_forward_maps_slots(self):
        g = self.graph()
        edge_in, edge_out = g.edge_arrays()
        rev_indptr, rev_ids = g.reverse_csr
        rev_out = np.repeat(np.arange(g.n_out), np.diff(rev_indptr))
        assert edge_in[g.reverse_to_forward].tolist() == rev_ids.tolist()
        assert edge_out[g.reverse_to_forward].tolist() == rev_out.tolist()
