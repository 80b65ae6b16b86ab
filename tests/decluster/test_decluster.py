"""Tests for declustering algorithms and placement metrics."""

import numpy as np
import pytest

from repro.dataset.partition import regular_grid_chunkset
from repro.decluster.hilbert import HilbertDeclusterer
from repro.decluster.metrics import placement_report, query_balance
from repro.decluster.simple import RandomDeclusterer, RoundRobinDeclusterer
from repro.util.geometry import Rect


def grid_chunks(n_side=16):
    return regular_grid_chunkset(Rect((0, 0), (1, 1)), (n_side, n_side), 100)


ALL = [HilbertDeclusterer(), RoundRobinDeclusterer(), RandomDeclusterer(seed=0)]


@pytest.mark.parametrize("decl", ALL, ids=lambda d: type(d).__name__)
class TestAssignment:
    def test_valid_range(self, decl):
        cs = grid_chunks()
        node, disk = decl.assign(cs, n_nodes=4, disks_per_node=2)
        assert node.min() >= 0 and node.max() < 4
        assert disk.min() >= 0 and disk.max() < 2
        assert len(node) == len(cs)

    def test_place_returns_placed_copy(self, decl):
        cs = grid_chunks()
        placed = decl.place(cs, 4)
        assert placed.placed and not cs.placed

    def test_bad_args(self, decl):
        with pytest.raises(ValueError):
            decl.assign(grid_chunks(), 0)
        with pytest.raises(ValueError):
            decl.assign(grid_chunks(), 2, 0)


class TestBalance:
    def test_hilbert_and_round_robin_evenly_spread(self):
        cs = grid_chunks()
        for decl in (HilbertDeclusterer(), RoundRobinDeclusterer()):
            node, _ = decl.assign(cs, 8)
            counts = np.bincount(node, minlength=8)
            assert counts.max() - counts.min() <= 1

    def test_hilbert_beats_round_robin_on_range_queries(self, rng):
        """The core declustering claim: for square range queries the
        Hilbert placement keeps the busiest disk closer to ideal than
        striping by row-major chunk id."""
        cs = grid_chunks(16)
        n_disks = 8
        queries = []
        for _ in range(40):
            lo = rng.uniform(0, 0.6, size=2)
            queries.append(Rect(tuple(lo), tuple(lo + 0.35)))
        reports = {}
        for decl in (HilbertDeclusterer(), RoundRobinDeclusterer()):
            placed = decl.place(cs, n_disks)
            reports[type(decl).__name__] = placement_report(placed, queries, n_disks)
        assert (
            reports["HilbertDeclusterer"].mean_ratio
            < reports["RoundRobinDeclusterer"].mean_ratio
        )

    def test_query_balance_fields(self):
        cs = HilbertDeclusterer().place(grid_chunks(8), 4)
        b = query_balance(cs, Rect((0, 0), (1, 1)), 4)
        assert b.n_retrieved == 64
        assert b.ideal == 16
        assert b.busiest_disk >= b.ideal
        assert b.ratio >= 1.0

    def test_query_balance_empty_query(self):
        cs = HilbertDeclusterer().place(grid_chunks(4), 2)
        b = query_balance(cs, Rect((2, 2), (3, 3)), 2)
        assert b.n_retrieved == 0 and b.ratio == 1.0

    def test_balance_requires_placement(self):
        with pytest.raises(ValueError, match="placed"):
            query_balance(grid_chunks(4), Rect((0, 0), (1, 1)), 2)

    def test_placement_report_empty_workload(self):
        cs = HilbertDeclusterer().place(grid_chunks(4), 2)
        rep = placement_report(cs, [], 2)
        assert rep.n_queries == 0

    def test_report_str(self):
        cs = HilbertDeclusterer().place(grid_chunks(4), 2)
        rep = placement_report(cs, [Rect((0, 0), (1, 1))], 2)
        assert "queries" in str(rep)


class TestDeterminism:
    def test_hilbert_deterministic(self):
        cs = grid_chunks()
        a = HilbertDeclusterer().assign(cs, 4)
        b = HilbertDeclusterer().assign(cs, 4)
        assert a[0].tolist() == b[0].tolist()

    def test_random_seeded(self):
        cs = grid_chunks()
        a = RandomDeclusterer(seed=7).assign(cs, 4)
        b = RandomDeclusterer(seed=7).assign(cs, 4)
        assert a[0].tolist() == b[0].tolist()
