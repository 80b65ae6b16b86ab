"""Tests for batch-query submission against an ADR instance: batches are
planned by :func:`repro.planner.batch.plan_batch` over the front end's
planning problems and executed by the :class:`QueryService` scheduler."""

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.frontend.queryservice import QueryService, ServicePolicy
from repro.machine.config import MachineConfig
from repro.planner.batch import plan_batch
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.units import MB


@pytest.fixture
def setup(rng):
    adr = ADR(machine=MachineConfig(n_procs=3, memory_per_proc=MB))
    space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (10, 10))
    coords = rng.uniform(0, 10, size=(600, 2))
    values = rng.integers(1, 50, size=600).astype(float)
    chunks = hilbert_partition(coords, values, items_per_chunk=20)
    adr.load("d", space, chunks)
    out_space = AttributeSpace.regular("o", ("u", "v"), (0, 0), (1, 1))
    grid = OutputGrid(out_space, (8, 8), (4, 4))
    mapping = GridMapping(space, out_space, (8, 8))

    def query(region, strategy="DA"):
        return RangeQuery("d", region, mapping, grid, aggregation="sum", strategy=strategy)

    return adr, query


def batch_of(adr, queries):
    return plan_batch([adr.build_problem(q) for q in queries])


class TestADRBatch:
    def test_batch_results_equal_individual(self, setup):
        adr, query = setup
        queries = [
            query(Rect((0, 0), (6, 6))),
            query(Rect((4, 4), (10, 10))),
            query(Rect((0, 4), (6, 10))),
        ]
        with QueryService(adr, ServicePolicy(max_inflight=1, batch_max=8)) as service:
            tickets = [service.submit(q) for q in queries]
            batch_results = [t.result(timeout=30) for t in tickets]
        for q, br in zip(queries, batch_results):
            solo = adr.execute(q)
            assert br.output_ids.tolist() == solo.output_ids.tolist()
            for a, b in zip(br.chunk_values, solo.chunk_values):
                np.testing.assert_allclose(a, b, equal_nan=True)

    def test_batch_plan_orders_by_overlap(self, setup):
        adr, query = setup
        queries = [
            query(Rect((0, 0), (5, 5))),       # A
            query(Rect((5.2, 5.2), (10, 10))),  # far from A
            query(Rect((1, 1), (5.5, 5.5))),    # overlaps A heavily
        ]
        batch = batch_of(adr, queries)
        pos = {q: i for i, q in enumerate(batch.order)}
        assert abs(pos[0] - pos[2]) == 1

    def test_empty_batch(self, setup):
        with pytest.raises(ValueError):
            plan_batch([])

    def test_batch_summary(self, setup):
        adr, query = setup
        batch = batch_of(adr, [query(Rect((0, 0), (8, 8))), query(Rect((2, 2), (10, 10)))])
        assert "shareable" in batch.summary()
