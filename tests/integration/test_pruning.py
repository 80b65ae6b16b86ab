"""End-to-end value-synopsis pruning: ``where=`` through the whole stack.

The contract under test: a query with a value predicate returns
*bit-identical* results whether or not the planner pruned chunks,
while the pruned plan reads strictly less
and reports what it skipped (``chunks_pruned`` / ``bytes_pruned``)
consistently everywhere -- functional results, the wire protocol, and
the performance simulator.
"""

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.runtime.serial import execute_serial
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.units import MB

WHERE = {0: (None, 30.0)}


def build_instance(rng, n_procs=3):
    adr = ADR(machine=MachineConfig(n_procs=n_procs, memory_per_proc=1 * MB))
    in_space = AttributeSpace.regular("readings", ("x", "y"), (0, 0), (10, 10))
    out_space = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
    coords = rng.uniform(0, 10, size=(400, 2))
    # Values track x, so Hilbert-partitioned (spatially local) chunks
    # carry narrow synopses and the WHERE clause prunes a real subset.
    values = coords[:, 0] * 10.0 + rng.uniform(0.0, 5.0, size=400)
    chunks = hilbert_partition(coords, values, items_per_chunk=25)
    adr.load("sensors", in_space, chunks)
    grid = OutputGrid(out_space, (12, 12), (4, 4))
    mapping = GridMapping(in_space, out_space, (12, 12))
    return adr, chunks, mapping, grid


def query(mapping, grid, where=None, strategy="FRA"):
    return RangeQuery(
        dataset="sensors",
        region=Rect((0, 0), (10, 10)),
        mapping=mapping,
        grid=grid,
        aggregation="sum",
        strategy=strategy,
        where=where,
    )


class TestPlannerPruning:
    def test_problem_drops_prunable_chunks(self, rng):
        adr, chunks, mapping, grid = build_instance(rng)
        full = adr.build_problem(query(mapping, grid))
        pruned = adr.build_problem(query(mapping, grid, where=WHERE))
        assert 0 < pruned.n_pruned < len(chunks)
        assert pruned.n_in == full.n_in - pruned.n_pruned
        assert pruned.pruned_bytes > 0
        # Pruned + kept = the spatial selection; no chunk in both.
        kept = set(pruned.input_global_ids.tolist())
        dropped = set(pruned.pruned_input_ids.tolist())
        assert not kept & dropped
        assert kept | dropped == set(full.input_global_ids.tolist())

    def test_no_predicate_no_pruning(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        problem = adr.build_problem(query(mapping, grid))
        assert problem.n_pruned == 0
        assert problem.pruned_bytes == 0

    def test_all_pruned_raises(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        with pytest.raises(ValueError, match="pruning"):
            adr.build_problem(query(mapping, grid, where={0: (1e6, None)}))


@pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID"])
class TestPrunedResultIdentity:
    def test_pruned_equals_unpruned_all_backends(self, rng, strategy):
        adr, chunks, mapping, grid = build_instance(rng)
        res = adr.execute(query(mapping, grid, WHERE, strategy))
        # Strip the synopsis: same predicate, but nothing can be pruned.
        ds = adr.dataset("sensors")
        ds.chunks = ds.chunks.with_synopsis(None)
        unpruned = adr.execute(query(mapping, grid, WHERE, strategy))
        assert unpruned.chunks_pruned == 0

        assert 0 < res.chunks_pruned < len(chunks)
        assert res.bytes_pruned > 0
        assert res.output_ids.tolist() == unpruned.output_ids.tolist()
        for o, pv, uv in zip(res.output_ids, res.chunk_values, unpruned.chunk_values):
            assert np.array_equal(pv, uv, equal_nan=True), int(o)
        assert res.n_reads < unpruned.n_reads
        assert res.bytes_read < unpruned.bytes_read

    def test_matches_predicate_oracle(self, rng, strategy):
        adr, chunks, mapping, grid = build_instance(rng)
        result = adr.execute(query(mapping, grid, WHERE, strategy))
        q = query(mapping, grid, WHERE)
        serial = execute_serial(
            chunks, mapping, grid, q.spec(), predicate=q.predicate()
        )
        assert set(result.output_ids.tolist()) == set(serial)
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)], equal_nan=True)


class TestPredicateSemantics:
    def test_where_changes_results(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        plain = adr.execute(query(mapping, grid)).as_dict()
        filtered = adr.execute(query(mapping, grid, where=WHERE)).as_dict()
        assert any(
            not np.allclose(filtered[o], plain[o], equal_nan=True)
            for o in filtered
        )

    def test_where_without_synopsis_still_filters(self, rng):
        """Residual filtering alone (no synopsis, no pruning) gives the
        same answer -- pruning is purely an I/O optimization."""
        adr, chunks, mapping, grid = build_instance(rng)
        with_syn = adr.execute(query(mapping, grid, where=WHERE))
        ds = adr.dataset("sensors")
        ds.chunks = ds.chunks.with_synopsis(None)
        without = adr.execute(query(mapping, grid, where=WHERE))
        for a, b in zip(with_syn.chunk_values, without.chunk_values):
            assert np.array_equal(a, b, equal_nan=True)


class TestSimulatorPricing:
    def test_sim_prices_pruned_schedule(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        plain = adr.simulate(query(mapping, grid, strategy="FRA"))
        pruned = adr.simulate(query(mapping, grid, where=WHERE, strategy="FRA"))
        assert plain.chunks_pruned == 0
        assert pruned.chunks_pruned > 0
        assert pruned.bytes_pruned > 0
        # The simulated schedule excludes pruned chunks entirely.
        assert pruned.read_bytes.sum() < plain.read_bytes.sum()
        assert pruned.total_time < plain.total_time


class TestProtocol:
    def test_where_round_trips(self, rng):
        from repro.frontend.protocol import query_from_dict, query_to_dict

        _, _, mapping, grid = build_instance(rng)
        q = query(mapping, grid, where=WHERE)
        payload = query_to_dict(q)
        assert "where" in payload
        back = query_from_dict(payload)
        assert back.predicate() == q.predicate()

    def test_default_query_has_no_where_key(self, rng):
        from repro.frontend.protocol import query_to_dict

        _, _, mapping, grid = build_instance(rng)
        assert "where" not in query_to_dict(query(mapping, grid))

    def test_result_counters_round_trip(self, rng):
        from repro.frontend.protocol import result_from_dict, result_to_dict

        adr, _, mapping, grid = build_instance(rng)
        res = adr.execute(query(mapping, grid, where=WHERE))
        payload = result_to_dict(res)
        assert payload["chunks_pruned"] == res.chunks_pruned > 0
        back = result_from_dict(payload)
        assert back.chunks_pruned == res.chunks_pruned
        assert back.bytes_pruned == res.bytes_pruned
        # Unpruned results keep the legacy payload shape.
        plain = result_to_dict(adr.execute(query(mapping, grid)))
        assert "chunks_pruned" not in plain
