"""Integration tests for the ADR façade."""

import numpy as np
import pytest

from repro.aggregation.output_grid import OutputGrid
from repro.dataset.partition import hilbert_partition
from repro.decluster.simple import RandomDeclusterer
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.runtime.serial import execute_serial
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.store.chunk_store import FileChunkStore
from repro.util.geometry import Rect
from repro.util.units import MB


def build_instance(rng, n_procs=3, store=None, declusterer=None):
    adr = ADR(
        machine=MachineConfig(n_procs=n_procs, memory_per_proc=1 * MB),
        store=store, declusterer=declusterer,
    )
    in_space = AttributeSpace.regular("readings", ("x", "y"), (0, 0), (10, 10))
    out_space = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
    coords = rng.uniform(0, 10, size=(400, 2))
    values = rng.integers(0, 100, size=400).astype(float)
    chunks = hilbert_partition(coords, values, items_per_chunk=25)
    adr.load("sensors", in_space, chunks)
    grid = OutputGrid(out_space, (12, 12), (4, 4))
    mapping = GridMapping(in_space, out_space, (12, 12))
    return adr, chunks, mapping, grid


def full_query(mapping, grid, strategy="FRA", aggregation="mean"):
    return RangeQuery(
        dataset="sensors",
        region=Rect((0, 0), (10, 10)),
        mapping=mapping,
        grid=grid,
        aggregation=aggregation,
        strategy=strategy,
    )


class TestLoading:
    def test_load_registers_everything(self, rng):
        adr, chunks, _, _ = build_instance(rng)
        assert "sensors" in adr.catalog
        assert "readings" in adr.spaces
        assert adr.index("sensors").n_entries == len(chunks)
        assert adr.dataset("sensors").chunks.placed

    def test_unknown_dataset(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        q = full_query(mapping, grid)
        q.dataset = "absent"
        with pytest.raises(KeyError):
            adr.execute(q)

    def test_index_missing(self, rng):
        adr, _, _, _ = build_instance(rng)
        with pytest.raises(KeyError):
            adr.index("absent")


@pytest.mark.parametrize("strategy", ["FRA", "SRA", "DA", "HYBRID", "AUTO"])
class TestExecution:
    def test_matches_serial(self, rng, strategy):
        adr, chunks, mapping, grid = build_instance(rng)
        result = adr.execute(full_query(mapping, grid, strategy))
        serial = execute_serial(chunks, mapping, grid, full_query(mapping, grid).spec())
        assert set(result.output_ids.tolist()) == set(serial)
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)], equal_nan=True)


class TestPartialQueries:
    def test_sub_region_selects_subset(self, rng):
        adr, chunks, mapping, grid = build_instance(rng)
        q = full_query(mapping, grid)
        q.region = Rect((0, 0), (3, 3))
        result = adr.execute(q)
        assert 0 < len(result.output_ids) < grid.n_chunks

    def test_sub_region_values_match_full(self, rng):
        """Computed chunks of a partial query agree with the full query
        wherever all contributing input falls inside the region."""
        adr, chunks, mapping, grid = build_instance(rng)
        full = adr.execute(full_query(mapping, grid, aggregation="sum")).as_dict()
        q = full_query(mapping, grid, aggregation="sum")
        q.region = Rect((0, 0), (10, 5))
        part = adr.execute(q).as_dict()
        # interior chunk fully inside the half-plane: identical sums
        interior = [
            o for o in part
            if grid.chunkset().his[o][1] < 0.5 - 1e-9
        ]
        assert interior, "expected interior chunks in the test region"
        for o in interior:
            np.testing.assert_allclose(part[o], full[o])

    def test_region_outside_space(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        q = full_query(mapping, grid)
        q.region = Rect((20, 20), (30, 30))
        with pytest.raises(ValueError):
            adr.execute(q)

    def test_empty_selection(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        q = full_query(mapping, grid)
        # a sliver that intersects the space but (almost surely) no chunk
        q.region = Rect((9.9999, 9.9999), (10, 10))
        try:
            adr.execute(q)
        except ValueError as e:
            assert "selects no input chunks" in str(e)


class TestPlanningSurface:
    def test_plan_validates_and_reports(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        plan = adr.plan(full_query(mapping, grid, "DA"))
        assert plan.strategy == "DA"
        assert plan.n_tiles >= 1

    def test_auto_picks_a_strategy(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        plan = adr.plan(full_query(mapping, grid, "AUTO"))
        assert plan.strategy in {"FRA", "SRA", "DA", "HYBRID"}

    def test_auto_execute_stamps_choice(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        res = adr.execute(full_query(mapping, grid, "AUTO"))
        assert res.selected_strategy == res.strategy
        assert res.selected_strategy in {"FRA", "SRA", "DA", "HYBRID"}
        # the full priced ranking is exposed, cheapest first
        totals = list(res.strategy_ranking.values())
        assert totals == sorted(totals)
        assert next(iter(res.strategy_ranking)) == res.selected_strategy
        assert set(res.strategy_ranking) == {"FRA", "SRA", "DA", "HYBRID"}

    def test_fixed_strategy_has_no_choice_stamp(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        res = adr.execute(full_query(mapping, grid, "DA"))
        assert res.selected_strategy == ""
        assert res.strategy_ranking == {}

    def test_auto_matches_explicit_execution(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        auto = adr.execute(full_query(mapping, grid, "AUTO"))
        explicit = adr.execute(full_query(mapping, grid, auto.selected_strategy))
        assert auto.output_ids.tolist() == explicit.output_ids.tolist()
        for av, ev in zip(auto.chunk_values, explicit.chunk_values):
            assert np.array_equal(av, ev, equal_nan=True)

    def test_simulate(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        res = adr.simulate(full_query(mapping, grid), strategy="FRA")
        assert res.total_time > 0
        assert res.strategy == "FRA"

    def test_build_problem_global_ids(self, rng):
        adr, chunks, mapping, grid = build_instance(rng)
        prob = adr.build_problem(full_query(mapping, grid))
        assert len(prob.input_global_ids) == len(chunks)
        assert len(prob.output_global_ids) == grid.n_chunks


class TestPlanOncePerGrid:
    """What does not depend on the query is computed once per grid, and
    what does not depend on the strategy once per query."""

    def sub_query(self, mapping, grid, lo):
        # a grid *equal* to the loaded one but built anew, as the wire
        # decoder and most callers do for every query
        grid = OutputGrid(grid.space, grid.grid_shape, grid.chunk_shape)
        return RangeQuery(
            "sensors", Rect((lo, lo), (lo + 5, lo + 5)), mapping, grid,
            aggregation="mean", strategy="AUTO",
        )

    def test_second_auto_query_on_a_grid(self, rng, monkeypatch):
        import repro.util.hilbert as hilbert_module

        adr, _, mapping, grid = build_instance(rng)
        adr.execute(self.sub_query(mapping, grid, 0.0))
        calls = {"hilbert": 0, "chunkset": 0}
        real_indices, real_chunkset = hilbert_module.hilbert_indices, OutputGrid.chunkset

        def counting_indices(*args, **kwargs):
            calls["hilbert"] += 1
            return real_indices(*args, **kwargs)

        def counting_chunkset(self):
            calls["chunkset"] += 1
            return real_chunkset(self)

        monkeypatch.setattr(hilbert_module, "hilbert_indices", counting_indices)
        monkeypatch.setattr(OutputGrid, "chunkset", counting_chunkset)
        result = adr.execute(self.sub_query(mapping, grid, 4.0))
        assert len(result.strategy_ranking) == 4  # four plans priced ...
        # ... on the Hilbert keys the grid's first query took
        assert calls == {"hilbert": 0, "chunkset": 0}

    def test_stateful_declusterer_places_a_grid_once(self, rng):
        """Two queries over one grid must agree on who owns an output
        chunk; a seeded ``RandomDeclusterer`` used to re-draw the
        placement on every ``build_problem``."""
        adr, _, mapping, grid = build_instance(rng, declusterer=RandomDeclusterer(seed=5))
        owners = {}
        for lo in (0.0, 2.0, 4.0, 0.0):
            problem = adr.build_problem(self.sub_query(mapping, grid, lo))
            for out_id, node in zip(problem.output_global_ids, problem.output_owner):
                assert owners.setdefault(int(out_id), int(node)) == int(node)
        assert len(set(owners.values())) > 1

    def test_update_flips_init_from_output_on_a_planned_problem(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        query = self.sub_query(mapping, grid, 0.0)
        problem = adr.build_problem(query)
        before = adr._choose(problem, "AUTO")[1]
        problem.init_from_output = True
        after = adr._choose(problem, "AUTO")[1]
        fresh = adr.build_problem(query)
        fresh.init_from_output = True
        want = adr._choose(fresh, "AUTO")[1]
        assert after.estimates == want.estimates
        assert after.estimates != before.estimates


class TestFileStoreBacked:
    def test_end_to_end_on_disk(self, rng, tmp_path):
        store = FileChunkStore(tmp_path / "farm")
        adr, chunks, mapping, grid = build_instance(rng, store=store)
        result = adr.execute(full_query(mapping, grid, "DA", aggregation="sum"))
        serial = execute_serial(chunks, mapping, grid, full_query(mapping, grid, aggregation="sum").spec())
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)])

    def test_reload_under_one_name_keeps_only_the_new_chunks(self, rng, tmp_path):
        """``ADR.load`` of an existing name replaces the dataset: the
        store, a reopened store and the payload cache all forget the
        chunks the first load had beyond the second."""
        root = tmp_path / "farm"
        adr, chunks, mapping, grid = build_instance(rng, store=FileChunkStore(root))
        assert len(chunks) == 16
        adr.store.read_chunk("sensors", 12)  # now cached
        space = adr.dataset("sensors").space
        adr.load("sensors", space, chunks[:4])
        for store in (adr.store, FileChunkStore(root)):
            assert store.chunk_ids("sensors") == [0, 1, 2, 3]
            with pytest.raises(KeyError):
                store.read_chunk("sensors", 12)
        assert len(list(root.rglob("*.adc"))) == 4
        result = adr.execute(full_query(mapping, grid, "FRA", aggregation="sum"))
        assert result.n_reads == 4


class TestQuerySpec:
    def test_unknown_aggregation(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        q = full_query(mapping, grid, aggregation="median")
        with pytest.raises(ValueError, match="unknown aggregation"):
            q.spec()

    def test_spec_instance_passthrough(self, rng):
        from repro.aggregation.functions import SumAggregation

        _, _, mapping, grid = build_instance(rng)
        spec = SumAggregation(1)
        q = full_query(mapping, grid, aggregation=spec)
        assert q.spec() is spec

    def test_unknown_strategy_at_plan_time(self, rng):
        adr, _, mapping, grid = build_instance(rng)
        with pytest.raises(ValueError):
            adr.plan(full_query(mapping, grid, "WAT"))


class TestRobustness:
    """Retry and degraded execution wired through the façade."""

    def test_retry_sits_under_the_cache(self):
        from repro.store.cache import CachedChunkStore
        from repro.store.retry import RetryPolicy, RetryingChunkStore

        adr = ADR(machine=MachineConfig(n_procs=2, memory_per_proc=MB),
                  retry=RetryPolicy(base_delay=0))
        assert isinstance(adr.store, CachedChunkStore)
        assert isinstance(adr.store.inner, RetryingChunkStore)
        assert adr.cache is adr.store

    def test_cache_attribute_follows_the_wrap_or_adopt_decision(self):
        from repro.store.cache import CachedChunkStore
        from repro.store.chunk_store import MemoryChunkStore

        machine = MachineConfig(n_procs=2, memory_per_proc=MB)
        mine = CachedChunkStore(MemoryChunkStore(), max_bytes=1)
        adopted = ADR(machine=machine, store=mine)
        assert adopted.cache is mine and adopted.store is mine
        bare = ADR(machine=machine, cache_bytes=0)
        assert bare.cache is None and isinstance(bare.store, MemoryChunkStore)

    def test_flaky_store_healed_by_retry(self, rng):
        """Two injected I/O failures are absorbed by the façade's retry
        policy; the result matches the clean serial run exactly."""
        from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore
        from repro.store.chunk_store import MemoryChunkStore
        from repro.store.retry import RetryPolicy

        faulty = FaultyChunkStore(
            MemoryChunkStore(), FaultInjector(FaultPlan.flaky_read(times=2))
        )
        adr = ADR(machine=MachineConfig(n_procs=3, memory_per_proc=1 * MB),
                  store=faulty, retry=RetryPolicy(max_attempts=4, base_delay=0))
        in_space = AttributeSpace.regular("readings", ("x", "y"), (0, 0), (10, 10))
        out_space = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
        coords = rng.uniform(0, 10, size=(400, 2))
        values = rng.integers(0, 100, size=400).astype(float)
        chunks = hilbert_partition(coords, values, items_per_chunk=25)
        adr.load("sensors", in_space, chunks)
        grid = OutputGrid(out_space, (12, 12), (4, 4))
        mapping = GridMapping(in_space, out_space, (12, 12))
        q = full_query(mapping, grid, "FRA", aggregation="sum")
        result = adr.execute(q)
        assert result.completeness == 1.0 and result.chunk_errors == {}
        serial = execute_serial(chunks, mapping, grid, q.spec())
        for o, vals in zip(result.output_ids, result.chunk_values):
            np.testing.assert_allclose(vals, serial[int(o)])

    def test_degraded_query_through_facade(self, rng):
        """on_error='degrade' on the RangeQuery flows to the engine and
        surfaces the lost chunk in the result."""
        from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore
        from repro.store.chunk_store import MemoryChunkStore

        faulty = FaultyChunkStore(
            MemoryChunkStore(),
            FaultInjector(FaultPlan.corrupt_chunk(0, dataset="sensors")),
        )
        adr, chunks, mapping, grid = build_instance(rng, store=faulty)
        q = full_query(mapping, grid, "FRA", aggregation="sum")
        with pytest.raises(Exception, match="CRC"):
            adr.execute(q)  # default on_error='raise' propagates
        q.on_error = "degrade"
        result = adr.execute(q)
        assert len(result.chunk_errors) == 1
        (msg,) = result.chunk_errors.values()
        assert "CorruptChunkError" in msg
        assert result.completeness == pytest.approx(1 - 1 / len(chunks))

    def test_damaged_header_on_disk_degrades(self, rng, tmp_path):
        """The CRC does not cover the header: a flipped ``n_items`` bit
        in a chunk file on disk must still be a chunk error a degraded
        query records, not a crash."""
        store = FileChunkStore(tmp_path / "farm")
        adr, chunks, mapping, grid = build_instance(rng, store=store)
        path = store._chunk_path("sensors", 0, *store.placement("sensors", 0))
        with open(path, "r+b") as fh:
            fh.seek(16)  # n_items, little-endian int64
            low = fh.read(1)[0]
            fh.seek(16)
            fh.write(bytes([low ^ 1]))
        q = full_query(mapping, grid, "FRA", aggregation="sum")
        q.on_error = "degrade"
        result = adr.execute(q)
        assert list(result.chunk_errors) == [0]
        assert "CorruptChunkError" in result.chunk_errors[0]
