"""Tests for batch (multi-query) planning and scan sharing."""

import pytest

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.batch import BatchPlan, plan_batch, simulate_batch
from repro.planner.strategies import plan_fra
from repro.sim.query_sim import simulate_query
from repro.util.units import KB, MB

from helpers import sub_problem


MACHINE = MachineConfig(n_procs=2, memory_per_proc=8 * MB)
COSTS = ComputeCosts.from_ms(1, 2, 1, 1)


class TestBatchPlan:
    def test_order_is_permutation(self, rng):
        probs = [sub_problem(rng, range(0, 20)), sub_problem(rng, range(10, 30))]
        batch = plan_batch(probs)
        assert sorted(batch.order) == [0, 1]
        assert len(batch) == 2

    def test_invalid_order_rejected(self, rng):
        p = sub_problem(rng, range(5))
        plan = plan_fra(p)
        with pytest.raises(ValueError):
            BatchPlan([plan], [1])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            plan_batch([])

    def test_chunk_sets_are_global_ids(self, rng):
        probs = [sub_problem(rng, range(5, 15))]
        batch = plan_batch(probs)
        assert batch.query_chunk_sets()[0] == frozenset(range(5, 15))

    def test_reorder_chains_overlapping_queries(self, rng):
        # queries A:[0,20) C:[40,60) B:[15,35) D: disjoint -- the chain
        # should put A next to B (overlap 5 chunks), C isolated.
        a = sub_problem(rng, range(0, 20))
        b = sub_problem(rng, range(15, 35))
        c = sub_problem(rng, range(40, 60))
        batch = plan_batch([a, c, b])  # submitted with C in the middle
        pos = {q: i for i, q in enumerate(batch.order)}
        assert abs(pos[0] - pos[2]) == 1  # A and B adjacent

    def test_no_overlap_keeps_submission_order(self, rng):
        probs = [
            sub_problem(rng, range(0, 10)),
            sub_problem(rng, range(20, 30)),
            sub_problem(rng, range(40, 50)),
        ]
        batch = plan_batch(probs)
        assert batch.order == [0, 1, 2]

    def test_shared_bytes_accounting(self, rng):
        a = sub_problem(rng, range(0, 20))
        b = sub_problem(rng, range(10, 30))
        batch = plan_batch([a, b])
        # 10 shared chunks x 64 KB
        assert batch.consecutive_shared_bytes() == 10 * 64 * KB

    def test_summary_smoke(self, rng):
        batch = plan_batch([sub_problem(rng, range(10))])
        assert "batch of 1" in batch.summary()
        batch = plan_batch([sub_problem(rng, range(0, 20)), sub_problem(rng, range(10, 30))])
        assert "batch of 2" in batch.summary() and "shareable" in batch.summary()


class TestSimulateBatch:
    def test_shared_scan_saves_reads_and_time(self, rng):
        a = sub_problem(rng, range(0, 30))
        b = sub_problem(rng, range(5, 35))
        batch = plan_batch([a, b])
        shared = simulate_batch(batch, MACHINE, COSTS, shared_scan=True)
        cold = simulate_batch(batch, MACHINE, COSTS, shared_scan=False)
        assert shared.bytes_saved == 25 * 64 * KB
        assert cold.bytes_saved == 0
        assert shared.total_time < cold.total_time

    def test_per_query_results_in_execution_order(self, rng):
        probs = [sub_problem(rng, range(0, 10)), sub_problem(rng, range(5, 15))]
        batch = plan_batch(probs)
        res = simulate_batch(batch, MACHINE, COSTS)
        assert len(res.per_query) == 2
        assert res.total_time == pytest.approx(
            sum(r.total_time for r in res.per_query)
        )
        assert "batch total" in res.row()

    def test_cached_inputs_zero_disk_time(self, rng):
        prob = sub_problem(rng, range(0, 10))
        plan = plan_fra(prob)
        cold = simulate_query(plan, MACHINE, COSTS)
        warm = simulate_query(
            plan, MACHINE, COSTS, cached_inputs=frozenset(range(10))
        )
        assert warm.read_bytes.sum() == 0
        assert warm.total_time < cold.total_time
        assert warm.disk_busy.sum() < cold.disk_busy.sum()


class TestOrderForSharing:
    """The standalone ordering over pre-built, possibly mixed-strategy
    plans."""

    def _plans(self, rng, ranges, strategy="FRA"):
        from repro.planner.strategies import plan_query

        return [plan_query(sub_problem(rng, r), strategy) for r in ranges]

    def test_returns_permutation(self, rng):
        from repro.planner.batch import order_for_sharing

        plans = self._plans(rng, [range(0, 20), range(10, 30), range(40, 60)])
        order = order_for_sharing(plans)
        assert sorted(order) == [0, 1, 2]

    def test_two_or_fewer_keep_submission_order(self, rng):
        from repro.planner.batch import order_for_sharing

        plans = self._plans(rng, [range(0, 20), range(0, 20)])
        assert order_for_sharing(plans) == [0, 1]
        assert order_for_sharing(plans[:1]) == [0]

    def test_chains_overlap_across_mixed_strategies(self, rng):
        """Overlap is a property of the input chunk sets, not the
        tiling: FRA and SRA plans order the same."""
        from repro.planner.batch import order_for_sharing
        from repro.planner.strategies import plan_query

        a = plan_query(sub_problem(rng, range(0, 20)), "FRA")
        c = plan_query(sub_problem(rng, range(40, 60)), "SRA")
        b = plan_query(sub_problem(rng, range(15, 35)), "SRA")
        order = order_for_sharing([a, c, b])
        pos = {q: i for i, q in enumerate(order)}
        assert abs(pos[0] - pos[2]) == 1  # A and B adjacent

    def test_no_overlap_keeps_submission_order(self, rng):
        from repro.planner.batch import order_for_sharing

        plans = self._plans(
            rng, [range(0, 10), range(20, 30), range(40, 50)]
        )
        assert order_for_sharing(plans) == [0, 1, 2]

    def test_matches_plan_batch_order(self, rng):
        from repro.planner.batch import order_for_sharing

        probs = [sub_problem(rng, range(0, 20)),
                 sub_problem(rng, range(40, 60)),
                 sub_problem(rng, range(15, 35))]
        batch = plan_batch(probs)
        from repro.planner.strategies import plan_query

        plans = [plan_query(p, "FRA") for p in probs]
        assert order_for_sharing(plans) == batch.order


class TestConsecutiveSharedKeys:
    """The chunks consecutive queries share under the batch order, as
    the bytes a one-query reuse window saves (64 KB per chunk)."""

    def test_keys_are_the_consecutive_overlaps(self, rng):
        probs = [sub_problem(rng, range(0, 20)),
                 sub_problem(rng, range(15, 35))]
        batch = plan_batch(probs)
        assert batch.consecutive_shared_bytes() == 5 * 64 * KB

    def test_disjoint_batch_pins_nothing(self, rng):
        probs = [sub_problem(rng, range(0, 10)),
                 sub_problem(rng, range(20, 30))]
        batch = plan_batch(probs)
        assert batch.consecutive_shared_bytes() == 0

    def test_only_adjacent_overlap_counts(self, rng):
        """Overlap between non-consecutive queries is not shared -- the
        reuse window is one query deep."""
        a = sub_problem(rng, range(0, 10))
        b = sub_problem(rng, range(20, 30))
        c = sub_problem(rng, range(0, 10))  # same chunks as A
        batch = plan_batch([a, b, c], reorder=False)
        assert batch.order == [0, 1, 2]
        assert batch.consecutive_shared_bytes() == 0

    def test_chain_unions_every_adjacent_pair(self, rng):
        probs = [sub_problem(rng, range(0, 20)),
                 sub_problem(rng, range(15, 35)),
                 sub_problem(rng, range(30, 50))]
        batch = BatchPlan(
            [plan_fra(p) for p in probs], [0, 1, 2]
        )
        assert batch.consecutive_shared_bytes() == (5 + 5) * 64 * KB
