"""Tests for multiple disks per node (the paper's general back end).

The SP testbed had one disk per node, but ADR's architecture is
"distributed memory parallel architectures with multiple disks
attached to each node"; these tests exercise that generality through
placement, planning, simulation and the functional store.
"""

import dataclasses

import numpy as np
import pytest

from repro.decluster.hilbert import HilbertDeclusterer
from repro.emulator import VMEmulator
from repro.machine.config import MachineConfig
from repro.machine.presets import ibm_sp
from repro.planner.strategies import plan_fra
from repro.sim.query_sim import simulate_query
from repro.util.units import MB


@pytest.fixture(scope="module")
def scenario():
    return VMEmulator(input_grid=(32, 32)).scenario(1, seed=3)


def machine(disks: int) -> MachineConfig:
    base = ibm_sp(4)
    return dataclasses.replace(base, disks_per_node=disks)


class TestPlacement:
    def test_chunks_spread_over_local_disks(self, scenario):
        decl = HilbertDeclusterer()
        placed = decl.place(scenario.inputs, n_nodes=4, disks_per_node=3)
        for node in range(4):
            on_node = placed.disk[placed.node == node]
            counts = np.bincount(on_node, minlength=3)
            assert counts.min() > 0
            assert counts.max() - counts.min() <= counts.mean()

    def test_disk_indices_bounded(self, scenario):
        placed = HilbertDeclusterer().place(scenario.inputs, 4, 3)
        assert placed.disk.max() < 3


class TestSimulation:
    def test_more_disks_speed_up_io_bound_query(self, scenario):
        times = {}
        for disks in (1, 2, 4):
            m = machine(disks)
            prob = scenario.problem(m)
            plan = plan_fra(prob)
            times[disks] = simulate_query(plan, m, scenario.costs).total_time
        assert times[2] < times[1]
        assert times[4] < times[2]

    def test_disk_busy_aggregates_all_local_disks(self, scenario):
        m = machine(4)
        prob = scenario.problem(m)
        res = simulate_query(plan_fra(prob), m, scenario.costs)
        # total disk service time is independent of the disk count
        m1 = machine(1)
        res1 = simulate_query(plan_fra(scenario.problem(m1)), m1, scenario.costs)
        assert res.disk_busy.sum() == pytest.approx(res1.disk_busy.sum(), rel=0.01)

    def test_mismatched_disk_placement_rejected(self, scenario):
        # chunks placed for 4 disks per node, machine with 1: the read
        # path would index a missing disk
        m4 = machine(4)
        prob = scenario.problem(m4)
        m1 = machine(1)
        with pytest.raises(IndexError):
            simulate_query(plan_fra(prob), m1, scenario.costs)


class TestFunctionalStore:
    def test_file_store_multi_disk_layout(self, rng, tmp_path):
        from repro.dataset.partition import hilbert_partition
        from repro.frontend.adr import ADR
        from repro.store.chunk_store import FileChunkStore
        from repro.space.attribute_space import AttributeSpace

        m = MachineConfig(n_procs=2, memory_per_proc=MB, disks_per_node=3)
        adr = ADR(machine=m, store=FileChunkStore(tmp_path / "farm"))
        space = AttributeSpace.regular("s", ("x", "y"), (0, 0), (1, 1))
        coords = rng.uniform(0, 1, size=(120, 2))
        chunks = hilbert_partition(coords, np.zeros(120), items_per_chunk=10)
        adr.load("d", space, chunks)
        disks_used = {
            adr.store.placement("d", c)[1] for c in adr.store.chunk_ids("d")
        }
        assert disks_used == {0, 1, 2}
