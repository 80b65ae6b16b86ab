"""Ablation: disks per node.

ADR targets "distributed memory parallel architectures with multiple
disks attached to each node"; the SP testbed happened to have one.
This bench varies the per-node disk count on the I/O-heavy VM workload
and shows where the bottleneck moves from the disk arm to the CPU.
"""

import dataclasses

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.planner.strategies import plan_fra
from repro.sim.query_sim import simulate_query

P = grid.PROCS[0]


def test_disks_per_node_ablation(benchmark):
    sc = grid.scenario("VM", 1)
    print()
    print(f"== Ablation: disks per node (VM, {P} processors, FRA) ==")
    print("disks/node | exec time | busiest-disk time | busiest-cpu time")
    times = {}
    for disks in (1, 2, 4, 8):
        m = dataclasses.replace(ibm_sp(P), disks_per_node=disks)
        prob = sc.problem(m)
        res = simulate_query(plan_fra(prob), m, sc.costs)
        times[disks] = res.total_time
        print(
            f"{disks:10d} | {res.total_time:8.2f} s | {res.io_time:14.2f} s "
            f"| {res.computation_time:13.2f} s"
        )
    assert times[2] < times[1]
    assert times[4] < times[2]
    # diminishing returns once the CPU dominates
    gain_12 = times[1] / times[2]
    gain_48 = times[4] / times[8]
    assert gain_48 < gain_12

    m = dataclasses.replace(ibm_sp(P), disks_per_node=2)
    prob = sc.problem(m)
    benchmark.pedantic(
        simulate_query, args=(plan_fra(prob), m, sc.costs), rounds=3, iterations=1
    )
