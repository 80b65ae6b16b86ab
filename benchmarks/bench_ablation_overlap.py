"""Ablation: operation overlap on/off.

Section 2.4: "To reduce query execution time, ADR overlaps disk
operations, network operations and processing as much as possible
during query processing [...] Data chunks are therefore retrieved and
processed in a pipelined fashion."  The contrast case is the layered
architecture the related-work section criticizes, where "data
processing usually cannot begin until the entire collective I/O
operation completes".

This bench executes each application under FRA with the pipeline
enabled and disabled and reports the speedup from overlap.
"""

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.sim.query_sim import simulate_query

P = grid.PROCS[0]


def test_overlap_ablation(benchmark):
    print()
    print(f"== Ablation: I/O-compute overlap ({P} processors, FRA) ==")
    print("app | overlapped | layered (no overlap) | speedup")
    speedups = {}
    for app in grid.APPS:
        sc = grid.scenario(app, 1)
        machine = ibm_sp(P)
        plan = grid.plan(app, 1, P, "FRA")
        on = simulate_query(plan, machine, sc.costs).total_time
        off = simulate_query(plan, machine, sc.costs, overlap=False).total_time
        speedups[app] = off / on
        print(f"{app:3} | {on:9.2f} s | {off:19.2f} s | {off / on:6.2f}x")
    # Overlap must help, most of all for the I/O-heavy VM workload.
    assert all(s >= 1.0 for s in speedups.values())
    assert speedups["VM"] > 1.1
    sc = grid.scenario("VM", 1)
    plan = grid.plan("VM", 1, P, "FRA")
    benchmark.pedantic(
        simulate_query, args=(plan, ibm_sp(P), sc.costs), rounds=3, iterations=1
    )
