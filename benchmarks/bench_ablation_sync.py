"""Ablation: global tile barriers vs asynchronous tile progression.

The paper's DA pseudo-code (Figure 6) keeps a *per-processor* tile
counter, while FRA/SRA tiles are global; the execution service
description (Section 2.4) is phase-by-phase.  This bench quantifies
what the synchronization itself costs: the same plans executed with
per-tile phase barriers (the default model) and with fully
asynchronous per-processor progression, where only the data
dependencies (forwarded inputs, ghost receipts) order work.

Expected: barrier cost grows with per-tile load imbalance and tile
count -- largest for FRA on the skewed SAT workload, small for DA
(one tile) and for the regular VM workload.
"""

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.sim.query_sim import simulate_query

P = grid.PROCS[min(2, len(grid.PROCS) - 1)]  # 32 procs at full fidelity


def test_sync_vs_async_tiles(benchmark):
    print()
    print(f"== Ablation: tile synchronization ({P} processors, fixed input) ==")
    print("app | strategy | barriers | async | barrier overhead")
    overheads = {}
    for app in grid.APPS:
        sc = grid.scenario(app, 1)
        machine = ibm_sp(P)
        for strategy in ("FRA", "DA"):
            plan = grid.plan(app, 1, P, strategy)
            sync = grid.cell(app, "fixed", P, strategy).total_time
            asyn = simulate_query(plan, machine, sc.costs, sync_tiles=False).total_time
            overhead = sync / asyn - 1.0
            overheads[(app, strategy)] = overhead
            print(
                f"{app:3} | {strategy:8} | {sync:7.2f} s | {asyn:6.2f} s "
                f"| {overhead * 100:6.1f}%"
            )
    # Async never loses (same work, strictly fewer ordering constraints).
    assert all(o >= -0.02 for o in overheads.values()), overheads
    # Somewhere the barriers must actually cost something measurable.
    assert max(overheads.values()) > 0.02

    sc = grid.scenario("VM", 1)
    plan = grid.plan("VM", 1, P, "FRA")
    benchmark.pedantic(
        simulate_query,
        args=(plan, ibm_sp(P), sc.costs),
        kwargs={"sync_tiles": False},
        rounds=3,
        iterations=1,
    )
