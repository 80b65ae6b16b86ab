"""Extension bench: the Section-6 hybrid strategy vs FRA/SRA/DA.

"Our experimental results suggest that a hybrid strategy may provide
better performance" -- this bench runs the graph-based hybrid planner
against the three published strategies across the applications and
both ends of the processor axis, and reports where it lands.
"""

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.planner.hybrid import plan_hybrid
from repro.planner.validate import validate_plan
from repro.sim.query_sim import simulate_query

P_SMALL = grid.PROCS[0]
P_LARGE = grid.PROCS[-1]


def test_hybrid_vs_extremes(benchmark):
    print()
    print("== Hybrid strategy vs FRA/SRA/DA (fixed input) ==")
    print("app | procs |      FRA |      SRA |       DA |   HYBRID | hybrid vs best")
    ratios = []
    for app in grid.APPS:
        sc = grid.scenario(app, 1)
        for P in (P_SMALL, P_LARGE):
            machine = ibm_sp(P)
            prob = grid.problem(app, 1, P)
            times = {}
            for s in ("FRA", "SRA", "DA"):
                times[s] = grid.cell(app, "fixed", P, s).total_time
            hplan = plan_hybrid(prob, machine, sc.costs)
            validate_plan(hplan)
            times["HYBRID"] = simulate_query(hplan, machine, sc.costs).total_time
            best = min(times["FRA"], times["SRA"], times["DA"])
            ratio = times["HYBRID"] / best
            ratios.append(ratio)
            print(
                f"{app:3} | {P:5d} | {times['FRA']:8.2f} | {times['SRA']:8.2f} "
                f"| {times['DA']:8.2f} | {times['HYBRID']:8.2f} | {ratio:6.2f}x"
            )
    # The hybrid should track the best extreme closely everywhere.
    assert max(ratios) < 1.3, ratios
    prob = grid.problem("SAT", 1, P_SMALL)
    sc = grid.scenario("SAT", 1)
    benchmark(plan_hybrid, prob, ibm_sp(P_SMALL), sc.costs)
