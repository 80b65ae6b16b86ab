"""Ablation: Hilbert vs row-major vs random tiling order.

Section 3 motivates sorting output chunks along a Hilbert curve before
tiling: "Our goal is to minimize the total length of the boundaries of
the tiles, by assigning spatially close chunks in the multi-dimensional
attribute space to the same tile, to reduce the number of input chunks
crossing one or more boundaries."  The observable cost of a bad order
is *read multiplicity*: input chunks intersecting several tiles are
retrieved once per tile.

This bench plans the SAT workload under FRA with three selection
orders and reports tiles, read multiplicity and simulated time.
"""

import numpy as np

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.planner.strategies import plan_fra
from repro.sim.query_sim import simulate_query

P = grid.PROCS[0]


def orders(problem, seed=0):
    n = problem.n_out
    return {
        "hilbert": problem.output_hilbert_order(),
        "row-major": np.arange(n),
        "random": np.random.default_rng(seed).permutation(n),
    }


def test_tiling_order_ablation(benchmark):
    problem = grid.problem("SAT", 2, P)  # scale 2: several tiles under FRA
    sc = grid.scenario("SAT", 2)
    machine = ibm_sp(P)
    rows = {}
    print()
    print(f"== Ablation: tiling order (SAT, scale 2, {P} processors, FRA) ==")
    print("order      | tiles | read multiplicity | exec time")
    for name, order in orders(problem).items():
        plan = plan_fra(problem, order=order)
        res = simulate_query(plan, machine, sc.costs)
        rows[name] = (plan.n_tiles, plan.read_multiplicity, res.total_time)
        print(
            f"{name:10} | {plan.n_tiles:5d} | {plan.read_multiplicity:17.3f} "
            f"| {res.total_time:8.2f} s"
        )
    # The paper's claim: Hilbert ordering re-reads fewer chunks than a
    # random order (row-major can tie on grid-like outputs).
    assert rows["hilbert"][1] <= rows["row-major"][1] + 1e-9
    assert rows["hilbert"][1] < rows["random"][1]
    assert rows["hilbert"][2] <= rows["random"][2]
    benchmark(lambda: plan_fra(problem).read_multiplicity)
