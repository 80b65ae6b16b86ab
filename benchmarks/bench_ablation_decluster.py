"""Ablation: declustering algorithm (Hilbert vs round-robin vs random).

Section 2.2: chunks are declustered "to achieve I/O parallelism during
query processing"; the paper's experiments use Hilbert-curve
declustering (ref [12]).  This bench measures (a) the classic
busiest-disk balance metric over a workload of range sub-queries and
(b) end-to-end simulated execution time of the full SAT query under
each placement.  SAT is the interesting case: its chunk population is
irregular (polar-orbit footprints), so striping by chunk id has no
spatial meaning and only the Hilbert placement separates neighbours.
"""

import numpy as np

import repro_grid as grid
from repro.decluster import (
    HilbertDeclusterer,
    RandomDeclusterer,
    RoundRobinDeclusterer,
    placement_report,
)
from repro.machine.presets import ibm_sp
from repro.planner.strategies import plan_fra
from repro.sim.query_sim import simulate_query
from repro.util.geometry import Rect

P = grid.PROCS[0]

DECLUSTERERS = {
    "hilbert": HilbertDeclusterer(),
    "round-robin": RoundRobinDeclusterer(),
    "random": RandomDeclusterer(seed=1),
}


def sub_queries(bounds, rng, n=50, frac=0.3):
    lo, hi = bounds.as_arrays()
    span = hi - lo
    out = []
    for _ in range(n):
        a = lo + rng.uniform(0, 1 - frac, size=len(lo)) * span
        out.append(Rect(tuple(a), tuple(a + frac * span)))
    return out


def test_decluster_ablation(benchmark):
    sc = grid.scenario("SAT", 1)
    machine = ibm_sp(P)
    rng = np.random.default_rng(5)
    queries = sub_queries(sc.inputs.bounds, rng)
    print()
    print(f"== Ablation: declustering (SAT, {P} processors) ==")
    print("placement   | busiest/ideal (mean) | busiest/ideal (worst) | exec time")
    results = {}
    for name, decl in DECLUSTERERS.items():
        placed = decl.place(sc.inputs, P)
        rep = placement_report(placed, queries, P)
        prob = sc.problem(machine, declusterer=decl)
        res = simulate_query(plan_fra(prob), machine, sc.costs)
        results[name] = (rep.mean_ratio, rep.max_ratio, res.total_time)
        print(
            f"{name:11} | {rep.mean_ratio:20.3f} | {rep.max_ratio:21.3f} "
            f"| {res.total_time:8.2f} s"
        )
    # Hilbert placement balances range-query I/O best.
    assert results["hilbert"][0] <= results["round-robin"][0]
    assert results["hilbert"][0] <= results["random"][0]
    benchmark(
        lambda: HilbertDeclusterer().assign(sc.inputs, P)
    )
