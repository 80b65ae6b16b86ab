"""Extension bench: where does each strategy win?

The paper concludes that "no one scheme is always best.  The relative
performance of the various query planning strategies changes with the
application characteristics and machine configuration."  This bench
makes that statement a *map*: using the generic parameterized emulator
it sweeps the two characteristics the strategies trade on -- fan-out
(DA's forwarding volume) and per-pair reduction cost (the computation
FRA's fixed overheads amortize against) -- for a uniform and a
hotspot-skewed input distribution, and prints the winning strategy per
cell.
"""

import repro_grid as grid
from repro.emulator.generic import GenericEmulator
from repro.machine.config import ComputeCosts
from repro.machine.presets import ibm_sp
from repro.planner.strategies import plan_query
from repro.sim.query_sim import simulate_query

P = 32
FAN_OUTS = (1.0, 2.0, 4.0, 8.0)
LR_COSTS_MS = (2, 10, 40)
CHUNKS = 1500 if grid.FAST else 4000


def winner(fan_out, lr_ms, spatial):
    emu = GenericEmulator(
        base_chunks=CHUNKS,
        fan_out=fan_out,
        spatial=spatial,
        costs=ComputeCosts.from_ms(1, lr_ms, 5, 1),
    )
    sc = emu.scenario(1, seed=7)
    m = ibm_sp(P)
    prob = sc.problem(m)
    times = {
        s: simulate_query(plan_query(prob, s), m, sc.costs).total_time
        for s in ("FRA", "SRA", "DA")
    }
    best = min(times, key=times.get)
    runner_up = sorted(times.values())[1]
    margin = runner_up / times[best] - 1.0
    return best, times, margin


def test_crossover_map(benchmark):
    results = {}
    for spatial in ("uniform", "hotspot"):
        print()
        print(f"== Strategy winner map ({spatial} inputs, {P} processors, "
              f"{CHUNKS} chunks) ==")
        header = "LR cost \\ fan-out | " + " | ".join(f"{f:>8.0f}" for f in FAN_OUTS)
        print(header)
        print("-" * len(header))
        for lr in LR_COSTS_MS:
            cells = []
            for f in FAN_OUTS:
                best, times, margin = winner(f, lr, spatial)
                results[(spatial, lr, f)] = (best, times)
                cells.append(f"{best:>5}{'*' if margin > 0.10 else ' '}{margin*100:3.0f}%")
            print(f"{lr:14d} ms | " + " | ".join(f"{c:>8}" for c in cells))
        print("(* = winner leads runner-up by >10%)")

    # The paper's conclusion, quantified: the winner is not constant.
    winners = {best for best, _ in results.values()}
    assert len(winners) >= 2, winners
    # DA's corner: cheap compute, no fan-out, no skew.
    best, times = results[("uniform", 2, 1.0)]
    assert times["DA"] <= 1.05 * min(times.values())
    # FRA/SRA's corner: expensive compute, high fan-out, hot spot --
    # forwarding volume plus ownership imbalance sink DA.
    best, times = results[("hotspot", 40, 8.0)]
    assert min(times["FRA"], times["SRA"]) < times["DA"]

    benchmark.pedantic(winner, args=(2.0, 10, "uniform"), rounds=1, iterations=1)
