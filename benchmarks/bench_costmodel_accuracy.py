"""Extension bench: cost-model accuracy against the simulator.

Section 6 names "simple but reasonably accurate cost models to guide
and automate the selection of an appropriate strategy" as a long-term
goal, and asks two questions this bench answers quantitatively:

1. *"Under what circumstances do the simple cost models provide
   accurate or inaccurate results?"* -- the simple (whole-query) model
   is accurate when tiles are few/homogeneous and degrades with tile
   count and machine size (per-tile barrier serialization it ignores).
2. *"How can we refine the cost model in situations where it does not
   provide reasonably accurate results?"* -- the refined model applies
   the same busiest-resource reasoning per tile with phase barriers;
   the table shows the error collapse.

A third, *calibrated* column closes the loop: machine constants fitted
from the grid's own simulated telemetry
(:meth:`~repro.experiments.grid.ExperimentGrid.calibrated_model`)
rather than entered by hand.  Fitting absorbs the overlap factors the
closed-form models approximate, so the calibrated error must not be
worse than the hand-entered simple model's.
"""

import numpy as np

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.planner.costmodel import CostModel


def test_costmodel_accuracy(benchmark):
    print()
    print("== Cost models vs simulator (fixed input) ==")
    print(
        "app | procs | strategy | simulated | simple est (err) "
        "| refined est (err) | calibrated est (err)"
    )
    simple_errors = []
    refined_errors = []
    calibrated_errors = []
    rank_hits = 0
    rank_total = 0
    cal_rank_hits = 0
    cal_rank_total = 0
    for app in grid.APPS:
        sc = grid.scenario(app, 1)
        calibrated_model = grid.calibrated_model(app)
        for P in grid.PROCS:
            simple_model = CostModel(ibm_sp(P), sc.costs)
            refined_model = CostModel(ibm_sp(P), sc.costs, per_tile=True)
            sims = {}
            ests = {}
            cal_ests = {}
            for s in grid.STRATEGIES:
                sim_t = grid.cell(app, "fixed", P, s).total_time
                plan = grid.plan(app, 1, P, s)
                simple_t = simple_model.estimate(plan).total
                refined_t = refined_model.estimate(plan).total
                calibrated_t = calibrated_model.estimate(plan).total
                sims[s], ests[s] = sim_t, refined_t
                cal_ests[s] = calibrated_t
                e_s = abs(simple_t - sim_t) / sim_t
                e_r = abs(refined_t - sim_t) / sim_t
                e_c = abs(calibrated_t - sim_t) / sim_t
                simple_errors.append(e_s)
                refined_errors.append(e_r)
                calibrated_errors.append(e_c)
                print(
                    f"{app:3} | {P:5d} | {s:8} | {sim_t:8.2f} s "
                    f"| {simple_t:8.2f} s ({e_s * 100:5.1f}%) "
                    f"| {refined_t:8.2f} s ({e_r * 100:5.1f}%) "
                    f"| {calibrated_t:8.2f} s ({e_c * 100:5.1f}%)"
                )
            sim_best = min(sims, key=sims.get)
            est_best = min(ests, key=ests.get)
            spread = max(sims.values()) - min(sims.values())
            if spread > 0.15 * max(sims.values()):
                rank_total += 1
                rank_hits += sim_best == est_best
                cal_rank_total += 1
                cal_rank_hits += sim_best == min(cal_ests, key=cal_ests.get)
    mean_s = float(np.mean(simple_errors))
    mean_r = float(np.mean(refined_errors))
    mean_c = float(np.mean(calibrated_errors))
    p90_r = float(np.quantile(refined_errors, 0.9))
    print(
        f"mean relative error: simple {mean_s * 100:.1f}%, refined "
        f"{mean_r * 100:.1f}% (p90 {p90_r * 100:.1f}%), calibrated "
        f"{mean_c * 100:.1f}%; refined picks the clear winner "
        f"{rank_hits}/{rank_total} times, calibrated "
        f"{cal_rank_hits}/{cal_rank_total}"
    )
    assert mean_r < mean_s  # the refinement must actually refine
    assert mean_r < 0.12
    assert mean_c <= mean_s  # fitting must not lose to hand-entered constants
    if rank_total:
        assert rank_hits / rank_total >= 0.9
        assert cal_rank_hits / cal_rank_total >= 0.9
    model = CostModel(ibm_sp(grid.PROCS[0]), grid.scenario("SAT", 1).costs, per_tile=True)
    benchmark(model.estimate, grid.plan("SAT", 1, grid.PROCS[0], "FRA"))
