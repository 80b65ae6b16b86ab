"""Extension bench: batch (multi-query) planning with scan sharing.

The paper's planning service handles *sets* of queries; this bench
quantifies the benefit on a realistic workload: four Virtual
Microscope views over overlapping slide regions (the I/O-bound
application, where shared retrievals actually buy wall-clock time),
executed as one ordered batch vs independently.
"""

import numpy as np

import repro_grid as grid
from repro.machine.presets import ibm_sp
from repro.planner.batch import plan_batch, simulate_batch
from repro.planner.problem import PlanningProblem

P = grid.PROCS[0]


def windowed_problems(base: PlanningProblem, windows, axis=0):
    """Sub-problems selecting chunks in overlapping windows on *axis*."""
    out = []
    times = base.inputs.centers[:, axis]
    lo, hi = times.min(), times.max()
    span = (hi - lo) or 1.0
    for a, b in windows:
        ids = np.flatnonzero((times >= lo + a * span) & (times <= lo + b * span))
        edge_in, edge_out = base.graph.edge_arrays()
        keep = np.isin(edge_in, ids)
        remap = np.full(base.n_in, -1, dtype=np.int64)
        remap[ids] = np.arange(len(ids))
        from repro.dataset.graph import ChunkGraph

        sub_graph = ChunkGraph(
            len(ids), base.n_out, remap[edge_in[keep]], edge_out[keep]
        )
        out.append(
            PlanningProblem(
                n_procs=base.n_procs,
                memory_per_proc=base.memory_per_proc,
                inputs=base.inputs.subset(ids),
                outputs=base.outputs,
                graph=sub_graph,
                acc_nbytes=base.acc_nbytes,
                input_global_ids=ids,
            )
        )
    return out


def test_batch_scan_sharing(benchmark):
    sc = grid.scenario("VM", 2)
    base = sc.problem(ibm_sp(P))
    # four half-overlapping viewing regions across the slide
    problems = windowed_problems(
        base, [(0.0, 0.4), (0.5, 0.9), (0.25, 0.65), (0.6, 1.0)]
    )
    batch = plan_batch(problems, "FRA")
    machine = ibm_sp(P)
    shared = simulate_batch(batch, machine, sc.costs, shared_scan=True)
    cold = simulate_batch(batch, machine, sc.costs, shared_scan=False)
    print()
    print(f"== Batch of 4 overlapping VM views ({P} processors, FRA) ==")
    print(f"  {batch.summary()}")
    print(f"  independent: {cold.total_time:8.2f} s")
    print(f"  shared scan: {shared.total_time:8.2f} s "
          f"({shared.bytes_saved / 2**20:.0f} MB of reads elided, "
          f"{(1 - shared.total_time / cold.total_time) * 100:.1f}% faster)")
    assert shared.bytes_saved > 0
    assert shared.total_time < 0.95 * cold.total_time  # real wall-clock win
    benchmark(plan_batch, problems, "FRA")
