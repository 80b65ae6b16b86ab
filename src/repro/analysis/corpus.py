"""Canned plan corpus for CI: plan it, verify it, exit nonzero on drift.

The verifier is only useful if something runs it routinely.  This
module generates a deterministic corpus of planning problems -- random
synthetic graphs across processor counts / memory pressures plus the
paper's three application emulators on a small machine -- plans every
one with FRA, SRA, DA and the hybrid, and verifies each plan with
:func:`repro.analysis.verifier.verify_plan`.  CI runs::

    python -m repro.analysis.corpus

which exits 1 if any plan produces a diagnostic, making every planner
change prove the Figure 4-6 contracts before it lands.

``--functional`` switches to the execution corpus: nine small
geometry-derived workloads with real payloads, planned with all four
strategies (36 plans) and *executed* five ways --

- the serial single-pass oracle (:func:`repro.runtime.serial.execute_serial`),
- sequential backend with the simulated-race detector armed,
- the multiprocess backend (``backend="parallel"``),
- both backends again with threaded read-ahead (``prefetch=True``).

The sequential result must match the oracle to floating-point
tolerance, and every other variant must match the sequential one bit
for bit (same phase executor, same kernels, same operation order),
counters and ``phase_times`` key set included.  Each workload then
re-runs with a value predicate (``where=``): a synopsis-pruned plan
must reproduce the unpruned predicate run bit for bit on all four
execution variants while reading strictly fewer chunks and reporting
``chunks_pruned`` / ``bytes_pruned`` consistently.

``--faults`` replays the functional corpus under a deterministic fault
matrix (corrupt chunk + degrade, flaky disk + retry, worker crash +
recovery) and checks every degraded or recovered result against ground
truth -- see :func:`verify_fault_corpus`; ``--faults --prefetch``
replays the same matrix with read-ahead enabled, proving injected
faults surface identically from the prefetch thread.

``--service`` replays the functional corpus through the concurrent
query service: per workload, four overlapping range queries (mixed
strategies, one predicate-bearing) run concurrently through one
:class:`~repro.frontend.queryservice.QueryService` with scan sharing
enabled, and every result must be bit-identical to the same query
executed alone on a fresh ADR instance -- values, counters, pruning
and completeness included.  Only the documented ``shared_reads`` /
``shared_bytes`` fields may differ, and at least one query in the
corpus must actually be served from the shared payload cache.

``--shards`` replays the functional corpus through a sharded
scatter/gather deployment (:class:`repro.shard.cluster.ShardCluster`):
per workload, the four strategies plus a predicate-bearing variant (45
plans) execute over real sockets through the
:class:`~repro.shard.router.ShardRouter` and must be bit-identical to
the same router/merge path run in process, and numerically identical
(to float tolerance) to a fresh single-process ADR -- distribution
must be invisible.

``--chaos`` runs the wire-level chaos corpus: seeded failure scenarios
(crashed shards, refused connections, torn and corrupted frames, slow
and draining peers, replica failover, hedged stragglers, composed
chunk+shard faults) against sharded deployments.  Every scenario must
finish inside its deadline budget with the exact ``shard_errors`` /
``completeness`` the failure implies, and every degraded result must
equal the in-process expectation computed with the same shards down --
see :func:`verify_chaos_corpus`.

``--comm`` model-checks the communication schedule of every corpus
plan with :func:`repro.analysis.comm.check_plan_comm` (ADR6xx):
deadlock-freedom, exact send/receive matching, combine completeness
and recovery-safe message keying -- the transport contract every
scale-out backend relies on, proved statically per plan.

``--format json`` (or ``github``) switches the report format for the
verifier and ``--comm`` modes; ``--out FILE`` writes it to a file
(the CI artifact).
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.verifier import verify_plan
from repro.planner.select import ALL_STRATEGIES, FRA, HYBRID
from repro.util.rng import make_rng
from repro.util.units import KB, MB

__all__ = [
    "corpus_problems",
    "verify_corpus",
    "verify_comm_corpus",
    "functional_workloads",
    "verify_functional_corpus",
    "verify_fault_corpus",
    "verify_service_corpus",
    "verify_shard_corpus",
    "verify_chaos_corpus",
    "main",
]


def _random_problem(seed: int, n_procs: int, n_in: int, n_out: int, memory: int,
                    fan_out: int, acc_factor: float):
    """A synthetic planning problem (mirrors the test-suite generator)."""
    from repro.dataset.chunkset import ChunkSet
    from repro.dataset.graph import ChunkGraph
    from repro.planner.problem import PlanningProblem

    rng = make_rng(seed)

    def chunkset(n: int, nbytes: int) -> ChunkSet:
        los = rng.uniform(0, 90.0, size=(n, 2))
        his = los + rng.uniform(0, 10.0, size=(n, 2))
        cs = ChunkSet(los, his, np.full(n, nbytes, dtype=np.int64))
        return cs.with_placement(
            rng.integers(0, n_procs, size=n).astype(np.int32),
            np.zeros(n, dtype=np.int32),
        )

    inputs = chunkset(n_in, 64 * KB)
    outputs = chunkset(n_out, 32 * KB)
    outs_per_in = [
        rng.choice(n_out, size=min(n_out, max(1, int(rng.poisson(fan_out)))),
                   replace=False)
        for _ in range(n_in)
    ]
    return PlanningProblem(
        n_procs=n_procs,
        memory_per_proc=np.int64(memory),
        inputs=inputs,
        outputs=outputs,
        graph=ChunkGraph.from_lists(n_in, n_out, outs_per_in),
        acc_nbytes=(outputs.nbytes * acc_factor).astype(np.int64),
    )


def corpus_problems(include_emulators: bool = True) -> Iterator[Tuple[str, object]]:
    """Yield ``(label, PlanningProblem)`` for the canned corpus."""
    shapes = [
        # (n_procs, n_in, n_out, memory, fan_out, acc_factor)
        (1, 20, 5, 1 * MB, 2, 1.0),       # degenerate: single processor
        (2, 40, 8, 256 * KB, 2, 2.0),     # tight memory -> many tiles
        (4, 60, 12, 1 * MB, 2, 2.0),      # the test-suite default shape
        (8, 120, 24, 512 * KB, 3, 4.0),   # wide accumulators
        (16, 200, 40, 2 * MB, 1, 1.5),    # many processors, sparse fan-out
        (4, 30, 30, 96 * KB, 4, 1.0),     # outputs ~ inputs, dense graph
    ]
    for i, (n_procs, n_in, n_out, memory, fan_out, acc) in enumerate(shapes):
        yield (
            f"synthetic[{i}] p={n_procs} in={n_in} out={n_out}",
            _random_problem(1000 + i, n_procs, n_in, n_out, memory, fan_out, acc),
        )
    if include_emulators:
        from repro.emulator import EMULATORS
        from repro.machine.config import MachineConfig

        machine = MachineConfig(n_procs=4, memory_per_proc=4 * MB)
        for name, cls in sorted(EMULATORS.items()):
            scenario = cls().scenario(scale=1, seed=7)
            yield (f"emulator[{name}] p=4", scenario.problem(machine))


def verify_corpus(
    include_emulators: bool = True, strategies: Sequence[str] = ALL_STRATEGIES
) -> List[Tuple[str, Diagnostic]]:
    """Plan + verify the whole corpus; return (plan label, diagnostic) pairs."""
    from repro.planner.strategies import plan_query

    findings: List[Tuple[str, Diagnostic]] = []
    for label, problem in corpus_problems(include_emulators):
        for strategy in strategies:
            plan = plan_query(problem, strategy)
            for diag in verify_plan(plan):
                findings.append((f"{label} / {strategy}", diag))
    return findings


def verify_comm_corpus(
    include_emulators: bool = True,
    strategies: Sequence[str] = ALL_STRATEGIES,
) -> Tuple[int, List[Tuple[str, Diagnostic]]]:
    """Model-check the communication schedule of every corpus plan.

    Plans the whole corpus and runs
    :func:`repro.analysis.comm.check_plan_comm` over each plan's
    :class:`~repro.runtime.phases.MessageFlow`; returns ``(n_plans,
    (plan label, diagnostic) pairs)``.  A clean run proves every plan
    deadlock-free with exactly matched send/receive multisets,
    complete ghost combines and recovery-safe message keys.
    """
    from repro.analysis.comm import check_plan_comm
    from repro.planner.strategies import plan_query

    findings: List[Tuple[str, Diagnostic]] = []
    n_plans = 0
    for label, problem in corpus_problems(include_emulators):
        for strategy in strategies:
            n_plans += 1
            plan = plan_query(problem, strategy)
            for diag in check_plan_comm(plan):
                findings.append((f"{label} / {strategy}", diag))
    return n_plans, findings


def functional_workloads() -> Iterator[Tuple[str, dict]]:
    """Yield ``(label, workload)`` payload-carrying execution problems.

    Each workload dictionary carries ``chunks``, ``mapping``, ``grid``,
    ``spec`` and ``problem`` -- everything needed to plan and execute.
    Nine workloads x four strategies = the 36-plan functional corpus.
    """
    from repro.aggregation.functions import (
        BestValueComposite,
        CountAggregation,
        MaxAggregation,
        MeanAggregation,
        MinAggregation,
        SumAggregation,
    )
    from repro.aggregation.output_grid import OutputGrid
    from repro.dataset.chunkset import ChunkSet
    from repro.dataset.graph import ChunkGraph
    from repro.dataset.partition import hilbert_partition
    from repro.decluster.hilbert import HilbertDeclusterer
    from repro.planner.problem import PlanningProblem
    from repro.space.attribute_space import AttributeSpace
    from repro.space.mapping import GridMapping

    shapes = [
        # (spec, n_items, grid_cells, chunk_cells, footprint, n_procs, memory)
        (SumAggregation(1), 400, (12, 12), (3, 3), None, 3, 256),
        (MeanAggregation(1), 400, (12, 12), (3, 3), None, 3, 256),
        (MaxAggregation(1), 300, (12, 12), (3, 3), None, 2, 512),
        (MinAggregation(2), 300, (12, 12), (4, 4), None, 3, 1024),
        (CountAggregation(1), 500, (10, 10), (2, 2), None, 4, 512),
        (SumAggregation(1), 400, (12, 12), (3, 3), (0.08, 0.05), 4, 1 << 14),
        (BestValueComposite(2), 350, (12, 12), (3, 3), None, 3, 1024),
        (MeanAggregation(3), 450, (16, 16), (4, 4), None, 4, 2048),
        (SumAggregation(1), 200, (8, 8), (2, 2), None, 1, 1 << 14),
    ]
    for i, (spec, n_items, gcells, ccells, footprint, n_procs, memory) in enumerate(
        shapes
    ):
        rng = make_rng(2000 + i)
        in_space = AttributeSpace.regular("in", ("x", "y"), (0, 0), (10, 10))
        out_space = AttributeSpace.regular("out", ("u", "v"), (0, 0), (1, 1))
        coords = rng.uniform(0, 10, size=(n_items, 2))
        values = rng.integers(
            1, 100, size=(n_items, spec.value_components)
        ).astype(float)
        # Component 0 tracks the x coordinate, so the spatially local
        # chunks the Hilbert partitioner produces carry narrow per-chunk
        # value ranges -- the shape value-synopsis pruning exploits.
        values[:, 0] = coords[:, 0] * 10.0 + rng.uniform(0.0, 5.0, size=n_items)
        chunks = hilbert_partition(coords, values, 20)
        grid = OutputGrid(out_space, gcells, ccells)
        mapping = GridMapping(in_space, out_space, gcells, footprint=footprint)

        inputs = ChunkSet.from_metas([c.meta for c in chunks])
        decl = HilbertDeclusterer()
        inputs = decl.place(inputs, n_procs)
        outputs = decl.place(grid.chunkset(), n_procs)
        graph = ChunkGraph.from_geometry(inputs, outputs, mapping)
        acc = np.asarray(
            [spec.acc_bytes(grid.cells_in_chunk(o)) for o in range(grid.n_chunks)],
            dtype=np.int64,
        )
        problem = PlanningProblem(
            n_procs=n_procs,
            memory_per_proc=np.int64(memory),
            inputs=inputs,
            outputs=outputs,
            graph=graph,
            acc_nbytes=acc,
        )
        label = (
            f"functional[{i}] {type(spec).__name__}"
            f" c={spec.value_components} p={n_procs}"
        )
        yield label, {
            "chunks": chunks,
            "mapping": mapping,
            "grid": grid,
            "spec": spec,
            "problem": problem,
            # A selective value predicate on the coord-correlated
            # component; prunes a real fraction of every workload's
            # chunks through their synopses.
            "where": {0: (None, 35.0)},
        }


#: The cross-backend counter contract asserted by the functional
#: corpus (defined in :mod:`repro.runtime.phases`).
_COUNTERS = ("n_reads", "bytes_read", "n_aggregations", "n_combines")


def verify_functional_corpus(
    strategies: Sequence[str] = ALL_STRATEGIES,
) -> Tuple[int, List[Tuple[str, str]]]:
    """Execute the functional corpus; return ``(n_plans, failures)``.

    Each plan runs four ways -- {sequential, parallel} x {prefetch off,
    prefetch on} -- with the race detector armed on the plain
    sequential run.  Sequential must match the serial oracle to
    floating-point tolerance; every other variant must match the
    sequential result bit for bit, counters included, and every
    variant's ``phase_times`` must carry exactly the
    :data:`repro.runtime.phases.PHASES` key set (the cross-backend
    contract).

    Additionally, every workload runs once with ``strategy='auto'``:
    the cost model's pick must execute **bit-identically** to planning
    the chosen strategy explicitly, across the same four
    {sequential, parallel} x {prefetch off, on} variants -- automatic
    selection adds a choice, never semantics.
    """
    from repro.dataset.graph import ChunkGraph
    from repro.dataset.predicate import ValuePredicate
    from repro.dataset.synopsis import ValueSynopsis
    from repro.frontend.adr import DEFAULT_COSTS
    from repro.machine.presets import ibm_sp
    from repro.planner.costmodel import CostModel
    from repro.planner.hybrid import plan_hybrid
    from repro.planner.problem import PlanningProblem
    from repro.planner.select import choose_strategy
    from repro.planner.strategies import plan_query
    from repro.runtime.engine import execute_plan
    from repro.runtime.phases import PHASES
    from repro.runtime.serial import execute_serial

    failures: List[Tuple[str, str]] = []
    n_plans = 0
    for wi, (label, w) in enumerate(functional_workloads()):
        chunks, mapping = w["chunks"], w["mapping"]
        grid, spec = w["grid"], w["spec"]
        serial = execute_serial(chunks, mapping, grid, spec)
        for strategy in strategies:
            n_plans += 1
            tag = f"{label} / {strategy}"
            plan = plan_query(w["problem"], strategy)
            seq = execute_plan(
                plan, lambda i: chunks[i], mapping, grid, spec, detect_races=True
            )
            if set(seq.output_ids.tolist()) != set(serial):
                failures.append((tag, "sequential output-chunk set != serial oracle"))
                continue
            for o, vals in zip(seq.output_ids, seq.chunk_values):
                if not np.allclose(vals, serial[int(o)], equal_nan=True):
                    failures.append(
                        (tag, f"sequential output chunk {int(o)} != serial oracle")
                    )
            variants = {
                "parallel": execute_plan(
                    plan, lambda i: chunks[i], mapping, grid, spec,
                    backend="parallel",
                ),
                "sequential+prefetch": execute_plan(
                    plan, lambda i: chunks[i], mapping, grid, spec, prefetch=True
                ),
                "parallel+prefetch": execute_plan(
                    plan, lambda i: chunks[i], mapping, grid, spec,
                    backend="parallel", prefetch=True,
                ),
            }
            if sorted(seq.phase_times) != sorted(PHASES):
                failures.append(
                    (tag, f"sequential phase_times keys {sorted(seq.phase_times)}")
                )
            for name, res in variants.items():
                if res.output_ids.tolist() != seq.output_ids.tolist():
                    failures.append((tag, f"{name} output ids != sequential"))
                    continue
                for o, pv, sv in zip(res.output_ids, res.chunk_values, seq.chunk_values):
                    if not np.array_equal(pv, sv, equal_nan=True):
                        failures.append(
                            (tag, f"{name} output chunk {int(o)} not bitwise-equal")
                        )
                for counter in _COUNTERS:
                    if getattr(res, counter) != getattr(seq, counter):
                        failures.append(
                            (
                                tag,
                                f"{name} {counter}={getattr(res, counter)}"
                                f" != sequential {getattr(seq, counter)}",
                            )
                        )
                if sorted(res.phase_times) != sorted(PHASES):
                    failures.append(
                        (tag, f"{name} phase_times keys {sorted(res.phase_times)}")
                    )

        # -- strategy='auto': selection never changes the answer --------
        # The cost model's pick must execute bit-identically to planning
        # the chosen strategy explicitly, across all four variants.
        n_plans += 1
        model = CostModel(ibm_sp(w["problem"].n_procs), DEFAULT_COSTS)
        choice = choose_strategy(w["problem"], model)
        tag = f"{label} / AUTO->{choice.selected}"
        explicit = (
            plan_hybrid(w["problem"], machine=model.machine, costs=model.costs)
            if choice.selected == HYBRID
            else plan_query(w["problem"], choice.selected)
        )
        exp_seq = execute_plan(explicit, lambda i: chunks[i], mapping, grid, spec)
        auto_runs = {
            "auto sequential": execute_plan(
                choice.plan, lambda i: chunks[i], mapping, grid, spec,
                detect_races=True,
            ),
            "auto parallel": execute_plan(
                choice.plan, lambda i: chunks[i], mapping, grid, spec,
                backend="parallel",
            ),
            "auto sequential+prefetch": execute_plan(
                choice.plan, lambda i: chunks[i], mapping, grid, spec,
                prefetch=True,
            ),
            "auto parallel+prefetch": execute_plan(
                choice.plan, lambda i: chunks[i], mapping, grid, spec,
                backend="parallel", prefetch=True,
            ),
        }
        for name, res in auto_runs.items():
            if res.output_ids.tolist() != exp_seq.output_ids.tolist():
                failures.append((tag, f"{name} output ids != explicit plan"))
                continue
            for o, av, ev in zip(res.output_ids, res.chunk_values,
                                 exp_seq.chunk_values):
                if not np.array_equal(av, ev, equal_nan=True):
                    failures.append(
                        (tag, f"{name} output chunk {int(o)} not "
                              f"bitwise-equal to the explicit "
                              f"{choice.selected} plan")
                    )
            for counter in _COUNTERS:
                if getattr(res, counter) != getattr(exp_seq, counter):
                    failures.append(
                        (tag, f"{name} {counter}={getattr(res, counter)} != "
                              f"explicit {getattr(exp_seq, counter)}")
                    )

        # -- predicate-bearing plan: pruned == unpruned, bit for bit ----
        # Mirrors ADR.build_problem: drop synopsis-prunable inputs
        # before planning, rebuild the graph geometrically, and let the
        # residual kernel filter make the pruned result identical to
        # the unpruned one (strategy rotates across workloads).
        predicate = ValuePredicate.coerce(w["where"])
        prunable = predicate.prunable_chunks(ValueSynopsis.from_chunks(chunks))
        strategy = strategies[wi % len(strategies)]
        tag = f"{label} / {strategy} / where"
        n_plans += 1
        problem = w["problem"]
        if not prunable.any() or prunable.all():
            failures.append(
                (tag, f"predicate prunes {int(prunable.sum())}/{len(chunks)} "
                      "chunks; workload exercises nothing")
            )
            continue
        keep = np.flatnonzero(~prunable)
        kept_inputs = problem.inputs.subset(keep)
        pruned_problem = PlanningProblem(
            n_procs=problem.n_procs,
            memory_per_proc=problem.memory_per_proc,
            inputs=kept_inputs,
            outputs=problem.outputs,
            graph=ChunkGraph.from_geometry(kept_inputs, problem.outputs, mapping),
            acc_nbytes=problem.acc_nbytes,
            input_global_ids=keep,
            pruned_input_ids=np.flatnonzero(prunable),
            pruned_bytes=int(problem.inputs.nbytes[prunable].sum()),
        )
        unpruned = execute_plan(
            plan_query(problem, strategy), lambda i: chunks[i], mapping, grid,
            spec, detect_races=True, predicate=predicate,
        )
        serial_pred = execute_serial(chunks, mapping, grid, spec, predicate=predicate)
        for o, vals in zip(unpruned.output_ids, unpruned.chunk_values):
            if not np.allclose(vals, serial_pred[int(o)], equal_nan=True):
                failures.append(
                    (tag, f"unpruned predicate chunk {int(o)} != serial oracle")
                )
        if unpruned.chunks_pruned != 0:
            failures.append((tag, "unpruned plan reported pruned chunks"))
        pruned_plan = plan_query(pruned_problem, strategy)
        pruned_runs = {
            "pruned sequential": execute_plan(
                pruned_plan, lambda i: chunks[i], mapping, grid, spec,
                detect_races=True, predicate=predicate,
            ),
            "pruned parallel": execute_plan(
                pruned_plan, lambda i: chunks[i], mapping, grid, spec,
                backend="parallel", predicate=predicate,
            ),
            "pruned sequential+prefetch": execute_plan(
                pruned_plan, lambda i: chunks[i], mapping, grid, spec,
                prefetch=True, predicate=predicate,
            ),
            "pruned parallel+prefetch": execute_plan(
                pruned_plan, lambda i: chunks[i], mapping, grid, spec,
                backend="parallel", prefetch=True, predicate=predicate,
            ),
        }
        for name, res in pruned_runs.items():
            if res.output_ids.tolist() != unpruned.output_ids.tolist():
                failures.append((tag, f"{name} output ids != unpruned"))
                continue
            for o, pv, uv in zip(res.output_ids, res.chunk_values,
                                 unpruned.chunk_values):
                if not np.array_equal(pv, uv, equal_nan=True):
                    failures.append(
                        (tag, f"{name} output chunk {int(o)} not bitwise-equal "
                              "to unpruned")
                    )
            if res.chunks_pruned != int(prunable.sum()):
                failures.append(
                    (tag, f"{name} chunks_pruned={res.chunks_pruned} != "
                          f"{int(prunable.sum())}")
                )
            if res.bytes_pruned != pruned_problem.pruned_bytes:
                failures.append(
                    (tag, f"{name} bytes_pruned={res.bytes_pruned} != "
                          f"{pruned_problem.pruned_bytes}")
                )
        seq = pruned_runs["pruned sequential"]
        for name, res in pruned_runs.items():
            for counter in _COUNTERS:
                if getattr(res, counter) != getattr(seq, counter):
                    failures.append(
                        (tag, f"{name} {counter}={getattr(res, counter)}"
                              f" != pruned sequential {getattr(seq, counter)}")
                    )
        # Pruned chunks never reach the read phase (multi-tile plans
        # re-read inputs per tile, so the saving can exceed
        # bytes_pruned, which counts each pruned chunk once).
        if seq.n_reads >= unpruned.n_reads or seq.bytes_read >= unpruned.bytes_read:
            failures.append(
                (tag, f"pruning did not reduce reads: {seq.n_reads} reads/"
                      f"{seq.bytes_read} B vs unpruned {unpruned.n_reads}/"
                      f"{unpruned.bytes_read}")
            )
    return n_plans, failures


def verify_fault_corpus(
    strategies: Sequence[str] = ALL_STRATEGIES,
    prefetch: bool = False,
) -> Tuple[int, List[Tuple[str, str]]]:
    """Replay the functional corpus under the fault matrix.

    With ``prefetch=True`` every execution runs with threaded
    read-ahead enabled: injected read faults then fire inside the
    prefetch thread and must surface -- and degrade/retry/recover --
    exactly as on the synchronous path.

    Three deterministic scenarios per workload (strategy rotating
    through *strategies* so the matrix covers all four across the nine
    workloads):

    - **corrupt chunk + degrade**: one input chunk decodes to a CRC
      mismatch on every read.  The degraded result must identify
      exactly that chunk in ``chunk_errors``, report ``completeness ==
      1 - 1/n_in``, agree bitwise between the sequential and parallel
      backends, and match a serial oracle computed *without* the
      victim chunk (victim-only output chunks must equal the
      aggregation's empty baseline).
    - **flaky disk + retry**: the first two reads raise ``OSError``; a
      :class:`~repro.store.retry.RetryPolicy` (zero backoff) absorbs
      them.  The result must be bitwise identical to the clean run,
      with ``completeness == 1.0``.
    - **worker crash + recovery**: one virtual processor hard-exits
      mid-tile on the parallel backend; after recovery the result must
      be bitwise identical to the sequential backend, counters
      included.
    """
    from repro.dataset.predicate import ValuePredicate
    from repro.faults import FaultInjector, FaultPlan
    from repro.planner.strategies import plan_query
    from repro.runtime.engine import execute_plan
    from repro.runtime.parallel import RecoveryPolicy
    from repro.runtime.serial import execute_serial
    from repro.store.retry import RetryPolicy

    failures: List[Tuple[str, str]] = []
    n_scenarios = 0
    recovery = RecoveryPolicy(
        max_restarts=2, inbox_timeout=10.0, poll_interval=0.1, grace_polls=5
    )
    for i, (label, w) in enumerate(functional_workloads()):
        chunks, mapping = w["chunks"], w["mapping"]
        grid, spec = w["grid"], w["spec"]
        problem = w["problem"]
        strategy = strategies[i % len(strategies)]
        plan = plan_query(problem, strategy)
        clean = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec, prefetch=prefetch
        )

        # -- corrupt chunk, degraded completion -------------------------
        n_scenarios += 1
        tag = f"{label} / {strategy} / corrupt+degrade"
        victim = int(problem.input_global_ids[0])
        degraded = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec,
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(victim)),
            on_error="degrade", prefetch=prefetch,
        )
        par_degraded = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec,
            backend="parallel", on_error="degrade", recovery=recovery,
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(victim)),
            prefetch=prefetch,
        )
        if set(degraded.chunk_errors) != {victim}:
            failures.append(
                (tag, f"chunk_errors {sorted(degraded.chunk_errors)} != [{victim}]")
            )
        expected_completeness = 1.0 - 1.0 / problem.n_in
        if not np.isclose(degraded.completeness, expected_completeness):
            failures.append(
                (tag, f"completeness {degraded.completeness} != "
                      f"{expected_completeness}")
            )
        if degraded.chunk_errors != par_degraded.chunk_errors or not all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(degraded.chunk_values, par_degraded.chunk_values)
        ):
            failures.append((tag, "degraded parallel != degraded sequential"))
        # A value predicate filters items, never reads: it must not
        # change which chunks fail or the completeness accounting.
        pred_degraded = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec,
            fault_injector=FaultInjector(FaultPlan.corrupt_chunk(victim)),
            on_error="degrade", prefetch=prefetch,
            predicate=ValuePredicate.coerce(w["where"]),
        )
        if (
            pred_degraded.chunk_errors != degraded.chunk_errors
            or pred_degraded.completeness != degraded.completeness
        ):
            failures.append((tag, "where= changed the degradation report"))
        # Ground truth: the oracle over every chunk but the victim.
        oracle = execute_serial(
            [c for j, c in enumerate(chunks) if j != victim],
            mapping, grid, spec,
        )
        for o, vals in zip(degraded.output_ids, degraded.chunk_values):
            o = int(o)
            if o in oracle:
                if not np.allclose(vals, oracle[o], equal_nan=True):
                    failures.append(
                        (tag, f"degraded output chunk {o} != victimless oracle")
                    )
            else:
                # Fed only by the victim: must be the empty baseline.
                baseline = np.empty(
                    (len(vals), spec.acc_components), dtype=spec.acc_dtype
                )
                spec.initialize_into(baseline)
                if not np.array_equal(
                    vals, spec.output(baseline), equal_nan=True
                ):
                    failures.append(
                        (tag, f"victim-only output chunk {o} != empty baseline")
                    )

        # -- flaky disk, absorbed by retry -------------------------------
        n_scenarios += 1
        tag = f"{label} / {strategy} / flaky+retry"
        policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        flaky = FaultInjector(FaultPlan.flaky_read(times=2)).wrap_provider(
            lambda i: chunks[i]
        )
        retried = execute_plan(
            plan, lambda i: policy.run(lambda: flaky(i)), mapping, grid, spec,
            prefetch=prefetch,
        )
        if retried.completeness != 1.0 or retried.chunk_errors:
            failures.append((tag, "retried run reported degradation"))
        if not all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(retried.chunk_values, clean.chunk_values)
        ):
            failures.append((tag, "retried run != clean run"))

        # -- worker crash, recovered bit-identically ----------------------
        n_scenarios += 1
        tag = f"{label} / {strategy} / crash+recover"
        crash_rank = min(1, problem.n_procs - 1)
        recovered = execute_plan(
            plan, lambda i: chunks[i], mapping, grid, spec,
            backend="parallel", recovery=recovery,
            fault_injector=FaultInjector(
                FaultPlan.crash_worker(rank=crash_rank, after_reads=1)
            ),
            prefetch=prefetch,
        )
        if recovered.output_ids.tolist() != clean.output_ids.tolist() or not all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(recovered.chunk_values, clean.chunk_values)
        ):
            failures.append((tag, "recovered parallel != sequential"))
        for counter in ("n_reads", "bytes_read", "n_aggregations", "n_combines"):
            if getattr(recovered, counter) != getattr(clean, counter):
                failures.append(
                    (tag, f"recovered {counter}={getattr(recovered, counter)}"
                          f" != clean {getattr(clean, counter)}")
                )
    return n_scenarios, failures


def verify_service_corpus() -> Tuple[int, List[Tuple[str, str]]]:
    """Replay the functional corpus through the concurrent service.

    For each workload, four overlapping range queries (full region,
    two overlapping sub-boxes, full region with a value predicate;
    strategies rotating so every batch mixes tilings) are submitted
    concurrently to a :class:`~repro.frontend.queryservice.QueryService`
    with scan sharing enabled.  Each result must be bit-identical to
    the same query executed alone on a *fresh* ADR instance -- output
    ids and values, the :data:`_COUNTERS` contract, ``n_tiles``,
    pruning counters, ``completeness`` and ``chunk_errors``.  The
    documented ``shared_reads`` / ``shared_bytes`` fields are the only
    ones allowed to differ; across the whole corpus at least one query
    must actually have been served from the shared payload cache
    (sharing must engage, not just not corrupt).

    Returns ``(n_queries, failures)``.
    """
    from repro.frontend.adr import ADR
    from repro.frontend.query import RangeQuery
    from repro.frontend.queryservice import QueryService, ServicePolicy
    from repro.machine.config import MachineConfig
    from repro.util.geometry import Rect

    failures: List[Tuple[str, str]] = []
    n_queries = 0
    total_shared_reads = 0
    all_strategies = ALL_STRATEGIES
    for wi, (label, w) in enumerate(functional_workloads()):
        mapping, grid, spec = w["mapping"], w["grid"], w["spec"]
        problem = w["problem"]
        space = mapping.input_space
        lo = tuple(float(d.lo) for d in space.dims)
        hi = tuple(float(d.hi) for d in space.dims)
        span = [b - a for a, b in zip(lo, hi)]

        def make_adr():
            adr = ADR(
                machine=MachineConfig(
                    n_procs=problem.n_procs, memory_per_proc=MB
                )
            )
            adr.load("corpus", space, w["chunks"])
            return adr

        def query(region, strategy, **kw):
            return RangeQuery(
                "corpus", region, mapping, grid,
                aggregation=spec, strategy=strategy, **kw,
            )

        # Four overlapping queries: the sub-boxes overlap each other
        # and the full region, so a batch always has chunks to share.
        strat = [all_strategies[(wi + k) % len(all_strategies)] for k in range(4)]
        queries = [
            query(Rect(lo, hi), strat[0]),
            query(
                Rect(lo, tuple(a + 0.7 * s for a, s in zip(lo, span))), strat[1]
            ),
            query(
                Rect(tuple(a + 0.3 * s for a, s in zip(lo, span)), hi), strat[2]
            ),
            query(Rect(lo, hi), strat[3], where=w["where"]),
        ]
        n_queries += len(queries)

        # Isolated ground truth: each query alone on a fresh instance.
        isolated = [make_adr().execute(q) for q in queries]

        # Concurrent shared execution: one service, one worker.
        service = QueryService(
            make_adr(),
            ServicePolicy(max_inflight=1, batch_max=len(queries)),
        )
        try:
            tickets = [service.submit(q) for q in queries]
            shared = [t.result(timeout=300.0) for t in tickets]
        finally:
            service.close()

        for qi, (solo, conc) in enumerate(zip(isolated, shared)):
            tag = f"{label} / q{qi} {strat[qi]}"
            total_shared_reads += conc.shared_reads
            if conc.output_ids.tolist() != solo.output_ids.tolist():
                failures.append((tag, "shared output ids != isolated"))
                continue
            for o, cv, sv in zip(conc.output_ids, conc.chunk_values,
                                 solo.chunk_values):
                if not np.array_equal(cv, sv, equal_nan=True):
                    failures.append(
                        (tag, f"output chunk {int(o)} not bitwise-equal "
                              "to isolated execution")
                    )
            for counter in _COUNTERS + ("n_tiles", "chunks_pruned",
                                        "bytes_pruned"):
                if getattr(conc, counter) != getattr(solo, counter):
                    failures.append(
                        (tag, f"{counter}={getattr(conc, counter)} != "
                              f"isolated {getattr(solo, counter)}")
                    )
            if conc.strategy != solo.strategy:
                failures.append(
                    (tag, f"strategy {conc.strategy} != {solo.strategy}")
                )
            if (conc.completeness != solo.completeness
                    or conc.chunk_errors != solo.chunk_errors):
                failures.append((tag, "degradation report differs"))
    if total_shared_reads == 0:
        failures.append(
            ("service corpus", "no query was ever served from the shared "
                               "payload cache; sharing never engaged")
        )
    return n_queries, failures


#: Counters that must survive scatter/gather unchanged (in addition to
#: the cross-backend :data:`_COUNTERS` contract).
_SHARD_COUNTERS = _COUNTERS + ("n_tiles", "chunks_pruned", "bytes_pruned")


def _compare_sharded(
    tag: str,
    got,
    want,
    failures: List[Tuple[str, str]],
) -> None:
    """Bitwise comparison of two scatter/gather results.

    ``phase_times`` *values*, ``cache_stats`` and the ``shared_*``
    fields are excluded (cache warmness differs between runs over the
    same live servers); everything else -- values, counters, pruning,
    completeness, degradation keys, phase-name set -- must match
    exactly.  Error *messages* are compared by key only: the same dead
    shard surfaces as ``ConnectionRefusedError`` over a socket and as
    the local stand-in's refusal in process.
    """
    if got.output_ids.tolist() != want.output_ids.tolist():
        failures.append((tag, "output ids differ"))
        return
    for o, a, b in zip(got.output_ids, got.chunk_values, want.chunk_values):
        if not np.array_equal(a, b, equal_nan=True):
            failures.append(
                (tag, f"output chunk {int(o)} not bitwise-equal")
            )
    for counter in _SHARD_COUNTERS:
        if getattr(got, counter) != getattr(want, counter):
            failures.append(
                (tag, f"{counter}={getattr(got, counter)} != "
                      f"expected {getattr(want, counter)}")
            )
    if got.strategy != want.strategy:
        failures.append((tag, f"strategy {got.strategy} != {want.strategy}"))
    if got.completeness != want.completeness:
        failures.append(
            (tag, f"completeness {got.completeness} != {want.completeness}")
        )
    if sorted(got.chunk_errors) != sorted(want.chunk_errors):
        failures.append(
            (tag, f"chunk_errors keys {sorted(got.chunk_errors)} != "
                  f"{sorted(want.chunk_errors)}")
        )
    if sorted(got.shard_errors) != sorted(want.shard_errors):
        failures.append(
            (tag, f"shard_errors keys {sorted(got.shard_errors)} != "
                  f"{sorted(want.shard_errors)}")
        )
    if sorted(got.phase_times) != sorted(want.phase_times):
        failures.append((tag, "phase_times key sets differ"))


def verify_shard_corpus() -> Tuple[int, List[Tuple[str, str]]]:
    """Replay the functional corpus through a sharded deployment.

    Per workload: the four strategies over rotating regions plus one
    predicate-bearing variant (45 plans), each executed three ways --

    - over real sockets through the cluster's
      :class:`~repro.shard.router.ShardRouter` (scatter, per-shard
      deadlines, FRA global combine at the router);
    - through the identical router/merge path in process
      (:meth:`~repro.shard.cluster.ShardCluster.execute_local`), which
      must match the socket run **bit for bit** (values, counters,
      pruning, completeness -- the wire must be invisible);
    - on a fresh single-process ADR, which the sharded result must
      match to float tolerance with identical output ids, pruning
      counters and ``completeness == 1.0`` (distribution must be
      semantically invisible; only combine order may differ).

    Shard counts rotate 2/3/4 across workloads.  Returns
    ``(n_plans, failures)``.
    """
    from repro.frontend.adr import ADR
    from repro.frontend.query import RangeQuery
    from repro.machine.config import MachineConfig
    from repro.shard import ShardCluster
    from repro.util.geometry import Rect

    failures: List[Tuple[str, str]] = []
    n_plans = 0
    all_strategies = ALL_STRATEGIES
    for wi, (label, w) in enumerate(functional_workloads()):
        mapping, grid, spec = w["mapping"], w["grid"], w["spec"]
        space = mapping.input_space
        lo = tuple(float(d.lo) for d in space.dims)
        hi = tuple(float(d.hi) for d in space.dims)
        span = [b - a for a, b in zip(lo, hi)]
        n_shards = 2 + (wi % 3)

        regions = [
            Rect(lo, hi),
            Rect(lo, tuple(a + 0.7 * s for a, s in zip(lo, span))),
            Rect(tuple(a + 0.3 * s for a, s in zip(lo, span)), hi),
            Rect(lo, hi),
        ]

        def query(region, strategy, **kw):
            return RangeQuery(
                "corpus", region, mapping, grid,
                aggregation=spec, strategy=strategy, **kw,
            )

        queries = [
            query(regions[k], all_strategies[(wi + k) % 4]) for k in range(4)
        ]
        queries.append(
            query(Rect(lo, hi), all_strategies[wi % 4], where=w["where"])
        )

        solo_adr = ADR(
            machine=MachineConfig(
                n_procs=w["problem"].n_procs, memory_per_proc=MB
            )
        )
        solo_adr.load("corpus", space, w["chunks"])

        with ShardCluster.build(
            "corpus", space, w["chunks"], n_shards=n_shards
        ) as cluster:
            for qi, q in enumerate(queries):
                n_plans += 1
                tag = f"{label} / q{qi} {q.strategy} shards={n_shards}"
                wire = cluster.execute(q)
                local = cluster.execute_local(q)
                _compare_sharded(f"{tag} [wire vs local]", wire, local,
                                 failures)
                if wire.shard_errors or wire.completeness != 1.0:
                    failures.append(
                        (tag, "healthy deployment reported degradation")
                    )
                solo = solo_adr.execute(q)
                if wire.output_ids.tolist() != solo.output_ids.tolist():
                    failures.append((tag, "sharded output ids != solo ADR"))
                    continue
                for o, cv, sv in zip(wire.output_ids, wire.chunk_values,
                                     solo.chunk_values):
                    if not np.allclose(cv, sv, equal_nan=True):
                        failures.append(
                            (tag, f"output chunk {int(o)} diverges from "
                                  "the single-process result")
                        )
                if wire.chunks_pruned != solo.chunks_pruned:
                    failures.append(
                        (tag, f"chunks_pruned {wire.chunks_pruned} != "
                              f"solo {solo.chunks_pruned}")
                    )
    return n_plans, failures


def verify_chaos_corpus() -> Tuple[int, List[Tuple[str, str]]]:
    """The wire-level chaos corpus: seeded failures, exact degradation.

    Fifteen scenario templates (crashed shards, draining shards,
    refused connections, torn and corrupted frames -- transient and
    persistent -- slow peers within and beyond the deadline, replica
    failover, hedged stragglers, and chunk-level faults composing with
    a dead shard) run against two functional workloads, 30 scenarios
    total.  Every scenario must:

    - finish inside its wall-clock budget (deadlines bound every
      failure mode; a hang is a corpus failure, not a timeout);
    - report exactly the ``shard_errors`` keys the injected failure
      implies, with ``completeness`` to match;
    - produce values **bit-identical** to the in-process expectation
      computed with the same shards down
      (:meth:`~repro.shard.cluster.ShardCluster.execute_local`) --
      degraded results are deterministic, not best-effort;
    - for transient faults (``times=1``), retry through to the clean,
      fully-complete result.

    Returns ``(n_scenarios, failures)``.
    """
    import time as time_mod

    from repro.faults import ChaosProxy, FaultInjector, FaultPlan, WireFaultPlan
    from repro.frontend.protocol import ProtocolError
    from repro.frontend.query import RangeQuery
    from repro.shard import ShardCluster, ShardEndpoint, ShardUnavailableError
    from repro.shard.router import RouterPolicy
    from repro.store.retry import RetryPolicy
    from repro.util.geometry import Rect

    failures: List[Tuple[str, str]] = []
    n_scenarios = 0
    budget_s = 8.0
    n_shards = 3

    fast = RouterPolicy(
        shard_deadline_s=6.0,
        connect_timeout_s=2.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.02,
                          retry_on=(OSError, ProtocolError)),
    )
    tight = RouterPolicy(
        shard_deadline_s=1.0,
        connect_timeout_s=1.0,
        retry=RetryPolicy(max_attempts=1, base_delay=0.02,
                          retry_on=(OSError, ProtocolError)),
    )

    for wi, (label, w) in enumerate(functional_workloads()):
        if wi not in (0, 3):
            continue
        mapping, grid, spec = w["mapping"], w["grid"], w["spec"]
        space = mapping.input_space
        lo = tuple(float(d.lo) for d in space.dims)
        hi = tuple(float(d.hi) for d in space.dims)
        strategy = (FRA, HYBRID)[wi == 3]
        qd = RangeQuery("corpus", Rect(lo, hi), mapping, grid,
                        aggregation=spec, strategy=strategy,
                        on_error="degrade")
        qr = RangeQuery("corpus", Rect(lo, hi), mapping, grid,
                        aggregation=spec, strategy=strategy,
                        on_error="raise")

        def build(**kw):
            return ShardCluster.build(
                "corpus", space, w["chunks"], n_shards=n_shards,
                router_policy=fast, **kw,
            )

        def proxied_router(cluster, sid, plan, policy=None, replica=False):
            """A router whose endpoint for *sid* goes through a chaos
            proxy (optionally keeping the real server as replica)."""
            proxy = ChaosProxy(cluster.servers[sid].address, plan).start()
            eps = []
            for s in range(n_shards):
                if s == sid:
                    reps = (cluster.servers[s].address,) if replica else ()
                    eps.append(ShardEndpoint(s, proxy.address, replicas=reps))
                else:
                    eps.append(ShardEndpoint(s, cluster.servers[s].address))
            return proxy, cluster.router_for(endpoints=eps, policy=policy)

        def expect_degraded(tag, got, cluster, down, elapsed):
            if elapsed > budget_s:
                failures.append(
                    (tag, f"scenario took {elapsed:.1f}s; deadlines must "
                          f"bound every failure mode under {budget_s}s")
                )
            if sorted(got.shard_errors) != sorted(down):
                failures.append(
                    (tag, f"shard_errors keys {sorted(got.shard_errors)} != "
                          f"injured shards {sorted(down)}")
                )
            exp = cluster.execute_local(qd, down=frozenset(down))
            _compare_sharded(tag, got, exp, failures)
            if down and got.completeness >= 1.0:
                failures.append((tag, "degraded result claims completeness 1"))

        def expect_clean(tag, got, cluster, elapsed):
            if elapsed > budget_s:
                failures.append(
                    (tag, f"scenario took {elapsed:.1f}s; deadlines must "
                          f"bound every failure mode under {budget_s}s")
                )
            if got.shard_errors or got.completeness != 1.0:
                failures.append(
                    (tag, f"expected a clean recovery; got shard_errors="
                          f"{got.shard_errors} completeness="
                          f"{got.completeness}")
                )
            exp = cluster.execute_local(qd)
            _compare_sharded(tag, got, exp, failures)

        # -- 1/2: dead shards degrade with exact completeness ----------
        for down in ({0}, {0, 1}):
            n_scenarios += 1
            tag = f"{label} / crash-{len(down)}-degrade"
            with build() as cluster:
                for sid in down:
                    cluster.crash_shard(sid)
                t0 = time_mod.monotonic()
                got = cluster.execute(qd)
                expect_degraded(tag, got, cluster, down,
                                time_mod.monotonic() - t0)

        # -- 3: on_error='raise' refuses to fabricate a partial answer -
        n_scenarios += 1
        tag = f"{label} / crash-raise"
        with build() as cluster:
            cluster.crash_shard(1)
            t0 = time_mod.monotonic()
            try:
                cluster.execute(qr)
            except ShardUnavailableError as e:
                if sorted(e.shard_errors) != [1]:
                    failures.append(
                        (tag, f"raised for shards "
                              f"{sorted(e.shard_errors)}, expected [1]")
                    )
            else:
                failures.append(
                    (tag, "on_error='raise' returned instead of raising "
                          "ShardUnavailableError")
                )
            if time_mod.monotonic() - t0 > budget_s:
                failures.append((tag, "raise path exceeded deadline budget"))

        # -- 4-11: wire faults through the chaos proxy -----------------
        wire_cases = [
            ("refuse-all-degrade", WireFaultPlan.refuse(times=None),
             fast, {1}),
            ("refuse-once-retries-clean", WireFaultPlan.refuse(times=1),
             fast, set()),
            ("cut-once-retries-clean", WireFaultPlan.cut(times=1),
             fast, set()),
            ("cut-all-degrade", WireFaultPlan.cut(times=None), fast, {1}),
            ("corrupt-header-once-clean",
             WireFaultPlan.corrupt(after_bytes=0, times=1), fast, set()),
            ("corrupt-payload-all-degrade",
             WireFaultPlan.corrupt(after_bytes=10, times=None), fast, {1}),
            ("slow-within-deadline-clean",
             WireFaultPlan.slow(0.3, times=None), fast, set()),
            ("slow-beyond-deadline-degrade",
             WireFaultPlan.slow(30.0, times=None), tight, {1}),
        ]
        for name, plan, policy, down in wire_cases:
            n_scenarios += 1
            tag = f"{label} / {name}"
            with build() as cluster:
                proxy, router = proxied_router(cluster, 1, plan, policy)
                try:
                    t0 = time_mod.monotonic()
                    got = router.execute(qd)
                    elapsed = time_mod.monotonic() - t0
                finally:
                    proxy.close()
                if down:
                    expect_degraded(tag, got, cluster, down, elapsed)
                else:
                    expect_clean(tag, got, cluster, elapsed)
                if name == "slow-beyond-deadline-degrade" and not any(
                    "eadline" in msg for msg in got.shard_errors.values()
                ):
                    # The failure must be *attributed* to the deadline,
                    # not reported as a generic connection error.
                    failures.append(
                        (tag, f"shard error not attributed to the "
                              f"deadline: {got.shard_errors}")
                    )

        # -- 12: graceful drain reads as an unavailable shard ----------
        n_scenarios += 1
        tag = f"{label} / drain-degrade"
        with build() as cluster:
            cluster.drain_shard(2)
            t0 = time_mod.monotonic()
            got = cluster.execute(qd)
            expect_degraded(tag, got, cluster, {2},
                            time_mod.monotonic() - t0)

        # -- 13: replica failover keeps the answer complete ------------
        n_scenarios += 1
        tag = f"{label} / replica-failover-clean"
        with build() as cluster:
            proxy, router = proxied_router(
                cluster, 1, WireFaultPlan.refuse(times=None), fast,
                replica=True,
            )
            try:
                t0 = time_mod.monotonic()
                got = router.execute(qd)
                elapsed = time_mod.monotonic() - t0
            finally:
                proxy.close()
            expect_clean(tag, got, cluster, elapsed)

        # -- 14: hedging beats a straggling primary --------------------
        n_scenarios += 1
        tag = f"{label} / hedged-straggler-clean"
        with build() as cluster:
            hedge = RouterPolicy(
                shard_deadline_s=6.0, connect_timeout_s=2.0,
                retry=fast.retry, hedge_after_s=0.25,
            )
            proxy, router = proxied_router(
                cluster, 1, WireFaultPlan.slow(3.0, times=None), hedge,
                replica=True,
            )
            try:
                t0 = time_mod.monotonic()
                got = router.execute(qd)
                elapsed = time_mod.monotonic() - t0
            finally:
                proxy.close()
            expect_clean(tag, got, cluster, elapsed)
            if elapsed > 2.5:
                failures.append(
                    (tag, f"hedged fetch took {elapsed:.1f}s; the replica "
                          "should answer long before the 3s straggler")
                )

        # -- 15: chunk-level faults compose with a dead shard ----------
        n_scenarios += 1
        tag = f"{label} / chunk-and-shard-compose"
        injector = FaultInjector(
            FaultPlan.corrupt_chunk(chunk_id=0, dataset="corpus",
                                    times=None, seed=7)
        )
        with build(faulty_stores={2: injector}) as cluster:
            corrupted_gid = int(cluster.topology.assignment.global_ids(2)[0])
            cluster.crash_shard(0)
            t0 = time_mod.monotonic()
            got = cluster.execute(qd)
            elapsed = time_mod.monotonic() - t0
            expect_degraded(tag, got, cluster, {0}, elapsed)
            if corrupted_gid not in got.chunk_errors:
                failures.append(
                    (tag, f"corrupted chunk {corrupted_gid} missing from "
                          f"chunk_errors {sorted(got.chunk_errors)}")
                )
    return n_scenarios, failures


def _render_failures(
    failures: Sequence[Tuple[str, str]], fmt: str, mode: str, n_plans: int
) -> str:
    """``(label, message)`` failures in text or machine-readable form."""
    import json as json_mod

    if fmt == "json":
        return json_mod.dumps(
            {
                "tool": "repro.analysis.corpus",
                "mode": mode,
                "summary": {"plans": n_plans, "failures": len(failures)},
                "failures": [
                    {"plan": label, "message": message}
                    for label, message in failures
                ],
            },
            indent=2,
        )
    return "\n".join(f"{label}: {message}" for label, message in failures)


def _render_findings(
    findings: Sequence[Tuple[str, Diagnostic]], fmt: str, mode: str, n_plans: int
) -> str:
    """``(plan label, diagnostic)`` pairs in the requested format.

    The label rides in the location (text/github) or as a ``plan``
    field (json); ordering is stable: by label, then the diagnostic's
    own sort key.
    """
    import json as json_mod

    findings = sorted(findings, key=lambda f: (f[0], f[1].sort_key()))
    if fmt == "json":
        return json_mod.dumps(
            {
                "tool": "repro.analysis.corpus",
                "mode": mode,
                "summary": {"plans": n_plans, "findings": len(findings)},
                "findings": [
                    {"plan": label, **diag.to_dict()} for label, diag in findings
                ],
            },
            indent=2,
        )
    if fmt == "github":
        return "\n".join(
            Diagnostic(
                d.code, d.severity, f"{label} / {d.location}", d.message
            ).format_github()
            for label, d in findings
        )
    return "\n".join(f"{label}: {d.format()}" for label, d in findings)


_USAGE = (
    "usage: python -m repro.analysis.corpus "
    "[--no-emulators] [--comm] [--functional] [--faults [--prefetch]] "
    "[--service] [--shards] [--chaos] "
    "[--format text|json|github] [--out FILE]"
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.analysis.lint import _parse_output_args, _write_report

    argv = list(sys.argv[1:] if argv is None else argv)
    fmt, out_path, err = _parse_output_args(argv, _USAGE)
    if err is not None:
        print(f"repro.analysis.corpus: {err}", file=sys.stderr)
        return 2
    unknown = [
        a for a in argv
        if a not in ("--no-emulators", "--comm", "--functional", "--faults",
                     "--prefetch", "--service", "--shards", "--chaos")
    ]
    if unknown:
        print(
            f"repro.analysis.corpus: unknown argument(s): {' '.join(unknown)}"
            f"\n{_USAGE}",
            file=sys.stderr,
        )
        return 2
    include_emulators = "--no-emulators" not in argv
    if "--comm" in argv:
        n_plans, findings = verify_comm_corpus(include_emulators=include_emulators)
        _write_report(_render_findings(findings, fmt, "comm", n_plans), out_path)
        if findings:
            if fmt == "text":
                print(
                    f"repro.analysis.corpus: {len(findings)} communication "
                    f"diagnostic(s) over {n_plans} plans"
                )
            return 1
        if fmt == "text" and out_path is None:
            print(
                f"repro.analysis.corpus: {n_plans} plans model-checked "
                "(deadlock-free, matched send/recv multisets, complete "
                "combines, recovery-safe keys), zero diagnostics"
            )
        return 0
    if "--faults" in argv:
        n_scenarios, failures = verify_fault_corpus(prefetch="--prefetch" in argv)
        for label, message in failures:
            print(f"{label}: {message}")
        if failures:
            print(
                f"repro.analysis.corpus: {len(failures)} failure(s) over "
                f"{n_scenarios} fault scenarios"
            )
            return 1
        print(
            f"repro.analysis.corpus: {n_scenarios} fault scenarios replayed, "
            "all degraded/recovered results matched ground truth"
        )
        return 0
    if "--shards" in argv:
        n_plans, failures = verify_shard_corpus()
        _write_report(
            _render_failures(failures, fmt, "shards", n_plans), out_path
        )
        if failures:
            print(
                f"repro.analysis.corpus: {len(failures)} failure(s) over "
                f"{n_plans} sharded plans"
            )
            return 1
        print(
            f"repro.analysis.corpus: {n_plans} plans executed through the "
            "sharded scatter/gather deployment, all bit-identical to the "
            "in-process merge and numerically identical to a single ADR"
        )
        return 0
    if "--chaos" in argv:
        n_scenarios, failures = verify_chaos_corpus()
        _write_report(
            _render_failures(failures, fmt, "chaos", n_scenarios), out_path
        )
        if failures:
            print(
                f"repro.analysis.corpus: {len(failures)} failure(s) over "
                f"{n_scenarios} chaos scenarios"
            )
            return 1
        print(
            f"repro.analysis.corpus: {n_scenarios} chaos scenarios replayed "
            "deterministically; every degraded result matched its "
            "in-process expectation inside the deadline budget"
        )
        return 0
    if "--service" in argv:
        n_queries, failures = verify_service_corpus()
        for label, message in failures:
            print(f"{label}: {message}")
        if failures:
            print(
                f"repro.analysis.corpus: {len(failures)} failure(s) over "
                f"{n_queries} service-executed queries"
            )
            return 1
        print(
            f"repro.analysis.corpus: {n_queries} queries executed through the "
            "concurrent query service with scan sharing, all bit-identical "
            "to isolated execution"
        )
        return 0
    if "--functional" in argv:
        n_plans, failures = verify_functional_corpus()
        for label, message in failures:
            print(f"{label}: {message}")
        if failures:
            print(
                f"repro.analysis.corpus: {len(failures)} failure(s) over "
                f"{n_plans} executed plans"
            )
            return 1
        print(
            f"repro.analysis.corpus: {n_plans} plans executed on both backends, "
            "all matched the serial oracle"
        )
        return 0
    findings = verify_corpus(include_emulators=include_emulators)
    n_plans = 0
    for label, _problem in corpus_problems(include_emulators):
        n_plans += 4  # FRA, SRA, DA, HYBRID
    _write_report(_render_findings(findings, fmt, "verify", n_plans), out_path)
    if findings:
        if fmt == "text":
            print(
                f"repro.analysis.corpus: {len(findings)} diagnostic(s) "
                f"over {n_plans} plans"
            )
        return 1
    if fmt == "text" and out_path is None:
        print(f"repro.analysis.corpus: {n_plans} plans verified, zero diagnostics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
