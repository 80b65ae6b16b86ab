"""Canned corpora for CI: plan them, execute them, exit nonzero on drift.

The paper's claim is that FRA, SRA, DA and the hybrid compute exactly
what its Figure 1 loop computes.  This module checks that claim on
deterministic corpora, one mode per path a query can take::

    python -m repro.analysis.corpus [MODE] [--format text|json|github] [--out FILE]

================  =======================================================
(no mode)         six synthetic problems plus the SAT/WCS/VM emulator
                  scenarios, planned with every strategy and checked by
                  :func:`~repro.analysis.verifier.verify_plan` (ADR1xx;
                  ``--no-emulators`` drops the emulators)
``--comm``        the same plans through
                  :func:`~repro.analysis.comm.check_plan_comm` (ADR6xx:
                  deadlock-freedom, matched sends/receives, complete
                  combines, recovery-safe keys)
``--functional``  nine payload workloads: every strategy, the
                  ``strategy='auto'`` pick and one synopsis-pruned
                  ``where=`` plan, each over {sequential, parallel} x
                  {prefetch off, on}
``--faults``      corrupt chunk + degrade, flaky disk + retry, worker
                  crash + recovery per workload (``--prefetch``: with
                  read-ahead)
``--service``     four overlapping queries per workload through one
                  scan-sharing query service
``--shards``      five queries per workload over sockets through a
                  shard router
``--chaos``       fifteen seeded wire and shard failures on two
                  workloads, each inside a deadline budget
================  =======================================================

Every execution check is one :func:`_diff` of a result against its
reference: the serial oracle (:meth:`Workload.oracle`) to float
tolerance, and any two executions of one query bit for bit, over one of
the named field sets :data:`_OUTCOME` / :data:`_ALL`.
``docs/static_analysis.md`` tabulates which path is held to which
reference.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.functions import AggregationSpec
from repro.aggregation.output_grid import OutputGrid, PlacedGrids
from repro.analysis.comm import check_plan_comm
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.verifier import verify_plan
from repro.dataset.chunk import Chunk
from repro.dataset.chunkset import ChunkSet
from repro.decluster.hilbert import HilbertDeclusterer
from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.index.brute import BruteForceIndex
from repro.machine.config import MachineConfig
from repro.planner.problem import PlanningProblem, select_chunks
from repro.planner.select import ALL_STRATEGIES, FRA, HYBRID
from repro.planner.strategies import plan_query
from repro.runtime.engine import QueryResult, assemble_result, execute_plan
from repro.runtime.serial import execute_serial
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.rng import make_rng
from repro.util.units import KB, MB

__all__ = [
    "Workload",
    "corpus_problems",
    "verify_corpus",
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
    from repro.dataset.graph import ChunkGraph

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

        machine = MachineConfig(n_procs=4, memory_per_proc=4 * MB)
        for name, cls in sorted(EMULATORS.items()):
            scenario = cls().scenario(scale=1, seed=7)
            yield (f"emulator[{name}] p=4", scenario.problem(machine))


def verify_corpus(
    check: Callable = verify_plan,
    include_emulators: bool = True,
    strategies: Sequence[str] = ALL_STRATEGIES,
) -> Tuple[int, List[Tuple[str, Diagnostic]]]:
    """Plan the corpus with every strategy and run *check* on each plan
    -- the verifier by default, :func:`check_plan_comm` for ``--comm``;
    returns ``(n_plans, (plan label, diagnostic) pairs)``."""
    findings: List[Tuple[str, Diagnostic]] = []
    n_plans = 0
    for label, problem in corpus_problems(include_emulators):
        for strategy in strategies:
            n_plans += 1
            plan = plan_query(problem, strategy)
            findings += [(f"{label} / {strategy}", d) for d in check(plan)]
    return n_plans, findings


# ---------------------------------------------------------------------------
# The equivalence contract
# ---------------------------------------------------------------------------

#: What a result states about its answer beside the values: how complete
#: it is and what failed, what synopsis pruning skipped, that every phase
#: ran and that the armed race detector saw nothing.  The serial oracle
#: states these too (:meth:`Workload.oracle`).
_OUTCOME = (
    "completeness", "chunk_errors", "shard_errors", "chunks_pruned",
    "bytes_pruned", "phase_times", "race_diagnostics",
)
#: The cross-backend counter contract (defined in :mod:`repro.runtime.phases`).
_COUNTERS = ("n_reads", "bytes_read", "n_aggregations", "n_combines")
#: Everything two executions of one query must agree on; only timings,
#: cache tallies, ``shared_*`` and the auto-selection audit may differ.
_ALL = _OUTCOME + _COUNTERS + ("strategy", "n_tiles")


def _diff(got: QueryResult, want: QueryResult, *, exact: bool,
          fields: Sequence[str]) -> List[str]:
    """Every way *got* departs from *want*, one message per field.

    The output ids must match -- in order when *exact* (two runs of one
    plan), as sets otherwise (the oracle lists them ascending) -- and
    every output chunk's values must be ``array_equal`` (*exact*) or
    ``allclose`` to *want*'s, NaN equal to NaN; then each field in
    *fields* must be equal.  Dict fields (``chunk_errors``,
    ``shard_errors``, ``phase_times``) compare by key set: error texts
    and timings legitimately differ between runs that computed the same
    thing.
    """
    got_ids, want_ids = got.output_ids.tolist(), want.output_ids.tolist()
    if not exact:
        got_ids, want_ids = sorted(got_ids), sorted(want_ids)
    if got_ids != want_ids:
        found = [f"output_ids {got_ids} != {want_ids}"]
    else:
        same = np.array_equal if exact else np.allclose
        mine, theirs = got.as_dict(), want.as_dict()
        found = [
            f"chunk_values[{o}] not {'bitwise-equal' if exact else 'allclose'}"
            for o in got_ids
            if not same(mine[o], theirs[o], equal_nan=True)
        ]
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, dict):
            a, b = sorted(a), sorted(b)
        if a != b:
            found.append(f"{name} {a} != {b}")
    return found


# ---------------------------------------------------------------------------
# The functional workloads
# ---------------------------------------------------------------------------

#: The functional corpus's value predicate.  Component 0 tracks the x
#: coordinate, so it prunes a real fraction of every workload's chunks
#: through their synopses.
_WHERE = {0: (None, 35.0)}

#: Per-dimension fractions of the input space the overlapping service and
#: shard queries cover: two sub-boxes overlapping each other and the
#: full region, so a batch always has chunks to share.
_PARTS = ((0.0, 1.0), (0.0, 0.7), (0.3, 1.0), (0.0, 1.0))


@dataclass(frozen=True)
class Workload:
    """One payload-carrying execution problem of the functional corpus."""

    chunks: List[Chunk]
    mapping: GridMapping
    grid: OutputGrid
    spec: AggregationSpec
    n_procs: int
    #: accumulator bytes per processor the functional plans tile for
    memory: int
    #: the chunks' metadata placed as ``ADR.load`` places it, synopses included
    inputs: ChunkSet

    def query(self, strategy: str = FRA, part=(0.0, 1.0), **kw) -> RangeQuery:
        """A query over fraction *part* of every input dimension."""
        dims = self.mapping.input_space.dims
        lo = np.array([d.lo for d in dims], dtype=float)
        span = np.array([d.hi for d in dims], dtype=float) - lo
        region = Rect(tuple((lo + part[0] * span).tolist()),
                      tuple((lo + part[1] * span).tolist()))
        return RangeQuery("corpus", region, self.mapping, self.grid,
                          aggregation=self.spec, strategy=strategy, **kw)

    def problem(self, where=None) -> PlanningProblem:
        """The full-region query's planning problem from the builder
        behind ``ADR.build_problem`` (prunable chunks dropped)."""
        return select_chunks(
            self.query(where=where), self.mapping.input_space,
            BruteForceIndex.build(self.inputs), self.inputs,
            PlacedGrids(HilbertDeclusterer(), self.n_procs), drop_pruned=True,
        ).problem(self.n_procs, self.memory)

    def run(self, plan, **kw) -> QueryResult:
        """Execute *plan* over the in-memory chunks."""
        return execute_plan(
            plan, self.chunks.__getitem__, self.mapping, self.grid, self.spec, **kw
        )

    def oracle(self, skip: Optional[int] = None, predicate=None, **stated) -> QueryResult:
        """The serial Figure-1 loop over every chunk but *skip*, as a
        result that states a complete, unpruned, race-free answer with
        every phase -- unless *stated* fields say otherwise."""
        values = execute_serial(
            [c for i, c in enumerate(self.chunks) if i != skip],
            self.mapping, self.grid, self.spec, predicate=predicate,
        )
        return assemble_result(None, values, strategy="", n_tiles=0, **stated)

    def adr(self) -> ADR:
        """A fresh single-process ADR holding the chunks (1 MB per processor)."""
        adr = ADR(machine=MachineConfig(n_procs=self.n_procs, memory_per_proc=MB))
        adr.load("corpus", self.mapping.input_space, self.chunks)
        return adr


def functional_workloads() -> Iterator[Tuple[str, Workload]]:
    """Yield ``(label, workload)`` payload-carrying execution problems;
    nine workloads x four strategies = 36 fixed-strategy plans."""
    from repro.aggregation.functions import (
        BestValueComposite,
        CountAggregation,
        MaxAggregation,
        MeanAggregation,
        MinAggregation,
        SumAggregation,
    )
    from repro.dataset.partition import hilbert_partition
    from repro.dataset.synopsis import ValueSynopsis
    from repro.space.attribute_space import AttributeSpace

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
        inputs = ChunkSet.from_metas([c.meta for c in chunks]).with_synopsis(
            ValueSynopsis.from_chunks(chunks)
        )
        label = (
            f"functional[{i}] {type(spec).__name__}"
            f" c={spec.value_components} p={n_procs}"
        )
        yield label, Workload(
            chunks=chunks,
            mapping=GridMapping(in_space, out_space, gcells, footprint=footprint),
            grid=OutputGrid(out_space, gcells, ccells),
            spec=spec,
            n_procs=n_procs,
            memory=memory,
            inputs=HilbertDeclusterer().place(inputs, n_procs),
        )


def _variants(w: Workload, plan, **kw) -> Dict[str, QueryResult]:
    """*plan* executed over {sequential, parallel} x {prefetch off, on},
    the race detector armed on the plain sequential run."""
    runs = {}
    for backend in ("sequential", "parallel"):
        for prefetch in (False, True):
            name = backend + ("+prefetch" if prefetch else "")
            runs[name] = w.run(
                plan, backend=backend, prefetch=prefetch,
                detect_races=True if name == "sequential" else None, **kw,
            )
    return runs


def _runs_agree(tag: str, runs: Dict[str, QueryResult], want: QueryResult, *,
                exact: bool, fields: Sequence[str]) -> List[Tuple[str, str]]:
    """The sequential run against *want*, then every other variant bit
    for bit against the sequential run."""
    seq = runs["sequential"]
    found = [(f"{tag} / sequential", m)
             for m in _diff(seq, want, exact=exact, fields=fields)]
    for name, res in runs.items():
        if res is not seq:
            found += [(f"{tag} / {name}", m)
                      for m in _diff(res, seq, exact=True, fields=_ALL)]
    return found


def verify_functional_corpus(
    strategies: Sequence[str] = ALL_STRATEGIES,
) -> Tuple[int, List[Tuple[str, str]]]:
    """Execute the functional corpus; return ``(n_plans, failures)``.

    Per workload, each of *strategies*, the ``strategy='auto'`` pick and
    one synopsis-pruned ``where=`` plan (strategy rotating) run through
    :func:`_variants`.  A fixed strategy's sequential run must match the
    serial oracle; the auto pick must match planning the chosen strategy
    explicitly bit for bit (selection adds a choice, never semantics);
    the pruned plan must match the unpruned predicate run bit for bit,
    report what it pruned, and read strictly less.
    """
    from repro.dataset.predicate import ValuePredicate
    from repro.frontend.adr import DEFAULT_COSTS
    from repro.machine.presets import ibm_sp
    from repro.planner.costmodel import CostModel
    from repro.planner.hybrid import plan_hybrid
    from repro.planner.select import choose_strategy

    failures: List[Tuple[str, str]] = []
    n_plans = 0
    for wi, (label, w) in enumerate(functional_workloads()):
        problem = w.problem()
        oracle = w.oracle()
        for strategy in strategies:
            n_plans += 1
            failures += _runs_agree(
                f"{label} / {strategy}", _variants(w, plan_query(problem, strategy)),
                oracle, exact=False, fields=_OUTCOME,
            )

        n_plans += 1
        model = CostModel(ibm_sp(problem.n_procs), DEFAULT_COSTS)
        choice = choose_strategy(problem, model)
        explicit = (
            plan_hybrid(problem, machine=model.machine, costs=model.costs)
            if choice.selected == HYBRID
            else plan_query(problem, choice.selected)
        )
        failures += _runs_agree(
            f"{label} / AUTO->{choice.selected}", _variants(w, choice.plan),
            w.run(explicit), exact=True, fields=_ALL,
        )

        n_plans += 1
        strategy = strategies[wi % len(strategies)]
        tag = f"{label} / {strategy} / where"
        pruned = w.problem(where=_WHERE)
        if not pruned.n_pruned:
            failures.append((tag, "predicate prunes no chunk; workload exercises nothing"))
            continue
        predicate = ValuePredicate.coerce(_WHERE)
        unpruned = w.run(
            plan_query(problem, strategy), predicate=predicate, detect_races=True
        )
        failures += [(f"{tag} / unpruned", m) for m in _diff(
            unpruned, w.oracle(predicate=predicate), exact=False, fields=_OUTCOME
        )]
        runs = _variants(w, plan_query(pruned, strategy), predicate=predicate)
        failures += _runs_agree(
            tag, runs,
            replace(unpruned, chunks_pruned=pruned.n_pruned,
                    bytes_pruned=pruned.pruned_bytes),
            exact=True, fields=_OUTCOME,
        )
        # Pruned chunks never reach the read phase (multi-tile plans
        # re-read inputs per tile, so the saving can exceed
        # bytes_pruned, which counts each pruned chunk once).
        seq = runs["sequential"]
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

    Three deterministic scenarios per workload, the strategy rotating
    through *strategies*; with ``prefetch=True`` injected read faults
    fire inside the read-ahead thread and must surface -- and degrade,
    retry, recover -- exactly as on the synchronous path:

    - **corrupt chunk + degrade**: one input chunk fails its CRC on
      every read.  The degraded result must equal the serial oracle
      over every other chunk, naming exactly that chunk in
      ``chunk_errors`` with ``completeness == 1 - 1/n_in`` -- with and
      without a value predicate -- and the parallel backend must
      reproduce it bit for bit;
    - **flaky disk + retry**: the first two reads raise ``OSError``; a
      zero-backoff :class:`~repro.store.retry.RetryPolicy` absorbs them
      and the result is the clean run, bit for bit;
    - **worker crash + recovery**: one virtual processor hard-exits
      mid-tile on the parallel backend; after recovery the result is
      the clean sequential run, bit for bit, counters included.
    """
    from repro.dataset.predicate import ValuePredicate
    from repro.faults import FaultInjector, FaultPlan
    from repro.runtime.parallel import RecoveryPolicy
    from repro.store.retry import RetryPolicy

    failures: List[Tuple[str, str]] = []
    n_scenarios = 0
    recovery = RecoveryPolicy(
        max_restarts=2, inbox_timeout=10.0, poll_interval=0.1, grace_polls=5
    )
    predicate = ValuePredicate.coerce(_WHERE)
    for i, (label, w) in enumerate(functional_workloads()):
        problem = w.problem()
        strategy = strategies[i % len(strategies)]
        plan = plan_query(problem, strategy)
        clean = w.run(plan, prefetch=prefetch)

        n_scenarios += 1
        tag = f"{label} / {strategy} / corrupt+degrade"
        victim = int(problem.input_global_ids[0])
        lost = {"chunk_errors": {victim: ""},
                "completeness": 1.0 - 1.0 / problem.n_in}

        def corrupt(**kw) -> QueryResult:
            return w.run(
                plan, fault_injector=FaultInjector(FaultPlan.corrupt_chunk(victim)),
                on_error="degrade", prefetch=prefetch, **kw,
            )

        degraded = corrupt()
        for got, want, exact, fields in (
            (degraded, w.oracle(skip=victim, **lost), False, _OUTCOME),
            (corrupt(backend="parallel", recovery=recovery), degraded, True, _ALL),
            # A value predicate filters items, never reads: the same
            # chunk fails and completeness is unchanged.
            (corrupt(predicate=predicate),
             w.oracle(skip=victim, predicate=predicate, **lost), False, _OUTCOME),
        ):
            failures += [(tag, m) for m in _diff(got, want, exact=exact, fields=fields)]

        n_scenarios += 1
        policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        flaky = FaultInjector(FaultPlan.flaky_read(times=2)).wrap_provider(
            w.chunks.__getitem__
        )
        retried = execute_plan(
            plan, lambda c: policy.run(lambda: flaky(c)), w.mapping, w.grid, w.spec,
            prefetch=prefetch,
        )
        failures += [(f"{label} / {strategy} / flaky+retry", m)
                     for m in _diff(retried, clean, exact=True, fields=_ALL)]

        n_scenarios += 1
        recovered = w.run(
            plan, backend="parallel", recovery=recovery, prefetch=prefetch,
            fault_injector=FaultInjector(FaultPlan.crash_worker(
                rank=min(1, problem.n_procs - 1), after_reads=1
            )),
        )
        failures += [(f"{label} / {strategy} / crash+recover", m)
                     for m in _diff(recovered, clean, exact=True, fields=_ALL)]
    return n_scenarios, failures


def _rotate(wi: int) -> List[str]:
    """Four strategies starting at workload *wi*'s turn, so every batch
    mixes tilings."""
    return [ALL_STRATEGIES[(wi + k) % len(ALL_STRATEGIES)] for k in range(4)]


def verify_service_corpus() -> Tuple[int, List[Tuple[str, str]]]:
    """Replay the functional corpus through the concurrent service.

    Per workload, four overlapping queries (full region, two
    overlapping sub-boxes, full region with the value predicate;
    strategies rotating) are submitted together to one scan-sharing
    :class:`~repro.frontend.queryservice.QueryService`.  Each result
    must equal the same query run alone on a fresh ADR, bit for bit --
    the documented ``shared_reads`` / ``shared_bytes`` are the only
    fields that may differ -- and at least one query in the corpus must
    actually be served from the shared payload cache.

    Returns ``(n_queries, failures)``.
    """
    from repro.frontend.queryservice import QueryService, ServicePolicy

    failures: List[Tuple[str, str]] = []
    n_queries = 0
    total_shared_reads = 0
    for wi, (label, w) in enumerate(functional_workloads()):
        strat = _rotate(wi)
        queries = [w.query(s, part) for s, part in zip(strat[:3], _PARTS)]
        queries.append(w.query(strat[3], where=_WHERE))
        n_queries += len(queries)
        isolated = [w.adr().execute(q) for q in queries]
        service = QueryService(
            w.adr(), ServicePolicy(max_inflight=1, batch_max=len(queries))
        )
        try:
            tickets = [service.submit(q) for q in queries]
            shared = [t.result(timeout=300.0) for t in tickets]
        finally:
            service.close()
        for qi, (solo, conc) in enumerate(zip(isolated, shared)):
            total_shared_reads += conc.shared_reads
            failures += [(f"{label} / q{qi} {strat[qi]}", m)
                         for m in _diff(conc, solo, exact=True, fields=_ALL)]
    if total_shared_reads == 0:
        failures.append(
            ("service corpus", "no query was ever served from the shared "
                               "payload cache; sharing never engaged")
        )
    return n_queries, failures


def verify_shard_corpus() -> Tuple[int, List[Tuple[str, str]]]:
    """Replay the functional corpus through a sharded deployment.

    Per workload, four overlapping queries plus one with the value
    predicate (45 plans; shard counts rotate 2/3/4) run over real
    sockets through the cluster's
    :class:`~repro.shard.router.ShardRouter`.  Each result must equal
    the identical router/merge path run in process
    (:meth:`~repro.shard.cluster.ShardCluster.execute_local`) bit for
    bit -- the wire must be invisible -- and a fresh single-process ADR
    to float tolerance: distribution may reassociate the global combine,
    never change the outcome.

    Returns ``(n_plans, failures)``.
    """
    from repro.shard import ShardCluster

    failures: List[Tuple[str, str]] = []
    n_plans = 0
    for wi, (label, w) in enumerate(functional_workloads()):
        strat = _rotate(wi)
        queries = [w.query(s, part) for s, part in zip(strat, _PARTS)]
        queries.append(w.query(strat[0], where=_WHERE))
        n_shards = 2 + (wi % 3)
        solo_adr = w.adr()
        with ShardCluster.build(
            "corpus", w.mapping.input_space, w.chunks, n_shards=n_shards
        ) as cluster:
            for qi, q in enumerate(queries):
                n_plans += 1
                tag = f"{label} / q{qi} {q.strategy} shards={n_shards}"
                wire = cluster.execute(q)
                for name, want, exact, fields in (
                    ("wire vs local", cluster.execute_local(q), True, _ALL),
                    ("vs solo ADR", solo_adr.execute(q), False, _OUTCOME),
                ):
                    failures += [(f"{tag} [{name}]", m)
                                 for m in _diff(wire, want, exact=exact, fields=fields)]
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
      failure mode; a hang is a corpus failure);
    - report exactly the ``shard_errors`` keys the injected failure
      implies, with ``completeness < 1`` exactly when a shard is down --
      checked against the scenario, not the in-process run, which
      shares the router's merge;
    - equal, bit for bit, the in-process run with the same shards down
      (:meth:`~repro.shard.cluster.ShardCluster.execute_local`):
      degraded results are deterministic, not best-effort, and
      transient faults retry through to the clean, complete result.

    Returns ``(n_scenarios, failures)``.
    """
    from repro.faults import ChaosProxy, FaultInjector, FaultPlan, WireFaultPlan
    from repro.frontend.protocol import ProtocolError
    from repro.shard import ShardCluster, ShardEndpoint, ShardUnavailableError
    from repro.shard.router import RouterPolicy
    from repro.store.retry import RetryPolicy

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
        strategy = (FRA, HYBRID)[wi == 3]
        qd = w.query(strategy, on_error="degrade")
        qr = w.query(strategy, on_error="raise")

        def build(**kw):
            return ShardCluster.build(
                "corpus", w.mapping.input_space, w.chunks, n_shards=n_shards,
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

        def expect(tag, cluster, call, down=()):
            """Run *call* against the budget, the outcome injuring *down*
            implies, and the in-process run with *down* shards dead;
            returns ``(result, seconds)``."""
            t0 = time.monotonic()
            got = call()
            elapsed = time.monotonic() - t0
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
            if (got.completeness < 1.0) != bool(down):
                failures.append(
                    (tag, f"completeness {got.completeness} with injured "
                          f"shards {sorted(down)}")
                )
            want = cluster.execute_local(qd, down=frozenset(down))
            failures.extend(
                (tag, m) for m in _diff(got, want, exact=True, fields=_ALL)
            )
            return got, elapsed

        # -- 1/2: dead shards degrade with exact completeness ----------
        for down in ({0}, {0, 1}):
            n_scenarios += 1
            with build() as cluster:
                for sid in down:
                    cluster.crash_shard(sid)
                expect(f"{label} / crash-{len(down)}-degrade", cluster,
                       lambda: cluster.execute(qd), down)

        # -- 3: on_error='raise' refuses to fabricate a partial answer -
        n_scenarios += 1
        tag = f"{label} / crash-raise"
        with build() as cluster:
            cluster.crash_shard(1)
            t0 = time.monotonic()
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
            if time.monotonic() - t0 > budget_s:
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
                    got, _ = expect(tag, cluster, lambda: router.execute(qd), down)
                finally:
                    proxy.close()
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
        with build() as cluster:
            cluster.drain_shard(2)
            expect(f"{label} / drain-degrade", cluster,
                   lambda: cluster.execute(qd), {2})

        # -- 13: replica failover keeps the answer complete ------------
        n_scenarios += 1
        with build() as cluster:
            proxy, router = proxied_router(
                cluster, 1, WireFaultPlan.refuse(times=None), fast,
                replica=True,
            )
            try:
                expect(f"{label} / replica-failover-clean", cluster,
                       lambda: router.execute(qd))
            finally:
                proxy.close()

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
                _, elapsed = expect(tag, cluster, lambda: router.execute(qd))
            finally:
                proxy.close()
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
            got, _ = expect(tag, cluster, lambda: cluster.execute(qd), {0})
            if corrupted_gid not in got.chunk_errors:
                failures.append(
                    (tag, f"corrupted chunk {corrupted_gid} missing from "
                          f"chunk_errors {sorted(got.chunk_errors)}")
                )
    return n_scenarios, failures


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _render(findings: Sequence[Tuple[str, object]], fmt: str, mode: str, n: int) -> str:
    """``(label, finding)`` pairs -- a verifier or comm :class:`Diagnostic`,
    or an execution check's message -- in *fmt*."""
    import json

    if fmt == "json":
        return json.dumps(
            {
                "tool": "repro.analysis.corpus",
                "mode": mode,
                "summary": {"plans": n, "findings": len(findings)},
                "findings": [
                    {"plan": label,
                     **(f.to_dict() if isinstance(f, Diagnostic) else {"message": f})}
                    for label, f in findings
                ],
            },
            indent=2,
        )
    if fmt == "github":
        return "\n".join(
            Diagnostic(f.code, f.severity, f"{label} / {f.location}",
                       f.message).format_github()
            if isinstance(f, Diagnostic)
            else f"::error title=repro.analysis.corpus::{label}: {f}"
            for label, f in findings
        )
    return "\n".join(f"{label}: {f}" for label, f in findings)


class _Mode(NamedTuple):
    #: the selecting flag; ``None`` for the default mode
    flag: Optional[str]
    #: the report's ``mode`` field
    name: str
    #: the only other flags the mode accepts
    modifiers: Tuple[str, ...]
    #: ``argv -> (n, findings)``
    run: Callable[[Sequence[str]], Tuple[int, list]]
    #: what ``n`` counts
    unit: str
    #: the summary of a clean run
    proved: str


_MODES = (
    _Mode(None, "verify", ("--no-emulators",),
          lambda argv: verify_corpus(include_emulators="--no-emulators" not in argv),
          "plans", "verified, zero diagnostics"),
    _Mode("--comm", "comm", ("--no-emulators",),
          lambda argv: verify_corpus(
              check_plan_comm, include_emulators="--no-emulators" not in argv
          ),
          "plans", "model-checked (deadlock-free, matched send/recv "
                   "multisets, complete combines, recovery-safe keys), "
                   "zero diagnostics"),
    _Mode("--functional", "functional", (),
          lambda argv: verify_functional_corpus(),
          "plans", "executed on both backends, all matched the serial oracle"),
    _Mode("--faults", "faults", ("--prefetch",),
          lambda argv: verify_fault_corpus(prefetch="--prefetch" in argv),
          "fault scenarios", "replayed, all degraded/recovered results "
                             "matched ground truth"),
    _Mode("--service", "service", (),
          lambda argv: verify_service_corpus(),
          "queries", "executed through the concurrent query service with "
                     "scan sharing, all bit-identical to isolated execution"),
    _Mode("--shards", "shards", (),
          lambda argv: verify_shard_corpus(),
          "plans", "executed through the sharded scatter/gather deployment, "
                   "all bit-identical to the in-process merge and "
                   "numerically identical to a single ADR"),
    _Mode("--chaos", "chaos", (),
          lambda argv: verify_chaos_corpus(),
          "chaos scenarios", "replayed deterministically; every degraded "
                             "result matched its in-process expectation "
                             "inside the deadline budget"),
)

_USAGE = (
    "usage: python -m repro.analysis.corpus "
    "[--no-emulators] [--comm] [--functional] [--faults [--prefetch]] "
    "[--service] [--shards] [--chaos] "
    "[--format text|json|github] [--out FILE]"
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one mode.  The report goes to ``--out`` (then a one-line
    summary to stdout) or to stdout, where ``--format json`` prints
    exactly one JSON document.  Exit 1 on any finding, 2 on bad usage --
    including a flag the chosen mode would ignore."""
    from repro.analysis.lint import _parse_output_args, _write_report

    argv = list(sys.argv[1:] if argv is None else argv)
    fmt, out_path, err = _parse_output_args(argv, _USAGE)
    mode = next((m for m in _MODES if m.flag in argv), _MODES[0])
    if err is None:
        known = {m.flag for m in _MODES} | {f for m in _MODES for f in m.modifiers}
        unknown = [a for a in argv if a not in known]
        idle = [a for a in argv
                if a in known and a != mode.flag and a not in mode.modifiers]
        if unknown:
            err = f"unknown argument(s): {' '.join(unknown)}\n{_USAGE}"
        elif idle:
            err = (f"{' '.join(idle)} cannot be combined with "
                   f"{mode.flag or 'the default mode'}\n{_USAGE}")
    if err is not None:
        print(f"repro.analysis.corpus: {err}", file=sys.stderr)
        return 2

    n, findings = mode.run(argv)
    _write_report(_render(findings, fmt, mode.name, n), out_path)
    if out_path is not None or fmt == "text":
        print(
            f"repro.analysis.corpus: {len(findings)} finding(s) over {n} {mode.unit}"
            if findings
            else f"repro.analysis.corpus: {n} {mode.unit} {mode.proved}"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
