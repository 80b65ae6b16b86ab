"""Static plan invariant verifier.

Proves, without executing anything, that a :class:`QueryPlan` upholds
every contract the executors and the paper's strategy descriptions
(Figures 4-6) rely on.  Each violated invariant becomes a
:class:`~repro.analysis.diagnostics.Diagnostic` with a stable
``ADR1xx`` code; an empty report means the plan is structurally sound.

Two groups of checks:

**Structural** (every plan, including hybrids):

========  ==========================================================
ADR101    tile ids outside ``[0, n_tiles)``
ADR102    empty problem with a nonzero tile count
ADR103    holder processor ids outside ``[0, n_procs)``
ADR104    duplicate holders for an output chunk
ADR105    owner of an output chunk missing from its holder list
ADR106    edge processors outside ``[0, n_procs)``
ADR107    aggregation edge assigned to a processor that holds no
          accumulator for its output chunk
ADR108    a (tile, processor) accumulator working set exceeds the
          memory budget (multi-chunk tiles only; a single chunk that
          alone exceeds memory is the pseudo-code's degenerate case)
ADR109    ghost-transfer list incomplete or inflated: every non-owner
          holder must ship its accumulator chunk to the owner exactly
          once, and nothing else may be shipped
ADR110    (warning) a tile in ``[0, n_tiles)`` contains no output
          chunk -- legal but wasteful round
========  ==========================================================

**Strategy contracts** (only when ``plan.strategy`` names a paper
strategy; hybrid plans are exempt by design):

========  ==========================================================
ADR120    FRA must replicate every accumulator chunk on every
          processor (Figure 4, step 10)
ADR121    SRA holders must equal ``So ∪ {owner}`` (Figure 5, step 5,
          plus the owner deviation documented in ``strategies.py``)
ADR122    DA must allocate no ghosts: holders == {owner} (Figure 6)
ADR123    local-reduction placement: FRA/SRA aggregate each edge on
          the input chunk owner's processor; DA on the output owner
========  ==========================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector
from repro.planner.select import FIXED_STRATEGIES, FRA, SRA

if TYPE_CHECKING:  # avoid a hard import cycle with repro.planner
    from repro.planner.plan import QueryPlan

__all__ = ["verify_plan", "VERIFIER_CODES"]

#: Codes this pass can emit (documented above; tests iterate this).
VERIFIER_CODES = (
    "ADR101", "ADR102", "ADR103", "ADR104", "ADR105",
    "ADR106", "ADR107", "ADR108", "ADR109", "ADR110",
    "ADR120", "ADR121", "ADR122", "ADR123",
)

#: Cap identical findings per code; corrupt plans violate invariants
#: wholesale and an unbounded report helps nobody.
_LIMIT_PER_CODE = 20


def _holder_flat(plan: "QueryPlan"):
    """(flat_out, flat_proc) parallel arrays over all holder entries."""
    counts = np.diff(plan.holders_indptr)
    flat_out = np.repeat(
        np.arange(plan.problem.n_out, dtype=np.int64), counts
    )
    return flat_out, plan.holders_ids


def _check_tiles(plan: "QueryPlan", out: DiagnosticCollector) -> None:
    n_out = plan.problem.n_out
    if n_out == 0:
        if plan.n_tiles != 0:
            out.error(
                "ADR102",
                "plan",
                f"empty problem must have zero tiles, got {plan.n_tiles}",
            )
        return
    bad = np.flatnonzero(
        (plan.tile_of_output < 0) | (plan.tile_of_output >= plan.n_tiles)
    )
    for o in bad:
        out.error(
            "ADR101",
            f"output chunk {int(o)}",
            f"tile ids must lie in [0, {plan.n_tiles}), "
            f"got {int(plan.tile_of_output[o])}",
        )
    if len(bad):
        return  # occupancy below is meaningless with out-of-range tiles
    occupancy = np.bincount(plan.tile_of_output, minlength=plan.n_tiles)
    for t in np.flatnonzero(occupancy == 0):
        out.warning(
            "ADR110",
            f"tile {int(t)}",
            "tile contains no output chunk (wasted processing round)",
        )


def _check_holders(plan: "QueryPlan", out: DiagnosticCollector) -> None:
    p = plan.problem
    ids = plan.holders_ids
    if len(ids) and (ids.min() < 0 or ids.max() >= p.n_procs):
        out.error(
            "ADR103",
            "plan",
            "holder ids outside the processor range "
            f"[0, {p.n_procs}): min {int(ids.min())}, max {int(ids.max())}",
        )
    for o in range(p.n_out):
        holders = plan.holders_of(o)
        if len(np.unique(holders)) != len(holders):
            out.error(
                "ADR104",
                f"output chunk {o}",
                f"duplicate holders for output chunk {o}: {holders.tolist()}",
            )
        owner = int(p.output_owner[o])
        if owner not in holders:
            out.error(
                "ADR105",
                f"output chunk {o}",
                f"owner {owner} of output chunk {o} is not a holder "
                f"(holders: {holders.tolist()})",
            )


def _check_edges(plan: "QueryPlan", out: DiagnosticCollector) -> None:
    p = plan.problem
    edge_in, edge_out = plan.edge_arrays
    if not len(edge_in):
        return
    if plan.edge_proc.min() < 0 or plan.edge_proc.max() >= p.n_procs:
        out.error(
            "ADR106",
            "plan",
            "edge processors outside the processor range "
            f"[0, {p.n_procs})",
        )
        return
    flat_out, flat_proc = _holder_flat(plan)
    holder_keys = set(zip(flat_out.tolist(), flat_proc.tolist()))
    for e, (o, q) in enumerate(zip(edge_out.tolist(), plan.edge_proc.tolist())):
        if (o, q) not in holder_keys:
            out.error(
                "ADR107",
                f"edge {e}",
                f"edge for output chunk {o} assigned to processor {q}, "
                "which holds no accumulator for it",
            )


def _check_memory(plan: "QueryPlan", out: DiagnosticCollector) -> None:
    p = plan.problem
    flat_out, flat_proc = _holder_flat(plan)
    if not len(flat_out):
        return
    flat_tile = plan.tile_of_output[flat_out]
    if flat_tile.min() < 0 or flat_tile.max() >= plan.n_tiles:
        return  # ADR101 already reported; keys below would be bogus
    if flat_proc.min() < 0 or flat_proc.max() >= p.n_procs:
        return  # ADR103 already reported
    key = flat_tile * p.n_procs + flat_proc
    usage = np.bincount(key, weights=p.acc_nbytes[flat_out].astype(float))
    nchunks = np.bincount(key)
    budget = np.tile(p.memory_per_proc.astype(float), plan.n_tiles)[: len(usage)]
    over = (usage > budget) & (nchunks > 1)
    for k in np.flatnonzero(over):
        t, q = int(k) // p.n_procs, int(k) % p.n_procs
        out.error(
            "ADR108",
            f"tile {t} / processor {q}",
            f"tile {t} overflows processor {q}: {usage[k]:.0f} bytes of "
            f"accumulator vs budget {budget[k]:.0f}",
        )


def _check_ghost_transfers(plan: "QueryPlan", out: DiagnosticCollector) -> None:
    """Every non-owner holder ships to the owner exactly once (ADR109).

    ``ghost_transfers`` is derived from the holder lists, so a freshly
    built plan is consistent by construction -- this check guards the
    *materialized* table, which survives pickling/plan caches and is
    what the engine's global-combine phase actually walks.
    """
    p = plan.problem
    flat_out, flat_proc = _holder_flat(plan)
    owner = p.output_owner[flat_out].astype(np.int64)
    ghost = flat_proc != owner
    expected = {}
    for o, src, dst, t in zip(
        flat_out[ghost].tolist(),
        flat_proc[ghost].tolist(),
        owner[ghost].tolist(),
        plan.tile_of_output[flat_out[ghost]].tolist(),
    ):
        expected[(t, o, src, dst)] = expected.get((t, o, src, dst), 0) + 1
    gt = plan.ghost_transfers
    actual = {}
    for t, o, src, dst in zip(
        gt.tile.tolist(), gt.chunk.tolist(), gt.src.tolist(), gt.dst.tolist()
    ):
        actual[(t, o, src, dst)] = actual.get((t, o, src, dst), 0) + 1
    for key in sorted(set(expected) | set(actual)):
        t, o, src, dst = key
        want, got = expected.get(key, 0), actual.get(key, 0)
        if want == got:
            continue
        if got < want:
            msg = (
                f"ghost accumulator of output chunk {o} held by processor "
                f"{src} is never shipped to owner {dst} in tile {t}"
                if got == 0
                else f"ghost transfer {key} listed {got} times, expected {want}"
            )
        else:
            msg = (
                f"ghost transfer of output chunk {o} from {src} to {dst} in "
                f"tile {t} appears {got} times "
                + ("but no such ghost is held" if want == 0 else f"(expected {want})")
            )
        out.error("ADR109", f"output chunk {o}", msg)


def _check_strategy_contracts(plan: "QueryPlan", out: DiagnosticCollector) -> None:
    p = plan.problem
    strategy = plan.strategy.upper()
    if strategy not in FIXED_STRATEGIES:
        return

    all_procs = np.arange(p.n_procs, dtype=np.int64)
    if strategy == SRA:
        so_indptr, so_ids = p.so_csr
    for o in range(p.n_out):
        holders = np.sort(plan.holders_of(o))
        owner = int(p.output_owner[o])
        if strategy == FRA:
            if len(holders) != p.n_procs or not np.array_equal(holders, all_procs):
                out.error(
                    "ADR120",
                    f"output chunk {o}",
                    "FRA must replicate the accumulator chunk on every "
                    f"processor; output chunk {o} is held only by "
                    f"{holders.tolist()}",
                )
        elif strategy == SRA:
            so = so_ids[so_indptr[o] : so_indptr[o + 1]]
            want = np.unique(np.append(so, owner))
            if not np.array_equal(holders, want):
                out.error(
                    "ADR121",
                    f"output chunk {o}",
                    f"SRA holders must equal So ∪ {{owner}} = {want.tolist()}; "
                    f"output chunk {o} is held by {holders.tolist()}",
                )
        else:  # DA
            if len(holders) != 1 or int(holders[0]) != owner:
                out.error(
                    "ADR122",
                    f"output chunk {o}",
                    "DA allocates no ghosts: the only holder must be the "
                    f"owner {owner}; output chunk {o} is held by "
                    f"{holders.tolist()}",
                )

    edge_in, edge_out = plan.edge_arrays
    if len(edge_in):
        if strategy in (FRA, SRA):
            want = p.input_owner[edge_in].astype(np.int64)
            side = "input chunk owner"
        else:
            want = p.output_owner[edge_out].astype(np.int64)
            side = "output chunk owner"
        for e in np.flatnonzero(plan.edge_proc != want):
            out.error(
                "ADR123",
                f"edge {int(e)}",
                f"{strategy} aggregates every edge on the {side}; edge "
                f"{int(e)} (input {int(edge_in[e])} -> output "
                f"{int(edge_out[e])}) is assigned to processor "
                f"{int(plan.edge_proc[e])} instead of {int(want[e])}",
            )


def verify_plan(
    plan: "QueryPlan", *, strategy_contracts: bool = True
) -> List[Diagnostic]:
    """Statically verify *plan*; return all violated invariants.

    Parameters
    ----------
    plan:
        Any :class:`~repro.planner.plan.QueryPlan`.
    strategy_contracts:
        When True (default) and ``plan.strategy`` names a paper
        strategy, additionally prove the Figure 4-6 placement
        contracts (ADR12x).  Structural checks (ADR10x/ADR110) always
        run.

    Returns an empty list for a sound plan; diagnostics are ordered by
    check, capped per code, and never raise -- callers decide policy
    (``validate_plan`` raises on any ERROR).
    """
    out = DiagnosticCollector(limit_per_code=_LIMIT_PER_CODE)
    _check_tiles(plan, out)
    _check_holders(plan, out)
    _check_edges(plan, out)
    _check_memory(plan, out)
    _check_ghost_transfers(plan, out)
    if strategy_contracts:
        _check_strategy_contracts(plan, out)
    return out.diagnostics
