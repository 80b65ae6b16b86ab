"""Static communication-protocol checker (``ADR6xx``).

The multiprocess backend is only correct because the message schedule
every rank derives from the shared plan is *the same program*: each
send has exactly one receiver expecting exactly that key, receives are
consumed in an order some global schedule can serve, ghost merges
cover every non-owner holder exactly once, and no two messages to one
rank share a key, since the transport stash holds one payload per key.
Those properties were previously enforced only dynamically
(an execution either hangs, crashes an assert, or produces the wrong
sum).  This pass proves them statically, per plan, from the
:class:`~repro.runtime.phases.MessageFlow` view of
``plan.schedule()``:

========  ==========================================================
ADR600    malformed message flow: unknown op, rank/tile/peer out of
          range, missing rank program -- the flow cannot be analyzed
          (further checks are skipped)
ADR601    send/receive mismatch: a sent message no rank expects, an
          expected message no rank sends, repeated delivery under one
          key, sender/receiver disagreement, a self-send, or a
          forwarded-segment fan-out that disagrees with the plan's
          edge assignment (the reader and the recipients must derive
          the same recipient set from the plan, or one side blocks)
ADR602    deadlock: no global execution order serves every blocking
          receive -- there is a cycle of ranks each waiting on a
          message a later point of another waiting rank would send
          (checked by topologically sorting program-order and
          send-to-receive edges; the witness cycle is reported)
ADR603    combine incompleteness: the ghost merges an owner receives
          for an output chunk are not exactly its non-owner holders
          once each, a ghost ships to a non-owner, or a ghost message
          departs from the plan's transfer table -- the FRA/SRA
          global combine would drop or double-count partial sums
ADR604    ambiguous traffic: two messages share one
          ``(kind, tile, index)`` inbox key to the same destination
          (the stash holds one payload per key, so one would be
          overwritten), or an output chunk is emitted more than once,
          by a non-owner, in the wrong tile, or never -- the parent
          keys results by output chunk id, which is only sound if the
          query emits each chunk exactly once
========  ==========================================================

Run it over the CI corpus with ``python -m repro.analysis.corpus
--comm``.  See ``docs/static_analysis.md`` for the full catalog.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector
from repro.runtime.phases import MESSAGE_OPS, MessageFlow

__all__ = ["COMM_CODES", "check_message_flow", "check_plan_comm"]

COMM_CODES = ("ADR600", "ADR601", "ADR602", "ADR603", "ADR604")

#: Findings per code before the collector truncates to a summary NOTE.
_LIMIT_PER_CODE = 20

_SENDS = ("send_seg", "send_ghost")
_RECVS = ("recv_seg", "recv_ghost")


def _check_structure(flow: MessageFlow, out: DiagnosticCollector) -> bool:
    """ADR600: is the flow well-formed enough to analyze at all?"""
    ok = True
    if set(flow.events) != set(range(flow.n_procs)):
        out.error(
            "ADR600",
            "message flow",
            f"flow has programs for ranks {sorted(flow.events)} but the "
            f"plan has {flow.n_procs} processors",
        )
        ok = False
    for p, evs in sorted(flow.events.items()):
        for k, (op, tile, index, peer) in enumerate(evs):
            loc = f"rank {p} / event {k}"
            if op not in MESSAGE_OPS:
                out.error("ADR600", loc, f"unknown transport op {op!r}")
                ok = False
            elif not 0 <= int(tile) < max(flow.n_tiles, 1):
                out.error(
                    "ADR600", loc,
                    f"{op} in tile {tile} but the plan has {flow.n_tiles} tiles",
                )
                ok = False
            elif op == "emit" and peer != -1:
                out.error(
                    "ADR600", loc,
                    f"emit carries peer {peer}; results go to the parent "
                    "queue, not a rank",
                )
                ok = False
            elif op != "emit" and not 0 <= int(peer) < flow.n_procs:
                out.error(
                    "ADR600", loc,
                    f"{op} names peer rank {peer} outside 0..{flow.n_procs - 1}",
                )
                ok = False
            elif int(index) < 0:
                out.error("ADR600", loc, f"{op} has negative schedule index {index}")
                ok = False
    return ok


def _match_sends_recvs(
    flow: MessageFlow, out: DiagnosticCollector
) -> Tuple[bool, bool]:
    """ADR601 multiset matching + the ADR604 duplicate-key check.

    Returns ``(matched, unique)``: whether every send pairs with
    exactly one receive (and vice versa), and whether message keys are
    unique per destination -- the preconditions for the deadlock scan.
    """
    # (kind, tile, index, dst) -> list of sender ranks / expected ranks
    sends: Dict[tuple, List[int]] = defaultdict(list)
    recvs: Dict[tuple, List[int]] = defaultdict(list)
    for src, kind, tile, index, dst in flow.sends():
        if src == dst:
            out.error(
                "ADR601",
                f"tile {tile} / {kind} {index}",
                f"rank {src} sends a {kind} message to itself; local "
                "traffic must not enter the transport",
            )
        sends[(kind, tile, index, dst)].append(src)
    for dst, kind, tile, index, src in flow.recvs():
        recvs[(kind, tile, index, dst)].append(src)

    matched = True
    unique = True
    for key in sorted(set(sends) | set(recvs)):
        kind, tile, index, dst = key
        loc = f"tile {tile} / {kind} {index}"
        s, r = sends.get(key, []), recvs.get(key, [])
        if len(s) > 1:
            out.error(
                "ADR604", loc,
                f"{len(s)} sends share inbox key {(kind, tile, index)!r} to "
                f"rank {dst}; the stash holds one payload per key, "
                "so a duplicate is silently overwritten",
            )
            unique = False
        if len(r) > 1:
            out.error(
                "ADR604", loc,
                f"rank {dst} expects inbox key {(kind, tile, index)!r} "
                f"{len(r)} times; the second receive blocks forever on a "
                "consumed message",
            )
            unique = False
        if not r:
            out.error(
                "ADR601", loc,
                f"orphan send: rank {s[0]} sends to rank {dst}, which never "
                "expects this message",
            )
            matched = False
        elif not s:
            out.error(
                "ADR601", loc,
                f"orphan receive: rank {dst} expects a message from rank "
                f"{r[0]} that no rank sends -- the receiver blocks until "
                "the inbox timeout declares a dead peer",
            )
            matched = False
        elif s and r and set(s) != set(r):
            out.error(
                "ADR601", loc,
                f"sender disagreement: sent by rank(s) {sorted(set(s))} but "
                f"rank {dst} expects it from rank(s) {sorted(set(r))}",
            )
            matched = False
    return matched, unique


def _check_deadlock(flow: MessageFlow, out: DiagnosticCollector) -> None:
    """ADR602: does a global order serving every receive exist?

    Nodes are the per-rank events; edges are program order within each
    rank plus send -> receive for each matched message key.  The flow
    is deadlock-free iff this graph is acyclic (unbounded sends never
    block, so receives are the only waits); a cycle is a set of ranks
    each blocked on a message a later point of another blocked rank
    would send.  Only called once ADR600/ADR601/ADR604 passed, so the
    send/receive pairing is a bijection.
    """
    node_of_send: Dict[tuple, Tuple[int, int]] = {}
    for p, evs in flow.events.items():
        for k, (op, tile, index, peer) in enumerate(evs):
            if op in _SENDS:
                node_of_send[(op[5:], tile, index, peer)] = (p, k)

    # preds[node] = the nodes that must execute first.
    preds: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
    succs: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
    nodes: List[Tuple[int, int]] = []
    for p, evs in flow.events.items():
        for k, (op, tile, index, peer) in enumerate(evs):
            node = (p, k)
            nodes.append(node)
            if k > 0:
                preds[node].append((p, k - 1))
                succs[(p, k - 1)].append(node)
            if op in _RECVS:
                send = node_of_send[(op[5:], tile, index, p)]
                preds[node].append(send)
                succs[send].append(node)

    indeg = {n: len(preds[n]) for n in nodes}
    ready = deque(sorted(n for n in nodes if indeg[n] == 0))
    done = 0
    while ready:
        n = ready.popleft()
        done += 1
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if done == len(nodes):
        return

    # Extract one witness cycle: from any stuck node, repeatedly step
    # to an unexecuted predecessor until a node repeats.
    stuck = {n for n in nodes if indeg[n] > 0}
    node = min(stuck)
    seen: Dict[Tuple[int, int], int] = {}
    path: List[Tuple[int, int]] = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = next(m for m in preds[node] if m in stuck)
    cycle = path[seen[node]:]
    steps = []
    for p, k in cycle:
        op, tile, index, peer = flow.events[p][k]
        steps.append(f"rank {p} {op}({op[5:] if op != 'emit' else 'out'} "
                     f"{index}, tile {tile}, peer {peer})")
    out.error(
        "ADR602",
        f"rank {cycle[0][0]} / event {cycle[0][1]}",
        "no global schedule serves every receive; wait cycle: "
        + " <- ".join(steps),
    )


def check_message_flow(flow: MessageFlow) -> List[Diagnostic]:
    """Check a :class:`~repro.runtime.phases.MessageFlow` for internal
    consistency: well-formedness (ADR600), send/receive matching
    (ADR601), key uniqueness and single emits (ADR604), and
    deadlock-freedom (ADR602).

    Plan-independent -- it sees only the flow -- so it also accepts
    hand-built flows (the negative tests corrupt flows directly).
    Plan-aware cross-checks (fan-out vs edge assignment, combine
    completeness vs holders, emits vs owners) live in
    :func:`check_plan_comm`.
    """
    out = DiagnosticCollector(limit_per_code=_LIMIT_PER_CODE)
    if not _check_structure(flow, out):
        return out.diagnostics
    matched, unique = _match_sends_recvs(flow, out)

    emits: Dict[int, List[Tuple[int, int]]] = defaultdict(list)  # o -> (rank, tile)
    for p, evs in flow.events.items():
        for op, tile, index, peer in evs:
            if op == "emit":
                emits[index].append((p, tile))
    for o, where in sorted(emits.items()):
        if len(where) > 1:
            out.error(
                "ADR604",
                f"output chunk {o}",
                f"emitted {len(where)} times (by ranks "
                f"{sorted(p for p, _ in where)}); the parent keys results "
                "by output chunk id, so duplicate emits hide lost or "
                "double-computed work",
            )

    if matched and unique:
        _check_deadlock(flow, out)
    return out.diagnostics


def check_plan_comm(plan, flow: Optional[MessageFlow] = None) -> List[Diagnostic]:
    """Model-check *plan*'s communication schedule (``ADR6xx``).

    Derives the per-rank transport program (or takes *flow*, normally
    ``plan.schedule().message_flow()``), checks its internal
    consistency via :func:`check_message_flow`, then cross-checks it
    against ground truth recomputed from the plan tables themselves:
    forwarded-segment fan-out against the edge assignment (ADR601),
    ghost traffic against the transfer table and each owner's
    non-owner holder set (ADR603), and output emission against
    ownership and the output's tile (ADR604).
    """
    problem = plan.problem
    if flow is None:
        flow = plan.schedule().message_flow()
    out = DiagnosticCollector(limit_per_code=_LIMIT_PER_CODE)
    internal = check_message_flow(flow)
    if any(d.code == "ADR600" for d in internal):
        return internal  # not analyzable further
    diagnostics = list(internal)

    # -- forwarded segments vs the plan's edge assignment (ADR601) -----
    seg_sends: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
    for src, kind, tile, index, dst in flow.sends():
        if kind == "seg":
            seg_sends[index].append((tile, src, dst))
    reads = plan.reads
    fwd_indptr, fwd_ids = problem.graph.forward_csr
    for r in range(len(reads)):
        i, t = int(reads.chunk[r]), int(reads.tile[r])
        reader = int(reads.proc[r])
        lo, hi = int(fwd_indptr[i]), int(fwd_indptr[i + 1])
        active = plan.tile_of_output[fwd_ids[lo:hi]] == t
        procs = np.unique(plan.edge_proc[lo:hi][active])
        expected = Counter(int(q) for q in procs if int(q) != reader)
        actual = Counter()
        for tile, src, dst in seg_sends.pop(r, []):
            if tile != t or src != reader:
                out.error(
                    "ADR601",
                    f"tile {tile} / seg {r}",
                    f"segment message for read {r} sent by rank {src} in "
                    f"tile {tile}, but the plan schedules that read on "
                    f"rank {reader} in tile {t}",
                )
                continue
            actual[dst] += 1
        if actual != expected:
            out.error(
                "ADR601",
                f"tile {t} / seg {r}",
                f"forwarded-segment fan-out of read {r} (rank {reader}) is "
                f"{sorted(actual.elements())} but the plan's edge "
                f"assignment requires {sorted(expected.elements())} -- "
                "sender and receivers no longer derive the same recipient "
                "set from the plan",
            )
    for r, where in sorted(seg_sends.items()):
        out.error(
            "ADR601",
            f"tile {where[0][0]} / seg {r}",
            f"segment message keyed to read {r}, which the plan does not "
            "schedule",
        )

    # -- ghost traffic vs transfer table and holders (ADR603) ----------
    gt = plan.ghost_transfers
    ghost_sends: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
    for src, kind, tile, index, dst in flow.sends():
        if kind == "ghost":
            ghost_sends[index].append((tile, src, dst))
    merges: Dict[int, Counter] = defaultdict(Counter)  # output -> src counts
    for g in range(len(gt)):
        o = int(gt.chunk[g])
        t, src, dst = int(gt.tile[g]), int(gt.src[g]), int(gt.dst[g])
        shipped = ghost_sends.pop(g, [])
        if len(shipped) != 1 or shipped[0] != (t, src, dst):
            out.error(
                "ADR603",
                f"tile {t} / ghost {g}",
                f"transfer {g} (output chunk {o}, rank {src} -> {dst}) "
                f"must ship exactly once in tile {t}; the flow ships it "
                f"{[f'tile {a} rank {b}->{c}' for a, b, c in shipped]}",
            )
        for tile, s, d in shipped:
            merges[o][s] += 1
            if d != int(problem.output_owner[o]):
                out.error(
                    "ADR603",
                    f"tile {tile} / ghost {g}",
                    f"ghost of output chunk {o} shipped to rank {d}, which "
                    f"is not its owner (rank {int(problem.output_owner[o])})",
                )
    for g, where in sorted(ghost_sends.items()):
        out.error(
            "ADR603",
            f"tile {where[0][0]} / ghost {g}",
            f"ghost message keyed to transfer {g}, which the plan's "
            "transfer table does not contain",
        )
    for o in range(problem.n_out):
        owner = int(problem.output_owner[o])
        expected = Counter(
            int(p) for p in plan.holders_of(o) if int(p) != owner
        )
        if merges.get(o, Counter()) != expected:
            got = sorted(merges.get(o, Counter()).elements())
            out.error(
                "ADR603",
                f"output chunk {o}",
                f"owner rank {owner} merges ghosts from rank(s) {got} but "
                f"the non-owner holders are {sorted(expected.elements())} "
                "-- the global combine would drop or double-count partial "
                "sums",
            )

    # -- output emission vs ownership (ADR604) -------------------------
    emits: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for p, evs in flow.events.items():
        for op, tile, index, peer in evs:
            if op == "emit":
                emits[index].append((p, tile))
    for o in range(problem.n_out):
        owner = int(problem.output_owner[o])
        t = int(plan.tile_of_output[o])
        where = emits.pop(o, [])
        if where != [(owner, t)]:
            out.error(
                "ADR604",
                f"output chunk {o}",
                f"must be emitted exactly once by its owner rank {owner} "
                f"in tile {t}; the flow emits it "
                f"{[f'rank {p} tile {a}' for p, a in where] or 'never'} -- "
                "result collection keys results by output chunk id and "
                "relies on one emit per chunk",
            )
    for o, where in sorted(emits.items()):
        out.error(
            "ADR604",
            f"output chunk {o}",
            f"emit for output chunk {o}, which the plan does not define",
        )

    diagnostics.extend(out.diagnostics)
    return diagnostics
