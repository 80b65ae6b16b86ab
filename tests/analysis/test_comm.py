"""Tests for the static communication-protocol checker (ADR6xx).

The positive half proves every corpus plan's message flow clean; the
negative half applies one seeded mutation per code to a clean flow and
asserts exactly that code fires -- the checker must neither miss the
defect nor cascade into unrelated codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.comm import check_message_flow, check_plan_comm
from repro.analysis.corpus import corpus_problems
from repro.planner.strategies import plan_query
from repro.runtime.phases import MESSAGE_OPS, MessageFlow

from helpers import make_problem


def codes(diags):
    return {d.code for d in diags}


def mutated(flow, fn):
    """A copy of *flow* with *fn* applied to its mutable event dict."""
    events = {p: list(evs) for p, evs in flow.events.items()}
    fn(events)
    return MessageFlow(n_procs=flow.n_procs, n_tiles=flow.n_tiles, events=events)


@pytest.fixture(scope="module")
def corpus_flows():
    """(label, plan, flow) for every synthetic corpus problem/strategy."""
    out = []
    for label, prob in corpus_problems(include_emulators=False):
        for strategy in ("FRA", "SRA", "DA", "HYBRID"):
            plan = plan_query(prob, strategy)
            out.append((f"{label} / {strategy}", plan, plan.schedule().message_flow()))
    return out


class TestCleanPlans:
    def test_corpus_plans_model_check_clean(self, corpus_flows):
        for label, plan, flow in corpus_flows:
            diags = check_plan_comm(plan, flow)
            assert diags == [], f"{label}: " + "; ".join(d.format() for d in diags)

    def test_flow_shape(self, corpus_flows):
        for _label, plan, flow in corpus_flows:
            assert set(flow.events) == set(range(plan.problem.n_procs))
            for evs in flow.events.values():
                for op, _tile, _index, _peer in evs:
                    assert op in MESSAGE_OPS

    def test_sends_recvs_views_agree_with_events(self, corpus_flows):
        _label, _plan, flow = corpus_flows[0]
        n_sends = sum(
            1 for evs in flow.events.values() for e in evs if e[0].startswith("send")
        )
        n_recvs = sum(
            1 for evs in flow.events.values() for e in evs if e[0].startswith("recv")
        )
        assert len(list(flow.sends())) == n_sends
        assert len(list(flow.recvs())) == n_recvs
        for rank, kind, tile, index, peer in flow.sends():
            assert (f"send_{kind}", tile, index, peer) in flow.events[rank]


@given(
    seed=st.integers(0, 2**31),
    strategy=st.sampled_from(["FRA", "SRA", "DA", "HYBRID"]),
)
@settings(max_examples=15, deadline=None)
def test_property_planned_flows_are_clean(seed, strategy):
    """Whatever the planner produces model-checks clean: deadlock-free,
    matched send/recv multisets, complete combines, unique message keys."""
    rng = np.random.default_rng(seed)
    prob = make_problem(
        rng,
        n_procs=int(rng.integers(2, 6)),
        n_in=int(rng.integers(10, 70)),
        n_out=int(rng.integers(2, 14)),
        memory=int(rng.integers(100_000, 1_000_000)),
    )
    plan = plan_query(prob, strategy)
    assert check_plan_comm(plan) == []


class TestSeededMutations:
    """One mutation per code; exactly that code must fire."""

    def _first_plan_with(self, corpus_flows, op):
        for label, plan, flow in corpus_flows:
            if any(e[0] == op for evs in flow.events.values() for e in evs):
                return label, plan, flow
        raise AssertionError(f"no corpus flow carries a {op} event")

    def test_adr600_emit_with_peer(self, corpus_flows):
        _label, plan, flow = corpus_flows[0]

        def corrupt(events):
            for evs in events.values():
                for i, e in enumerate(evs):
                    if e[0] == "emit":
                        evs[i] = (e[0], e[1], e[2], 99)
                        return

        assert codes(check_plan_comm(plan, mutated(flow, corrupt))) == {"ADR600"}

    def test_adr600_tile_out_of_range(self, corpus_flows):
        _label, plan, flow = corpus_flows[0]

        def corrupt(events):
            for evs in events.values():
                if evs:
                    op, _tile, index, peer = evs[0]
                    evs[0] = (op, -5, index, peer)
                    return

        assert codes(check_plan_comm(plan, mutated(flow, corrupt))) == {"ADR600"}

    def test_adr601_dropped_receive(self, corpus_flows):
        _label, plan, flow = self._first_plan_with(corpus_flows, "recv_seg")

        def drop(events):
            for evs in events.values():
                for i, e in enumerate(evs):
                    if e[0] == "recv_seg":
                        del evs[i]
                        return

        assert codes(check_plan_comm(plan, mutated(flow, drop))) == {"ADR601"}

    def test_adr602_reordered_receive_deadlocks(self):
        """Moving one receive ahead of the send its sender transitively
        waits on creates a wait cycle.  (Projections of one global
        schedule are always acyclic, so the mutation must reorder one
        rank's program, not the global order.)"""
        probs = list(corpus_problems(include_emulators=False))
        plan = plan_query(probs[2][1], "HYBRID")
        flow = plan.schedule().message_flow()
        evs0 = list(flow.events[0])
        moved = ("recv_ghost", 0, 2, 3)
        anchor = ("send_seg", 0, 23, 3)
        assert moved in evs0 and anchor in evs0  # seeded plan is deterministic
        evs0.remove(moved)
        evs0.insert(evs0.index(anchor), moved)
        events = {p: list(e) for p, e in flow.events.items()}
        events[0] = evs0
        bad = MessageFlow(n_procs=flow.n_procs, n_tiles=flow.n_tiles, events=events)
        diags = check_plan_comm(plan, bad)
        assert codes(diags) == {"ADR602"}
        assert "wait cycle" in diags[0].message

    def test_adr602_handcrafted_cross_wait(self):
        """Two ranks each receiving before sending what the other
        waits on: the minimal ABBA of message passing."""
        flow = MessageFlow(
            n_procs=2,
            n_tiles=1,
            events={
                0: [("recv_ghost", 0, 0, 1), ("send_ghost", 0, 1, 1)],
                1: [("recv_ghost", 0, 1, 0), ("send_ghost", 0, 0, 0)],
            },
        )
        diags = check_message_flow(flow)
        assert codes(diags) == {"ADR602"}

    def test_adr602_swapped_order_is_clean(self):
        """The same traffic with sends first has a serving schedule."""
        flow = MessageFlow(
            n_procs=2,
            n_tiles=1,
            events={
                0: [("send_ghost", 0, 1, 1), ("recv_ghost", 0, 0, 1)],
                1: [("send_ghost", 0, 0, 0), ("recv_ghost", 0, 1, 0)],
            },
        )
        assert check_message_flow(flow) == []

    def test_adr603_dropped_ghost_transfer(self, corpus_flows):
        _label, plan, flow = self._first_plan_with(corpus_flows, "send_ghost")
        ghost = next(
            e
            for evs in flow.events.values()
            for e in evs
            if e[0] == "send_ghost"
        )

        def drop_pair(events):
            for p, evs in events.items():
                events[p] = [
                    e
                    for e in evs
                    if not (
                        e[0] in ("send_ghost", "recv_ghost")
                        and e[1] == ghost[1]
                        and e[2] == ghost[2]
                    )
                ]

        assert codes(check_plan_comm(plan, mutated(flow, drop_pair))) == {"ADR603"}

    def test_adr604_duplicate_emit(self, corpus_flows):
        _label, plan, flow = corpus_flows[0]

        def dup(events):
            for evs in events.values():
                for e in evs:
                    if e[0] == "emit":
                        evs.append(e)
                        return

        assert codes(check_plan_comm(plan, mutated(flow, dup))) == {"ADR604"}

    def test_adr604_duplicate_message_key(self, corpus_flows):
        _label, plan, flow = self._first_plan_with(corpus_flows, "send_ghost")

        def dup(events):
            for evs in events.values():
                for e in evs:
                    if e[0] == "send_ghost":
                        evs.append(e)
                        return

        diags = check_plan_comm(plan, mutated(flow, dup))
        assert "ADR604" in codes(diags)
