"""``strategy='auto'`` prices every candidate in one stacked pass over
the plans' load grids.  The per-plan pricing it replaced -- the simple
and per-tile estimates and the busiest-processor features, each built
from the plan's own traffic tables -- lives on here as the oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunkset import ChunkSet
from repro.machine.config import MachineConfig
from repro.planner.calibrate import CONSTANTS, PHASE_TERMS, CalibratedCostModel
from repro.planner.costmodel import CostEstimate, CostModel
from repro.planner.hybrid import plan_hybrid
from repro.planner.select import ALL_STRATEGIES, HYBRID, choose_strategy
from repro.planner.stats import load_grids, plan_stats
from repro.planner.strategies import plan_query
from repro.planner.telemetry import CANONICAL_PHASES, FEATURES, plan_features
from repro.util.arrays import tally
from repro.util.units import MB

from helpers import SMALL_COSTS, make_problem

RTOL = 1e-12
MACHINE = MachineConfig(n_procs=8, memory_per_proc=MB, disks_per_node=2, cpu_per_byte=2e-9)


# -- the per-plan oracle ---------------------------------------------------


def oracle_stats(plan):
    """Per-processor totals from the plan's own traffic tables."""
    p = plan.problem
    P = p.n_procs
    g = plan.ghost_transfers
    read_count = np.bincount(plan.reads.proc, minlength=P).astype(np.int64)
    read_bytes = tally(plan.reads.proc, p.inputs.nbytes[plan.reads.chunk], P)
    if p.init_from_output:
        read_bytes += p.write_bytes_per_proc
        read_count += p.output_chunks_per_proc
    sent, recv = plan.comm_bytes_per_proc()
    return {
        "init_chunks": np.bincount(plan.holders_ids, minlength=P).astype(np.int64),
        "reduction_pairs": np.bincount(plan.edge_proc, minlength=P).astype(np.int64),
        "combine_ops": np.bincount(g.dst, minlength=P).astype(np.int64),
        "output_chunks": p.output_chunks_per_proc,
        "write_bytes": p.write_bytes_per_proc,
        "read_count": read_count,
        "read_bytes": read_bytes,
        "sent_bytes": sent,
        "recv_bytes": recv,
    }


def oracle_simple(model, plan):
    m, c, p = model.machine, model.costs, plan.problem
    P = p.n_procs
    stats = oracle_stats(plan)
    t_init = c.init * stats["init_chunks"].max(initial=0)
    if p.init_from_output:
        it = plan.init_transfers
        recv = tally(it.dst, p.outputs.nbytes[it.chunk], P)
        t_init += float(recv.max(initial=0)) / m.link_bandwidth
        t_init += (
            stats["output_chunks"].max(initial=0) * m.disk_seek
            + float(stats["write_bytes"].max()) / m.disk_bandwidth
        )
    io = stats["read_count"] * m.disk_seek + stats["read_bytes"] / m.disk_bandwidth
    if p.init_from_output:
        io = io - (
            stats["output_chunks"] * m.disk_seek
            + stats["write_bytes"] / m.disk_bandwidth
        )
    it = plan.input_transfers
    sent = tally(it.src, p.inputs.nbytes[it.chunk], P)
    recv = tally(it.dst, p.inputs.nbytes[it.chunk], P)
    cpu = c.reduction * stats["reduction_pairs"] + (sent + recv) * m.cpu_per_byte
    net = np.maximum(sent, recv) / m.link_bandwidth
    t_lr = float(np.maximum(np.maximum(io, cpu), net).max(initial=0))
    gt = plan.ghost_transfers
    g_sent = tally(gt.src, p.acc_nbytes[gt.chunk], P)
    g_recv = tally(gt.dst, p.acc_nbytes[gt.chunk], P)
    t_gc = float(
        np.maximum(
            np.maximum(g_sent, g_recv) / m.link_bandwidth,
            c.combine * stats["combine_ops"] + (g_sent + g_recv) * m.cpu_per_byte,
        ).max(initial=0)
    )
    oc = stats["output_chunks"]
    t_oh = float(
        (c.output * oc + oc * m.disk_seek + stats["write_bytes"] / m.disk_bandwidth).max(
            initial=0
        )
    )
    return CostEstimate(plan.strategy, t_init, t_lr, t_gc, t_oh)


def oracle_per_tile(model, plan):
    m, c, p = model.machine, model.costs, plan.problem
    P = p.n_procs
    T = max(plan.n_tiles, 1)

    def grid(tile, proc, weights=None):
        flat = np.bincount(tile * P + proc, weights=weights, minlength=T * P)
        return flat.astype(float).reshape(T, P)

    counts = np.diff(plan.holders_indptr)
    flat_out = np.repeat(np.arange(p.n_out, dtype=np.int64), counts)
    alloc = grid(plan.tile_of_output[flat_out], plan.holders_ids)
    t_init = float((c.init * alloc).max(axis=1).sum())
    r = plan.reads
    io = grid(r.tile, r.proc) * m.disk_seek + grid(
        r.tile, r.proc, p.inputs.nbytes[r.chunk]
    ) / (m.disk_bandwidth * m.disks_per_node)
    pairs = grid(plan.edge_tile, plan.edge_proc)
    it = plan.input_transfers
    sent = grid(it.tile, it.src, p.inputs.nbytes[it.chunk])
    recv = grid(it.tile, it.dst, p.inputs.nbytes[it.chunk])
    cpu = c.reduction * pairs + (sent + recv) * m.cpu_per_byte
    net = np.maximum(sent, recv) / m.link_bandwidth
    t_lr = float(np.maximum(np.maximum(io, cpu), net).max(axis=1).sum())
    g = plan.ghost_transfers
    g_sent = grid(g.tile, g.src, p.acc_nbytes[g.chunk])
    g_recv = grid(g.tile, g.dst, p.acc_nbytes[g.chunk])
    gc_cpu = c.combine * grid(g.tile, g.dst) + (g_sent + g_recv) * m.cpu_per_byte
    t_gc = float(
        np.maximum(np.maximum(g_sent, g_recv) / m.link_bandwidth, gc_cpu).max(axis=1).sum()
    )
    owner = p.output_owner.astype(np.int64)
    outs = grid(plan.tile_of_output, owner)
    writes = grid(plan.tile_of_output, owner, p.outputs.nbytes)
    t_oh = float(
        (c.output * outs + outs * m.disk_seek + writes / (m.disk_bandwidth * m.disks_per_node))
        .max(axis=1)
        .sum()
    )
    if p.init_from_output:
        extra = oracle_simple(model, plan).init - float((c.init * alloc).max(axis=1).sum())
        t_init += max(extra, 0.0)
    return CostEstimate(plan.strategy, t_init, t_lr, t_gc, t_oh)


def oracle_features(plan):
    p = plan.problem
    P = p.n_procs
    stats = oracle_stats(plan)
    it = plan.input_transfers
    lr_messages = np.bincount(it.src, minlength=P) + np.bincount(it.dst, minlength=P)
    gt = plan.ghost_transfers
    gc_messages = np.bincount(gt.src, minlength=P) + np.bincount(gt.dst, minlength=P)
    rows = {
        "init_chunks": stats["init_chunks"],
        "reduction_pairs": stats["reduction_pairs"],
        "read_count": stats["read_count"],
        "read_bytes": stats["read_bytes"],
        "lr_messages": lr_messages,
        "combine_ops": stats["combine_ops"],
        "gc_messages": gc_messages,
        "output_chunks": stats["output_chunks"],
        "write_bytes": stats["write_bytes"],
    }
    return {name: float(rows[name].max(initial=0)) for name in FEATURES}


def oracle_calibrated(model, plan):
    features = oracle_features(plan)
    costs = [
        sum(model.constants[k] * features[f] for k, f in PHASE_TERMS[phase])
        for phase in CANONICAL_PHASES
    ]
    return CostEstimate(plan.strategy, *costs)


# -- problems ---------------------------------------------------------------


def build(seed: int, init_from_output: bool):
    """A random problem with uneven chunk sizes and per-processor
    budgets from one accumulator per tile to all in one."""
    rng = np.random.default_rng(seed)
    n_procs = int(rng.integers(1, 6))
    n_in, n_out = int(rng.integers(1, 50)), int(rng.integers(1, 14))
    base = make_problem(
        rng, n_procs=n_procs, n_in=n_in, n_out=n_out, fan_out=int(rng.integers(1, 4))
    )

    def resized(cs, n):
        return ChunkSet(cs.los, cs.his, rng.integers(1_000, 100_000, n), None, cs.node, cs.disk)

    changes = dict(
        inputs=resized(base.inputs, n_in),
        outputs=resized(base.outputs, n_out),
        acc_nbytes=rng.integers(1_000, 150_000, n_out),
        memory_per_proc=rng.integers(40_000, 1_500_000, n_procs),
        init_from_output=init_from_output,
    )
    return dataclasses.replace(base, **changes)


MODELS = {
    "simple": CostModel(MACHINE, SMALL_COSTS),
    "per_tile": CostModel(MACHINE, SMALL_COSTS, per_tile=True),
    "calibrated": CalibratedCostModel(
        constants=dict(zip(CONSTANTS, (2e-3, 7e-3, 3e-3, 1e-3, 1.3e-7, 4e-4)))
    ),
}
ORACLES = {
    "simple": oracle_simple,
    "per_tile": oracle_per_tile,
    "calibrated": oracle_calibrated,
}


def candidates(problem, model):
    return [
        plan_hybrid(problem, getattr(model, "machine", None), getattr(model, "costs", None))
        if name == HYBRID
        else plan_query(problem, name)
        for name in ALL_STRATEGIES
    ]


def assert_close(got: CostEstimate, want: CostEstimate):
    assert got.strategy == want.strategy
    for phase in CANONICAL_PHASES:
        assert getattr(got, phase) == pytest.approx(getattr(want, phase), rel=RTOL, abs=0), phase


def assert_same_order(totals, want_totals):
    """Same ranking as the oracle's, except among candidates the oracle
    itself cannot tell apart to RTOL."""
    names = sorted(want_totals, key=want_totals.get)
    for a, b in zip(names, names[1:]):
        if want_totals[b] - want_totals[a] > RTOL * abs(want_totals[b]):
            assert totals[a] < totals[b], (a, b)


# -- the properties -----------------------------------------------------------


@given(
    seed=st.integers(0, 2**31),
    model=st.sampled_from(sorted(MODELS)),
    init_from_output=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_stacked_pass_equals_the_per_plan_oracle(seed, model, init_from_output):
    problem = build(seed, init_from_output)
    cost_model, oracle = MODELS[model], ORACLES[model]
    choice = choose_strategy(problem, cost_model)

    fresh = build(seed, init_from_output)
    want = {}
    for plan in candidates(fresh, cost_model):
        want[plan.strategy] = oracle(cost_model, plan)
        assert_close(choice.estimates[plan.strategy], want[plan.strategy])
        assert cost_model.estimate(plan) == choice.estimates[plan.strategy]  # one-plan case
        got_features = plan_features(plan)
        assert list(got_features) == list(FEATURES)
        for name, value in oracle_features(plan).items():
            assert got_features[name] == pytest.approx(value, rel=RTOL, abs=0), name

    want_totals = {name: est.total for name, est in want.items()}
    totals = {name: est.total for name, est in choice.estimates.items()}
    assert_same_order(totals, want_totals)
    best = min(want_totals, key=want_totals.get)
    if choice.selected != best:  # only a tie the oracle cannot resolve
        assert want_totals[choice.selected] == pytest.approx(want_totals[best], rel=RTOL)


@given(seed=st.integers(0, 2**31), init_from_output=st.booleans())
@settings(max_examples=60, deadline=None)
def test_plan_stats_equals_the_traffic_tables(seed, init_from_output):
    """The whole-query totals are exactly what the plan's own tables add
    up to, dtype included."""
    problem = build(seed, init_from_output=init_from_output)
    for plan in candidates(problem, MODELS["simple"]):
        stats = plan_stats(plan)
        for name, want in oracle_stats(plan).items():
            got = getattr(stats, name)
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), name


def test_several_tiles_are_covered():
    """The budgets in ``build`` do force multi-tile plans, of different
    tile counts among the candidates of one problem."""
    counts = set()
    for seed in range(40):
        problem = build(seed, init_from_output=False)
        tiles = [plan.n_tiles for plan in candidates(problem, MODELS["simple"])]
        if max(tiles) > 1 and len(set(tiles)) > 1:
            counts.add(seed)
    assert len(counts) >= 5


def test_padding_tiles_change_no_bit():
    """A candidate priced beside others with more tiles costs exactly
    what it costs alone."""
    for seed in range(40):
        problem = build(seed, init_from_output=False)
        plans = candidates(problem, MODELS["per_tile"])
        if len({plan.n_tiles for plan in plans}) < 2:
            continue
        for model in MODELS.values():
            together = model.estimate_many(plans)
            assert together == [model.estimate(plan) for plan in plans]
        return
    pytest.fail("no problem with candidates of different tile counts")


def test_grids_need_one_problem():
    a = build(1, init_from_output=False)
    b = build(1, init_from_output=False)
    with pytest.raises(ValueError, match="share one problem"):
        load_grids([plan_query(a, "FRA"), plan_query(b, "FRA")])
