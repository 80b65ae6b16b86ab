"""Shared helpers for the test suite (import as `from helpers import ...`)."""

from __future__ import annotations

import numpy as np
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunkset import ChunkSet
from repro.dataset.graph import ChunkGraph
from repro.faults import FaultInjector, FaultPlan, FaultyChunkStore
from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.problem import PlanningProblem
from repro.runtime.engine import BatchReader
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.store.chunk_store import MemoryChunkStore
from repro.util.units import KB, MB


def faulty_reader(chunks, faults: FaultPlan) -> BatchReader:
    """A :class:`BatchReader` over *chunks* (ids their positions) read
    through a :class:`FaultyChunkStore` armed with *faults* over a
    :class:`MemoryChunkStore` -- the store stack ``ADR`` and
    ``ShardCluster`` inject faults through."""
    store = MemoryChunkStore()
    store.write_chunks("d", chunks, [(0, 0)] * len(chunks))
    faulty = FaultyChunkStore(store, FaultInjector(faults))
    return BatchReader(lambda ids: faulty.read_batch("d", ids))


def random_rects(rng: np.random.Generator, n: int, ndim: int, extent: float = 100.0):
    """Packed (los, his) random rectangle arrays."""
    los = rng.uniform(0, extent * 0.9, size=(n, ndim))
    sizes = rng.uniform(0, extent * 0.1, size=(n, ndim))
    return los, los + sizes


def make_chunkset(
    rng: np.random.Generator,
    n: int,
    ndim: int = 2,
    nbytes: int = 100 * KB,
    placed_on: int | None = None,
) -> ChunkSet:
    los, his = random_rects(rng, n, ndim)
    cs = ChunkSet(los, his, np.full(n, nbytes, dtype=np.int64))
    if placed_on is not None:
        node = rng.integers(0, placed_on, size=n).astype(np.int32)
        disk = np.zeros(n, dtype=np.int32)
        cs = cs.with_placement(node, disk)
    return cs


def make_problem(
    rng: np.random.Generator,
    n_procs: int = 4,
    n_in: int = 60,
    n_out: int = 12,
    memory: int = 1 * MB,
    fan_out: int = 2,
    acc_factor: float = 2.0,
) -> PlanningProblem:
    """A small random planning problem with a synthetic chunk graph."""
    inputs = make_chunkset(rng, n_in, 2, nbytes=64 * KB, placed_on=n_procs)
    outputs = make_chunkset(rng, n_out, 2, nbytes=32 * KB, placed_on=n_procs)
    outs_per_in = [
        rng.choice(n_out, size=min(n_out, max(1, int(rng.poisson(fan_out)))), replace=False)
        for _ in range(n_in)
    ]
    graph = ChunkGraph.from_lists(n_in, n_out, outs_per_in)
    return PlanningProblem(
        n_procs=n_procs,
        memory_per_proc=np.int64(memory),
        inputs=inputs,
        outputs=outputs,
        graph=graph,
        acc_nbytes=(outputs.nbytes * acc_factor).astype(np.int64),
    )


def make_functional_setup(
    rng: np.random.Generator,
    n_items: int = 400,
    items_per_chunk: int = 20,
    grid_cells: tuple[int, int] = (12, 12),
    chunk_cells: tuple[int, int] = (3, 3),
    value_components: int = 1,
    footprint: tuple[float, float] | None = None,
):
    """A small real-data workload: chunks + mapping + grid."""
    from repro.dataset.partition import hilbert_partition

    in_space = AttributeSpace.regular("in", ("x", "y"), (0, 0), (10, 10))
    out_space = AttributeSpace.regular("out", ("u", "v"), (0, 0), (1, 1))
    coords = rng.uniform(0, 10, size=(n_items, 2))
    values = rng.integers(1, 100, size=(n_items, value_components)).astype(float)
    chunks = hilbert_partition(coords, values, items_per_chunk)
    grid = OutputGrid(out_space, grid_cells, chunk_cells)
    mapping = GridMapping(in_space, out_space, grid_cells, footprint=footprint)
    return in_space, out_space, chunks, mapping, grid


SMALL_COSTS = ComputeCosts.from_ms(1, 5, 2, 1)


def build_problem(chunks, mapping, grid, spec, n_procs, memory):
    """A geometry-derived planning problem over payload chunks,
    Hilbert-declustered over *n_procs* with *memory* accumulator bytes
    per processor."""
    from repro.decluster.hilbert import HilbertDeclusterer

    inputs = ChunkSet.from_metas([c.meta for c in chunks])
    decl = HilbertDeclusterer()
    inputs = decl.place(inputs, n_procs)
    outputs = decl.place(grid.chunkset(), n_procs)
    graph = ChunkGraph.from_geometry(inputs, outputs, mapping)
    acc = np.asarray(
        [spec.acc_bytes(grid.cells_in_chunk(o)) for o in range(grid.n_chunks)],
        dtype=np.int64,
    )
    return PlanningProblem(
        n_procs=n_procs,
        memory_per_proc=np.int64(memory),
        inputs=inputs,
        outputs=outputs,
        graph=graph,
        acc_nbytes=acc,
    )


def small_machine(n_procs: int = 4, memory: int = 1 * MB) -> MachineConfig:
    return MachineConfig(n_procs=n_procs, memory_per_proc=memory)


def sub_problem(rng, global_ids, n_procs: int = 2, n_out: int = 4):
    """A query-restricted problem referencing dataset chunks by global
    id, with placement/geometry derived deterministically from the id
    (used by batch-planning tests)."""
    import numpy as np
    from repro.dataset.chunkset import ChunkSet
    from repro.dataset.graph import ChunkGraph
    from repro.planner.problem import PlanningProblem
    from repro.util.units import KB, MB

    global_ids = np.asarray(sorted(global_ids), dtype=np.int64)
    n_in = len(global_ids)
    los = np.stack((global_ids.astype(float), np.zeros(n_in)), axis=1)
    inputs = ChunkSet(
        los, los + 0.5,
        np.full(n_in, 64 * KB, dtype=np.int64),
        node=(global_ids % n_procs).astype(np.int32),
        disk=np.zeros(n_in, dtype=np.int32),
    )
    out_los = np.arange(n_out, dtype=float)[:, None] * np.ones(2)
    outputs = ChunkSet(
        out_los, out_los + 0.5,
        np.full(n_out, 16 * KB, dtype=np.int64),
        node=(np.arange(n_out) % n_procs).astype(np.int32),
        disk=np.zeros(n_out, dtype=np.int32),
    )
    edges_in = np.arange(n_in, dtype=np.int64)
    edges_out = (global_ids % n_out).astype(np.int64)
    graph = ChunkGraph(n_in, n_out, edges_in, edges_out)
    return PlanningProblem(
        n_procs=n_procs,
        memory_per_proc=np.int64(8 * MB),
        inputs=inputs,
        outputs=outputs,
        graph=graph,
        input_global_ids=global_ids,
    )
