"""Shared fixture of the end-to-end benchmark: data, spaces, op lists.

Everything here is a pure function of ``--seed``: the ``grid2d`` items,
and per workload the list of ops (plain JSON-able dicts, so two runs
can compare op lists by digest).  The program under test only ever
sees the generated inputs, never the seed.

Areas and positions are *stratified*: op ``k`` of ``n`` takes the
``k``-th step of a fixed geometric ladder of areas and one cell of a
lattice of positions, and the seed only jitters the box inside its
cell and shuffles the order.  The p95 therefore reflects the genuinely
larger queries of the ladder, and two seeds draw the same mix of sizes
and cover the domain alike -- which is what lets runs on different
seeds agree.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregation.functions import MeanAggregation, SumAggregation
from repro.aggregation.output_grid import OutputGrid
from repro.dataset.chunk import Chunk
from repro.dataset.partition import hilbert_partition
from repro.frontend.query import RangeQuery
from repro.machine.config import MachineConfig
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.units import MB

DATASET = "grid2d"
TILES = "tiles"
TARGET = "acc"
ITEMS_PER_CHUNK = 250
DOMAIN = 10.0
#: side of the corner of the domain ``update_write`` materialises and
#: updates: one output chunk of the 64x64 grid, and small enough that
#: the updates of one pass touch all of its input chunks, so that what
#: a seed reads and writes does not depend on where its boxes fall
UPDATE_EXTENT = 2.5
#: side of the square around a ``service_shared`` hot spot its boxes fall in
HOT_EXTENT = 2.0
#: where the four hot spots sit, give or take half a unit: apart, so
#: that every seed's bursts touch about as many distinct chunks
HOT_SPOTS = np.array([[2.5, 2.5], [2.5, 7.5], [7.5, 2.5], [7.5, 7.5]])

IN_SPACE = AttributeSpace.regular("in", ("x", "y"), (0, 0), (DOMAIN, DOMAIN))
OUT_SPACE = AttributeSpace.regular("out", ("u", "v"), (0, 0), (1, 1))
MACHINE = MachineConfig(n_procs=4, memory_per_proc=8 * MB)


@dataclass(frozen=True)
class Scale:
    """Problem size: ``FULL`` is what BENCHMARK.json measures, ``TINY``
    is the self-test's (same code paths, seconds instead of minutes)."""

    n_items: int
    #: multiplier on every workload's op count
    ops: float
    #: distinct tile datasets ``update_write`` cycles through
    tile_sets: int
    tile_chunks: int


FULL = Scale(n_items=250_000, ops=1.0, tile_sets=10, tile_chunks=20)
TINY = Scale(n_items=8_000, ops=0.08, tile_sets=2, tile_chunks=4)


@dataclass(frozen=True)
class Items:
    coords: np.ndarray
    values: np.ndarray


def field(xy: np.ndarray) -> np.ndarray:
    """Component 0 without its noise: smooth in position, so a chunk's
    value range is narrow and value synopses can prune."""
    return 50.0 + 40.0 * np.sin(0.6 * xy[:, 0]) * np.cos(0.5 * xy[:, 1])


def make_items(seed: int, scale: Scale) -> Items:
    rng = np.random.default_rng([seed, 0])
    coords = rng.uniform(0.0, DOMAIN, size=(scale.n_items, 2))
    smooth = field(coords) + rng.normal(0.0, 0.5, size=scale.n_items)
    ints = rng.integers(1, 100, size=scale.n_items).astype(float)
    return Items(coords, np.stack([smooth, ints], axis=1))


def partition(items: Items) -> List[Chunk]:
    return hilbert_partition(items.coords, items.values, ITEMS_PER_CHUNK)


def grid_of(cells: int) -> Tuple[OutputGrid, GridMapping]:
    shape = (cells, cells)
    return OutputGrid(OUT_SPACE, shape, (16, 16)), GridMapping(IN_SPACE, OUT_SPACE, shape)


# -- op lists ----------------------------------------------------------


def _boxes(
    rng: np.random.Generator, n: int, area: Tuple[float, float], extent: float
) -> List[Tuple[List[float], List[float]]]:
    """*n* boxes inside ``(0, extent)^2`` whose areas climb a geometric
    ladder between the two *area* shares of the whole domain."""
    areas = np.geomspace(area[0], area[1], n) * DOMAIN * DOMAIN
    aspect = np.geomspace(1 / 3, 3.0, n)[rng.permutation(n)]
    size = np.stack([np.sqrt(areas * aspect), np.sqrt(areas / aspect)], axis=1)
    # One box per cell of a lattice, jittered within it: every seed
    # spreads its boxes over the square about equally, so that how many
    # distinct chunks a pass touches barely depends on the seed.
    side = int(np.ceil(np.sqrt(n)))
    cells = rng.permutation(side * side)[:n]
    at = np.stack([cells // side, cells % side], axis=1) + rng.uniform(0.0, 1.0, size=(n, 2))
    lo = at / side * (extent - size)
    order = rng.permutation(n)
    return [
        ([float(v) for v in lo[k]], [float(v) for v in lo[k] + size[k]])
        for k in order
    ]


def _threshold(items: Items, lo: Sequence[float], hi: Sequence[float]) -> float:
    """Median of component 0 over the items in the box: a ``where``
    bound that prunes chunks yet always leaves one to read."""
    c = items.coords
    inside = (c[:, 0] >= lo[0]) & (c[:, 0] <= hi[0]) & (c[:, 1] >= lo[1]) & (c[:, 1] <= hi[1])
    return float(np.median(items.values[inside, 0]))


def make_ops(workload: str, seed: int, items: Items, scale: Scale) -> List[dict]:
    """The op list of *workload*; every pass replays exactly this."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    n = max(4, int(round(OPS[workload] * scale.ops)))
    if workload == "scan_cold":
        return [{"lo": lo, "hi": hi} for lo, hi in _boxes(rng, n, (0.006, 0.03), DOMAIN)]
    if workload == "probe_warm":
        ops = [{"lo": lo, "hi": hi} for lo, hi in _boxes(rng, n, (0.0002, 0.002), DOMAIN)]
        for op in ops[::2]:
            op["where_lo"] = _threshold(items, op["lo"], op["hi"])
        return ops
    if workload == "service_shared":
        # A burst is a box in the square around one of four hot spots
        # and a second box of its own size a small step away, so the
        # pair overlaps and the server can share a scan between them.
        spots = HOT_SPOTS + rng.uniform(-0.5, 0.5, size=(4, 2))
        first = _boxes(rng, n, (0.0006, 0.0015), HOT_EXTENT)
        second = _boxes(rng, n, (0.0006, 0.0015), HOT_EXTENT)
        ops = []
        for k in range(n):
            corner = spots[k % 4] - HOT_EXTENT / 2
            lo1, hi1 = np.asarray(first[k])
            size2 = np.asarray(second[k][1]) - np.asarray(second[k][0])
            lo2 = lo1 + rng.uniform(-0.15, 0.15, size=2)
            ops.append({"burst": [
                {"lo": [float(v) for v in corner + lo], "hi": [float(v) for v in corner + hi]}
                for lo, hi in ((lo1, hi1), (lo2, lo2 + size2))
            ]})
        return ops
    if workload == "shard_scatter":
        return [{"lo": lo, "hi": hi} for lo, hi in _boxes(rng, n, (0.001, 0.006), DOMAIN)]
    if workload == "update_write":
        updates = _boxes(rng, n // 2, (0.002, 0.008), UPDATE_EXTENT)
        ops = []
        for k, (lo, hi) in enumerate(updates):
            ops.append({"update": {"lo": lo, "hi": hi}})
            ops.append({"load_tiles": k % scale.tile_sets})
        return ops
    raise KeyError(f"unknown workload {workload!r}")


#: ops per pass at full scale (a ``service_shared`` op is a burst of 2)
OPS: Dict[str, int] = {
    "scan_cold": 200,
    "probe_warm": 400,
    "service_shared": 200,
    "shard_scatter": 200,
    "update_write": 200,
}


def ops_digest(ops: List[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]


def make_tile_sets(seed: int, scale: Scale) -> List[List[Chunk]]:
    """The small datasets ``update_write`` loads over one another."""
    rng = np.random.default_rng([seed, 99])
    sets = []
    for _ in range(scale.tile_sets):
        n = scale.tile_chunks * ITEMS_PER_CHUNK
        coords = rng.uniform(0.0, DOMAIN, size=(n, 2))
        values = rng.integers(1, 100, size=(n, 2)).astype(float)
        sets.append(hilbert_partition(coords, values, ITEMS_PER_CHUNK))
    return sets


def box_query(
    box: dict, cells: int = 64, dataset: str = DATASET, aggregation=None
) -> RangeQuery:
    """The ``RangeQuery`` of one generated box (``strategy`` stays at
    its ``AUTO`` default)."""
    grid, mapping = grid_of(cells)
    where: Optional[dict] = None
    if "where_lo" in box:
        where = {0: (box["where_lo"], None)}
    return RangeQuery(
        dataset,
        Rect(tuple(box["lo"]), tuple(box["hi"])),
        mapping,
        grid,
        aggregation=aggregation if aggregation is not None else MeanAggregation(2),
        where=where,
    )


def update_query(box: dict) -> RangeQuery:
    return box_query(box, aggregation=SumAggregation(2))


def materialise_query() -> RangeQuery:
    """The query whose output ``update_write`` stores as its target."""
    return update_query({"lo": [0.0, 0.0], "hi": [UPDATE_EXTENT, UPDATE_EXTENT]})
