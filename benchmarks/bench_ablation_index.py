"""Ablation: spatial index (the loader's ScanIndex vs the paper's R-tree).

Section 2.2 indexes chunk MBRs with an R-tree; every dataset here is
indexed by a :class:`~repro.index.scan.ScanIndex`, and this bench is
the measurement behind that choice.  Two measurements live here:

- **pytest-benchmark micro-ablation**: build and query cost for every
  index type on the SAT chunk population (irregular MBRs) across
  selectivities.  Run with ``pytest benchmarks/bench_ablation_index.py``.
- **standalone selectivity sweep + pruning workload**: Hilbert-run
  chunk MBRs (the shape ``hilbert_partition`` loads) at 1 000 and
  100 000 chunks, queried by boxes covering 0 % (a point) to 50 % of
  the domain, reporting per-query lookup time per index and the ids
  returned; plus an end-to-end value-synopsis pruning run measuring
  the byte reduction a selective ``where=`` predicate delivers.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ablation_index.py \\
        [--min-prune-ratio 2.0] [--out FILE]

prints the sweep as a table and, with ``--out``, writes the report as
JSON.  ``REPRO_BENCH_FIDELITY=full`` quadruples the pruning workload.
Every timed index is first checked against the brute-force oracle on
the benchmark queries, and the pruned execution is checked
bit-identical to the unpruned one -- the numbers are only reported for
answers that are provably right.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.index import BruteForceIndex, RTree, ScanIndex  # noqa: E402
from repro.util.geometry import Rect  # noqa: E402
from repro.util.hilbert import hilbert_sort_keys  # noqa: E402

FIDELITY = os.environ.get("REPRO_BENCH_FIDELITY", "fast").lower()
SEED = 20260807
ROUNDS = 5
N_QUERIES = 16
EXTENT = 1000.0
ITEMS_PER_CHUNK = 16

#: chunk populations of the sweep
POPULATIONS = (1_000, 100_000)
#: query box area as a fraction of the domain (0 is a point query)
SELECTIVITIES = (0.0, 0.0001, 0.001, 0.01, 0.1, 0.5)

#: contenders in the sweep
SWEEP_INDEXES = {
    "scan": (ScanIndex, {}),
    "rtree": (RTree, {"bulk": "hilbert"}),
    "brute": (BruteForceIndex, {}),
}


# ---------------------------------------------------------------------------
# pytest-benchmark micro-ablation (optional at import time so the
# standalone path works where pytest is not installed)
# ---------------------------------------------------------------------------

try:  # pragma: no cover - exercised only under pytest-benchmark
    import pytest

    import repro_grid as grid

    INDEXES = {
        "rtree-str": (RTree, {"bulk": "str"}),
        "rtree-hilbert": (RTree, {"bulk": "hilbert"}),
        "scan": (ScanIndex, {}),
        "brute": (BruteForceIndex, {}),
    }

    @pytest.fixture(scope="module")
    def population():
        sc = grid.scenario("SAT", 1)
        return sc.inputs

    @pytest.fixture(scope="module")
    def queries(population):
        rng = np.random.default_rng(3)
        lo, hi = population.bounds.as_arrays()
        span = hi - lo
        out = []
        for frac in (0.05, 0.2, 0.5):
            a = lo + rng.uniform(0, 1 - frac, size=len(lo)) * span
            out.append(Rect(tuple(a), tuple(a + frac * span)))
        return out

    @pytest.mark.parametrize("name", list(INDEXES))
    def test_index_build(benchmark, population, name):
        cls, kwargs = INDEXES[name]
        idx = benchmark(cls.build, population, **kwargs)
        assert idx.n_entries == len(population)

    @pytest.mark.parametrize("name", list(INDEXES))
    def test_index_query(benchmark, population, queries, name):
        cls, kwargs = INDEXES[name]
        idx = cls.build(population, **kwargs)
        brute = BruteForceIndex.build(population)
        # correctness first, then timing
        for q in queries:
            assert idx.query(q).tolist() == brute.query(q).tolist()

        def run():
            return [len(idx.query(q)) for q in queries]

        counts = benchmark(run)
        assert all(c > 0 for c in counts)

except ImportError:  # pytest absent: standalone main() below still works
    pass


# ---------------------------------------------------------------------------
# standalone selectivity sweep
# ---------------------------------------------------------------------------


def make_chunk_mbrs(rng, n_chunks):
    """MBRs of *n_chunks* Hilbert runs of uniform points, the way
    ``hilbert_partition`` cuts a loaded dataset (vectorised here so the
    100k population builds in well under a second)."""
    pts = rng.uniform(0.0, EXTENT, size=(n_chunks * ITEMS_PER_CHUNK, 2))
    bbox = Rect((0.0, 0.0), (EXTENT, EXTENT))
    pts = pts[np.argsort(hilbert_sort_keys(pts, bbox), kind="stable")]
    starts = np.arange(0, len(pts), ITEMS_PER_CHUNK)
    return np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)


def make_queries(rng, selectivity):
    """Square boxes covering *selectivity* of the domain, inside it."""
    side = EXTENT * selectivity ** 0.5
    out = []
    for _ in range(N_QUERIES):
        lo = rng.uniform(0.0, EXTENT - side, size=2)
        out.append(Rect(tuple(lo), tuple(lo + side)))
    return out


def time_queries(idx, queries, rounds=ROUNDS):
    """Best-of-*rounds* mean seconds per query."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for q in queries:
            idx.query(q)
        best = min(best, time.perf_counter() - t0)
    return best / len(queries)


def sweep_population(n):
    rng = np.random.default_rng(SEED + n)
    los, his = make_chunk_mbrs(rng, n)
    entry = {"build_ms": {}, "selectivities": {}}
    indexes = {}
    for name, (cls, kwargs) in SWEEP_INDEXES.items():
        t0 = time.perf_counter()
        indexes[name] = cls.from_rects(los, his, **kwargs)
        entry["build_ms"][name] = (time.perf_counter() - t0) * 1e3

    brute = indexes["brute"]
    for sel in SELECTIVITIES:
        queries = make_queries(rng, sel)
        # Correctness gate: every contender answers like the oracle.
        expected = [brute.query(q) for q in queries]
        for name, idx in indexes.items():
            for q, expect in zip(queries, expected):
                if not np.array_equal(idx.query(q), expect):
                    raise AssertionError(
                        f"{name} disagreed with brute force at n={n} on {q}"
                    )
        entry["selectivities"][str(sel)] = {
            "mean_ids": float(np.mean([len(e) for e in expected])),
            "query_us": {
                name: time_queries(idx, queries) * 1e6
                for name, idx in indexes.items()
            },
        }
    return entry


def format_table(populations):
    names = list(SWEEP_INDEXES)
    lines = [
        "| chunks | selectivity | ids returned | "
        + " | ".join(f"`{k}` µs" for k in names) + " |",
        "|---:|---:|---:|" + "---:|" * len(names),
    ]
    for n, entry in populations.items():
        for sel, point in entry["selectivities"].items():
            us = point["query_us"]
            best = min(us, key=us.get)
            cells = [
                f"**{us[k]:,.1f}**" if k == best else f"{us[k]:,.1f}" for k in names
            ]
            lines.append(
                f"| {int(n):,} | {float(sel) * 100:g} % | "
                f"{point['mean_ids']:,.1f} | " + " | ".join(cells) + " |"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# end-to-end pruning workload
# ---------------------------------------------------------------------------


def bench_pruning():
    """Execute a selective ``where=`` query with and without the value
    synopsis; the byte reduction is what pruning alone buys, with the
    results checked bit-identical."""
    from repro.aggregation.output_grid import OutputGrid
    from repro.dataset.partition import hilbert_partition
    from repro.frontend.adr import ADR
    from repro.frontend.query import RangeQuery
    from repro.machine.config import MachineConfig
    from repro.space.attribute_space import AttributeSpace
    from repro.space.mapping import GridMapping
    from repro.util.units import MB

    n_items = 20_000 if FIDELITY == "fast" else 80_000
    rng = np.random.default_rng(SEED + 1)
    adr = ADR(machine=MachineConfig(n_procs=4, memory_per_proc=1 * MB))
    in_space = AttributeSpace.regular("readings", ("x", "y"), (0, 0), (10, 10))
    out_space = AttributeSpace.regular("image", ("u", "v"), (0, 0), (1, 1))
    coords = rng.uniform(0, 10, size=(n_items, 2))
    # Values track x so the Hilbert-local chunks carry narrow synopses
    # and the predicate below keeps only the low-x third of the domain.
    values = coords[:, 0] * 10.0 + rng.uniform(0.0, 5.0, size=n_items)
    chunks = hilbert_partition(coords, values, items_per_chunk=200)
    adr.load("sensors", in_space, chunks)
    grid_ = OutputGrid(out_space, (16, 16), (4, 4))
    mapping = GridMapping(in_space, out_space, (16, 16))

    def q():
        return RangeQuery(
            dataset="sensors",
            region=Rect((0, 0), (10, 10)),
            mapping=mapping,
            grid=grid_,
            aggregation="sum",
            strategy="FRA",
            where={0: (None, 30.0)},
        )

    pruned = adr.execute(q())
    ds = adr.dataset("sensors")
    ds.chunks = ds.chunks.with_synopsis(None)
    unpruned = adr.execute(q())

    assert pruned.output_ids.tolist() == unpruned.output_ids.tolist()
    for a, b in zip(pruned.chunk_values, unpruned.chunk_values):
        np.testing.assert_array_equal(a, b, err_msg="pruned run diverged")

    return {
        "n_chunks": len(chunks),
        "chunks_pruned": pruned.chunks_pruned,
        "bytes_pruned": pruned.bytes_pruned,
        "bytes_read_unpruned": unpruned.bytes_read,
        "bytes_read_pruned": pruned.bytes_read,
        "reads_unpruned": unpruned.n_reads,
        "reads_pruned": pruned.n_reads,
        "byte_reduction": unpruned.bytes_read / pruned.bytes_read,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-prune-ratio", type=float, default=None,
        help="exit 1 unless synopsis pruning cuts bytes read by this factor",
    )
    parser.add_argument(
        "--out", default=None, help="also write the report as JSON to this path"
    )
    args = parser.parse_args(argv)

    report = {
        "bench": "index",
        "n_queries": N_QUERIES,
        "rounds": ROUNDS,
        "populations": {},
    }
    for n in POPULATIONS:
        entry = sweep_population(n)
        report["populations"][str(n)] = entry
        print(
            f"n={n:>7,} build: "
            + ", ".join(f"{k} {v:,.2f} ms" for k, v in entry["build_ms"].items())
        )
    print(format_table(report["populations"]))

    report["pruning"] = bench_pruning()
    p = report["pruning"]
    print(
        f"pruning: {p['chunks_pruned']}/{p['n_chunks']} chunks pruned, "
        f"bytes read {p['bytes_read_unpruned']:,} -> {p['bytes_read_pruned']:,} "
        f"({p['byte_reduction']:.1f}x reduction)"
    )

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.min_prune_ratio is not None and p["byte_reduction"] < args.min_prune_ratio:
        print(
            f"FAIL: pruning byte reduction {p['byte_reduction']:.2f}x "
            f"(need {args.min_prune_ratio}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
