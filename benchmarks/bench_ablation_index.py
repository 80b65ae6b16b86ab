"""Ablation: spatial index (R-tree vs vectorized scan vs bitmap).

Section 2.2 indexes chunk MBRs with an R-tree.  Two measurements live
here:

- **pytest-benchmark micro-ablation** (the original bench): build and
  query cost for every index type on the SAT chunk population
  (irregular MBRs) across selectivities.  Run with
  ``pytest benchmarks/bench_ablation_index.py``.
- **standalone scaling sweep + pruning workload**: chunk-MBR
  populations up to a million rectangles, reporting build time and
  query throughput per index with the crossover population where each
  vectorized index overtakes the pointer-walking R-tree, plus an
  end-to-end value-synopsis pruning run measuring the byte reduction a
  selective ``where=`` predicate delivers.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ablation_index.py \\
        [--min-query-ratio 1.0] [--min-prune-ratio 2.0]

writes ``BENCH_index.json``.  Fidelity follows ``REPRO_BENCH_FIDELITY``
(``fast`` caps the sweep at 250k rects; ``full`` runs the 1M
population the committed report documents).  Every timed index is
first checked against the brute-force oracle on the benchmark queries,
and the pruned execution is checked bit-identical to the unpruned one
-- the numbers are only reported for answers that are provably right.
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

from repro.index import (  # noqa: E402
    BruteForceIndex,
    HierarchicalBitmapIndex,
    RTree,
    ScanIndex,
)
from repro.util.geometry import Rect  # noqa: E402

FIDELITY = os.environ.get("REPRO_BENCH_FIDELITY", "fast").lower()
SEED = 20260807
ROUNDS = 3
N_QUERIES = 24

#: rect populations for the scaling sweep; "full" reaches the
#: million-chunk regime the tentpole targets
POPULATIONS = {
    "fast": (10_000, 100_000, 250_000),
    "full": (10_000, 100_000, 1_000_000),
}

#: contenders in the sweep
SWEEP_INDEXES = {
    "rtree": (RTree, {"bulk": "hilbert"}),
    "scan": (ScanIndex, {}),
    "bitmap": (HierarchicalBitmapIndex, {}),
    "brute": (BruteForceIndex, {}),
}

#: the vectorized newcomers gated against the R-tree
NEW_INDEXES = ("scan", "bitmap")
GATE_MIN_POPULATION = 100_000


# ---------------------------------------------------------------------------
# pytest-benchmark micro-ablation (original bench; optional at import
# time so the standalone path works where pytest is not installed)
# ---------------------------------------------------------------------------

try:  # pragma: no cover - exercised only under pytest-benchmark
    import pytest

    import repro_grid as grid

    INDEXES = {
        "rtree-str": (RTree, {"bulk": "str"}),
        "rtree-hilbert": (RTree, {"bulk": "hilbert"}),
        "scan": (ScanIndex, {}),
        "bitmap": (HierarchicalBitmapIndex, {}),
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
# standalone scaling sweep
# ---------------------------------------------------------------------------


def make_rects(rng, n, ndim=2, extent=1000.0):
    los = rng.uniform(0.0, extent, size=(n, ndim))
    sizes = rng.uniform(0.0, extent * 0.005, size=(n, ndim))
    return los, los + sizes


def make_queries(rng, ndim=2, extent=1000.0):
    """Query rects across selectivities, all inside the domain."""
    out = []
    for frac in (0.01, 0.05, 0.2):
        side = extent * frac
        for _ in range(N_QUERIES // 3):
            lo = rng.uniform(0.0, extent - side, size=ndim)
            out.append(Rect(tuple(lo), tuple(lo + side)))
    return out


def time_queries(idx, queries, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for q in queries:
            idx.query(q)
        best = min(best, time.perf_counter() - t0)
    return best


def sweep_population(n):
    rng = np.random.default_rng(SEED)
    los, his = make_rects(rng, n)
    queries = make_queries(rng)

    entry = {"build_seconds": {}, "queries_per_sec": {}, "ratio_vs_rtree": {}}
    indexes = {}
    for name, (cls, kwargs) in SWEEP_INDEXES.items():
        t0 = time.perf_counter()
        indexes[name] = cls.from_rects(los, his, **kwargs)
        entry["build_seconds"][name] = time.perf_counter() - t0

    # Correctness gate: every contender answers like the oracle.
    brute = indexes["brute"]
    for q in queries:
        expect = brute.query(q)
        for name, idx in indexes.items():
            got = idx.query(q)
            if not np.array_equal(got, expect):
                raise AssertionError(
                    f"{name} disagreed with brute force at n={n} on {q}"
                )

    for name, idx in indexes.items():
        entry["queries_per_sec"][name] = len(queries) / time_queries(idx, queries)
    rtree_qps = entry["queries_per_sec"]["rtree"]
    for name in SWEEP_INDEXES:
        entry["ratio_vs_rtree"][name] = entry["queries_per_sec"][name] / rtree_qps
    return entry


def crossover(populations):
    """Smallest population where each new index overtakes the R-tree."""
    out = {}
    for name in NEW_INDEXES:
        out[name] = next(
            (
                n
                for n in sorted(int(k) for k in populations)
                if populations[str(n)]["ratio_vs_rtree"][name] >= 1.0
            ),
            None,
        )
    return out


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
        "--min-query-ratio", type=float, default=None,
        help="exit 1 unless scan and bitmap reach this fraction of the "
        f"R-tree's query throughput at populations >= {GATE_MIN_POPULATION}",
    )
    parser.add_argument(
        "--min-prune-ratio", type=float, default=None,
        help="exit 1 unless synopsis pruning cuts bytes read by this factor",
    )
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_index.json"),
        help="output JSON path (default: repo-root BENCH_index.json)",
    )
    args = parser.parse_args(argv)

    fidelity = "fast" if FIDELITY == "fast" else "full"
    report = {
        "bench": "index",
        "fidelity": fidelity,
        "n_queries": N_QUERIES,
        "rounds": ROUNDS,
        "populations": {},
    }
    for n in POPULATIONS[fidelity]:
        entry = sweep_population(n)
        report["populations"][str(n)] = entry
        qps = entry["queries_per_sec"]
        print(
            f"n={n:>9,}: "
            + ", ".join(f"{k} {v:,.0f} q/s" for k, v in qps.items())
            + f"  (scan {entry['ratio_vs_rtree']['scan']:.1f}x, "
            f"bitmap {entry['ratio_vs_rtree']['bitmap']:.1f}x vs rtree)"
        )
    report["crossover_vs_rtree"] = crossover(report["populations"])
    print(f"crossover populations: {report['crossover_vs_rtree']}")

    report["pruning"] = bench_pruning()
    p = report["pruning"]
    print(
        f"pruning: {p['chunks_pruned']}/{p['n_chunks']} chunks pruned, "
        f"bytes read {p['bytes_read_unpruned']:,} -> {p['bytes_read_pruned']:,} "
        f"({p['byte_reduction']:.1f}x reduction)"
    )

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    failures = []
    if args.min_query_ratio is not None:
        for n_str, entry in report["populations"].items():
            if int(n_str) < GATE_MIN_POPULATION:
                continue
            for name in NEW_INDEXES:
                ratio = entry["ratio_vs_rtree"][name]
                if ratio < args.min_query_ratio:
                    failures.append(
                        f"{name} at n={n_str}: {ratio:.2f}x vs rtree "
                        f"(need {args.min_query_ratio}x)"
                    )
    if args.min_prune_ratio is not None:
        if p["byte_reduction"] < args.min_prune_ratio:
            failures.append(
                f"pruning byte reduction {p['byte_reduction']:.2f}x "
                f"(need {args.min_prune_ratio}x)"
            )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
