"""Concurrent query service benchmark: shared scans vs one-at-a-time.

Measures the throughput/latency win of the concurrent front end
(:mod:`repro.frontend.queryservice`) on an overlap-heavy workload
driven over the real wire protocol (``ADRServer`` + ``ADRClient``
threads):

- **sequential** -- a one-at-a-time server (``max_inflight=1``,
  ``batch_max=1``, sharing off, no payload cache): every query pays
  full chunk-retrieval latency, queries queue behind each other (the
  paper's "socket interface ... for sequential clients" baseline);
- **concurrent_shared** -- the concurrent service with admission
  control, shared-bytes batching and scan sharing through the pinned
  payload cache: overlapping queries aggregate out of the same decoded
  chunk reads.

Chunk retrieval carries an artificial per-read latency (``sleep``
under the cache, as a disk farm or object store would impose).
Before any timing counts, every query's shared-execution result is
verified bit-for-bit against the same query executed alone on a fresh
ADR instance -- the service's contract is that sharing never changes
the answer.

Run standalone (not under pytest-benchmark)::

    PYTHONPATH=src python benchmarks/bench_service.py [--min-ratio 1.5]

writes ``BENCH_service.json`` with queries/sec and p50/p99 latency for
both modes and the throughput ratio.  Fidelity follows
``REPRO_BENCH_FIDELITY`` (``fast`` shrinks the item population, query
count and round count, as for the figure benches).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aggregation.functions import MeanAggregation  # noqa: E402
from repro.aggregation.output_grid import OutputGrid  # noqa: E402
from repro.dataset.partition import hilbert_partition  # noqa: E402
from repro.frontend.adr import ADR  # noqa: E402
from repro.frontend.query import RangeQuery  # noqa: E402
from repro.frontend.queryservice import ServicePolicy  # noqa: E402
from repro.frontend.service import ADRClient, ADRServer  # noqa: E402
from repro.machine.config import MachineConfig  # noqa: E402
from repro.space.attribute_space import AttributeSpace  # noqa: E402
from repro.space.mapping import GridMapping  # noqa: E402
from repro.store.chunk_store import ChunkStore, MemoryChunkStore  # noqa: E402
from repro.util.geometry import Rect  # noqa: E402
from repro.util.rng import make_rng  # noqa: E402
from repro.util.units import MB  # noqa: E402

FIDELITY = os.environ.get("REPRO_BENCH_FIDELITY", "fast").lower()
SEED = 20260807

WORKLOADS = {
    # n_items, items_per_chunk, grid_cells, chunk_cells, n_procs,
    # read latency (s), workload repeats, n_clients, rounds
    "fast": (3_000, 30, (12, 12), (3, 3), 4, 0.002, 1, 4, 3),
    "full": (9_000, 45, (16, 16), (4, 4), 4, 0.002, 2, 6, 5),
}

#: Overlap-heavy query regions over the (0,0)-(10,10) input space:
#: duplicates, nested boxes and staggered quadrants/strips, so a batch
#: always has chunks to share.
REGION_TEMPLATES = [
    ((0, 0), (10, 10)),
    ((0, 0), (10, 10)),
    ((1, 1), (9, 9)),
    ((0, 0), (7, 7)),
    ((3, 3), (10, 10)),
    ((0, 3), (7, 10)),
    ((3, 0), (10, 7)),
    ((0, 0), (10, 5)),
    ((0, 5), (10, 10)),
    ((0, 2), (10, 8)),
    ((2, 0), (8, 10)),
    ((2, 2), (10, 10)),
]


class SlowStore(ChunkStore):
    """Per-read latency under the payload cache: cache hits are free,
    misses pay the disk farm's round trip."""

    def __init__(self, inner, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def read_chunk(self, dataset, chunk_id):
        time.sleep(self.delay)
        return self.inner.read_chunk(dataset, chunk_id)

    def write_chunk(self, dataset, chunk, node, disk):
        self.inner.write_chunk(dataset, chunk, node, disk)

    def delete_dataset(self, dataset):
        self.inner.delete_dataset(dataset)

    def placement(self, dataset, chunk_id):
        return self.inner.placement(dataset, chunk_id)

    def chunk_ids(self, dataset):
        return self.inner.chunk_ids(dataset)


def build_workload():
    (n_items, per_chunk, gcells, ccells, n_procs, delay, repeats,
     n_clients, rounds) = WORKLOADS["fast" if FIDELITY == "fast" else "full"]
    rng = make_rng(SEED)
    in_space = AttributeSpace.regular("in", ("x", "y"), (0, 0), (10, 10))
    out_space = AttributeSpace.regular("out", ("u", "v"), (0, 0), (1, 1))
    coords = rng.uniform(0, 10, size=(n_items, 2))
    values = rng.integers(1, 100, size=(n_items, 1)).astype(float)
    chunks = hilbert_partition(coords, values, per_chunk)
    grid = OutputGrid(out_space, gcells, ccells)
    mapping = GridMapping(in_space, out_space, gcells)
    queries = [
        RangeQuery("sensors", Rect(lo, hi), mapping, grid,
                   aggregation=MeanAggregation(1), strategy="FRA")
        for _ in range(repeats)
        for lo, hi in REGION_TEMPLATES
    ]
    return in_space, chunks, queries, n_procs, delay, n_clients, rounds


def make_adr(in_space, chunks, n_procs, delay, cache_bytes):
    adr = ADR(
        machine=MachineConfig(n_procs=n_procs, memory_per_proc=MB),
        store=SlowStore(MemoryChunkStore(), delay),
        cache_bytes=cache_bytes,
    )
    adr.load("sensors", in_space, chunks)
    return adr


def verify_shared_matches_isolated(in_space, chunks, queries, n_procs):
    """Correctness gate: shared concurrent execution must be
    bit-identical to each query alone on a fresh instance (zero read
    latency here -- only values and counters matter)."""
    from repro.frontend.queryservice import QueryService

    isolated = [
        make_adr(in_space, chunks, n_procs, 0.0, 0).execute(q) for q in queries
    ]
    service = QueryService(
        make_adr(in_space, chunks, n_procs, 0.0, 64 * MB),
        ServicePolicy(max_inflight=2, batch_max=len(queries)),
    )
    try:
        tickets = [service.submit(q) for q in queries]
        shared = [t.result(timeout=120.0) for t in tickets]
    finally:
        service.close()
    for qi, (solo, conc) in enumerate(zip(isolated, shared)):
        if conc.output_ids.tolist() != solo.output_ids.tolist():
            raise AssertionError(f"query {qi}: shared output ids diverged")
        for o, cv, sv in zip(conc.output_ids, conc.chunk_values,
                             solo.chunk_values):
            if not np.array_equal(cv, sv, equal_nan=True):
                raise AssertionError(
                    f"query {qi}: output chunk {int(o)} diverged under sharing"
                )
        for counter in ("n_reads", "bytes_read", "n_aggregations",
                        "n_combines", "n_tiles"):
            if getattr(conc, counter) != getattr(solo, counter):
                raise AssertionError(f"query {qi}: counter {counter} diverged")


def drive_round(server, queries, n_clients):
    """Hammer the server with *n_clients* threads sharing one query
    list; returns (wall seconds, per-query latencies)."""
    latencies = []
    errors = []
    lock = threading.Lock()
    work = list(enumerate(queries))

    def client_loop(tid):
        try:
            with ADRClient(*server.address, timeout=300.0) as client:
                for qi, query in work:
                    if qi % n_clients != tid:
                        continue
                    t0 = time.perf_counter()
                    client.query(query)
                    dt = time.perf_counter() - t0
                    with lock:
                        latencies.append(dt)
        except BaseException as e:  # surface, don't hang the bench
            with lock:
                errors.append(e)

    threads = [
        threading.Thread(target=client_loop, args=(t,)) for t in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    if len(latencies) != len(queries):
        raise AssertionError(f"{len(latencies)}/{len(queries)} queries completed")
    return wall, latencies


def bench_mode(mode, in_space, chunks, queries, n_procs, delay, n_clients,
               rounds):
    """Best-of-N throughput; latencies pooled over all rounds.  Each
    round gets a fresh server and a cold cache."""
    best_wall = float("inf")
    all_latencies = []
    stats = {}
    for _ in range(rounds):
        if mode == "sequential":
            adr = make_adr(in_space, chunks, n_procs, delay, 0)
            policy = ServicePolicy(
                max_queue=4 * len(queries), max_inflight=1, batch_max=1,
                share_scans=False,
            )
        else:
            adr = make_adr(in_space, chunks, n_procs, delay, 64 * MB)
            policy = ServicePolicy(
                max_queue=4 * len(queries), max_inflight=4, batch_max=8,
            )
        with ADRServer(adr, port=0, policy=policy) as server:
            wall, latencies = drive_round(server, queries, n_clients)
            stats = server.service.stats()
        best_wall = min(best_wall, wall)
        all_latencies.extend(latencies)
    lat_ms = np.asarray(all_latencies) * 1e3
    return {
        "seconds": best_wall,
        "queries_per_second": len(queries) / best_wall,
        "p50_latency_ms": float(np.percentile(lat_ms, 50)),
        "p99_latency_ms": float(np.percentile(lat_ms, 99)),
        "batches": int(stats.get("batches", 0)),
        "batched_queries": int(stats.get("batched_queries", 0)),
        "shared_reads": int(stats.get("shared_reads", 0)),
        "shared_bytes": int(stats.get("shared_bytes", 0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-ratio", type=float, default=None,
        help="exit 1 unless shared/sequential throughput meets this factor",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_service.json"),
        help="output JSON path (default: repo-root BENCH_service.json)",
    )
    args = parser.parse_args(argv)

    (in_space, chunks, queries, n_procs, delay, n_clients,
     rounds) = build_workload()
    verify_shared_matches_isolated(in_space, chunks, queries, n_procs)

    report = {
        "bench": "service",
        "fidelity": "fast" if FIDELITY == "fast" else "full",
        "n_chunks": len(chunks),
        "n_queries": len(queries),
        "n_clients": n_clients,
        "read_latency_seconds": delay,
        "rounds": rounds,
        "modes": {},
    }
    for mode in ("sequential", "concurrent_shared"):
        r = bench_mode(
            mode, in_space, chunks, queries, n_procs, delay, n_clients, rounds
        )
        report["modes"][mode] = r
        print(
            f"{mode}: {r['queries_per_second']:.1f} q/s "
            f"(wall {r['seconds']:.3f}s), p50 {r['p50_latency_ms']:.1f} ms, "
            f"p99 {r['p99_latency_ms']:.1f} ms, "
            f"shared_reads {r['shared_reads']}"
        )
    ratio = (
        report["modes"]["concurrent_shared"]["queries_per_second"]
        / report["modes"]["sequential"]["queries_per_second"]
    )
    report["throughput_ratio"] = ratio
    print(f"throughput ratio (shared / sequential): {ratio:.2f}x")

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.min_ratio is not None and ratio < args.min_ratio:
        print(f"FAIL: throughput ratio {ratio:.2f}x below {args.min_ratio}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
