"""The five workloads: what each sets up, drives, verifies and traces.

A workload is driven through three calls: :meth:`Workload.build` (the
timed data set-up, through public calls only), :meth:`Workload.adopt`
(make one built stack the system under test, spawning server children
where the workload has them) and :meth:`Workload.run_op`.  With a
:class:`~probes.SpanLog` passed to ``build`` the same calls produce the
traced stack, where every op is replayed through its public stages
with a span around each.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import socket
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dataset.chunk import Chunk
from repro.dataset.chunkset import ChunkSet
from repro.dataset.synopsis import ValueSynopsis
from repro.decluster.hilbert import HilbertDeclusterer
from repro.frontend.adr import ADR
from repro.frontend.protocol import (
    query_to_dict,
    read_frame,
    result_from_dict,
    result_to_dict,
    write_frame,
)
from repro.frontend.query import RangeQuery
from repro.frontend.service import ADRClient
from repro.index.rtree import RTree
from repro.planner.select import choose_strategy
from repro.planner.validate import validate_plan
from repro.runtime.engine import QueryResult, execute_plan
from repro.shard.partial import combine_partials
from repro.shard.router import ShardEndpoint, ShardRouter
from repro.shard.server import ShardClient
from repro.shard.topology import ShardTopology, shard_chunks
from repro.store.cache import ScanRecorder
from repro.store.chunk_store import FileChunkStore, MemoryChunkStore
from repro.store.format import decode_chunk
from repro.util.units import MB

import fixture
from fixture import DATASET, IN_SPACE, MACHINE, TARGET, TILES
from probes import DEFAULT_CACHE_BYTES, SpanLog, StoreProbe, TimedCache, clock, peak_rss_mb
from procs import LinePipe

HERE = Path(__file__).resolve().parent
#: seconds any single wait on a child or a peer may take
WAIT_S = 60.0


@dataclass
class Outcome:
    """One op as the caller saw it."""

    seconds: float
    #: chunk payload bytes the op's kernels reduced
    read_payload: int
    results: List[QueryResult]
    #: chunk payload bytes the op wrote
    written_payload: int = 0

    def digest(self, values: bool = True) -> str:
        h = hashlib.sha1()
        for r in self.results:
            h.update(np.ascontiguousarray(r.output_ids).tobytes())
            for v in r.chunk_values if values else ():
                h.update(np.ascontiguousarray(v).tobytes())
        return h.hexdigest()


@dataclass
class Stack:
    """What one set-up built."""

    chunks: List[Chunk]
    adr: Optional[ADR] = None
    probe: Optional[StoreProbe] = None
    #: seconds of set-up stages, by per-layer metric name
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


class Child(LinePipe):
    """One ``serve.py`` process: spawned, asked for counters, reaped.
    Starting and waiting for ``READY`` are two steps, so that the two
    shard servers can load side by side, one core each."""

    def __init__(
        self, workdir: Path, tag: str, chunks: List[Chunk],
        shard_id: Optional[int], trace: bool,
    ) -> None:
        pickled = workdir / f"{tag}.pickle"
        with open(pickled, "wb") as f:
            pickle.dump(chunks, f, protocol=pickle.HIGHEST_PROTOCOL)
        argv = [
            sys.executable, str(HERE / "serve.py"), "--root", str(workdir / tag),
            "--chunks", str(pickled), "--trace", str(int(trace)),
        ]
        if shard_id is not None:
            argv += ["--shard-id", str(shard_id)]
        super().__init__(argv)
        self.tag = tag
        self.address: Optional[Tuple[str, int]] = None

    def ready(self) -> None:
        try:
            port = self.line(WAIT_S)
            if not port.startswith("PORT ") or self.line(WAIT_S) != "READY":
                raise RuntimeError(f"child {self.tag} did not announce PORT then READY")
        except BaseException:
            self.stop(polite=False)
            raise
        self.address = ("127.0.0.1", int(port.split()[1]))

    def stats(self) -> dict:
        return self.ask("STATS", WAIT_S)

    def close(self) -> None:
        self.stop(polite=True)


def reference_adr(chunks: List[Chunk]) -> ADR:
    """The simplest path to the same answer: one uncached in-memory ADR."""
    adr = ADR(machine=MACHINE, store=MemoryChunkStore(), cache_bytes=0)
    adr.load(DATASET, IN_SPACE, chunks)
    return adr


def same_values(got: QueryResult, want: QueryResult, exact: bool = True) -> bool:
    if got.output_ids.tolist() != want.output_ids.tolist():
        return False
    for g, w in zip(got.chunk_values, want.chunk_values):
        if exact and not np.array_equal(g, w, equal_nan=True):
            return False
        if not exact and not np.allclose(g, w, equal_nan=True):
            return False
    return True


class Workload:
    """Base: the in-process ``ADR.execute`` workloads use it as is."""

    name = ""
    why = ""
    cache_bytes = DEFAULT_CACHE_BYTES
    cells = 64
    #: ops one closed-loop step issues (2 for a ``service_shared`` burst)
    callers = 1
    #: routed results match a solo ADR by ``allclose``, others exactly
    exact = True
    #: the span every traced op is rooted in
    root = "frontend.adr.execute"
    #: an op returns the same values in every pass (not so for updates,
    #: whose target accumulates: those are checked by ids and read-back)
    repeatable = True

    def __init__(self, seed: int, scale: fixture.Scale, workdir: Path) -> None:
        self.workdir = workdir
        self.items = fixture.make_items(seed, scale)
        self.ops = fixture.make_ops(self.name, seed, self.items, scale)
        self.n_ops = len(self.ops)
        self.stack: Optional[Stack] = None
        self.spans: Optional[SpanLog] = None
        self.children: List[Child] = []
        #: per-pass sums the per-layer metrics are made of (traced run)
        self.tally: Dict[str, float] = {}
        self.queries = self._queries()

    def _queries(self) -> List[List[RangeQuery]]:
        return [[fixture.box_query(op, self.cells)] for op in self.ops]

    # -- set-up ----------------------------------------------------------

    def _open_adr(self, directory: Path, spans: Optional[SpanLog]) -> Tuple[ADR, StoreProbe]:
        probe = StoreProbe(FileChunkStore(directory))
        if spans is None:
            return ADR(machine=MACHINE, store=probe, cache_bytes=self.cache_bytes), probe
        probe.spans = spans
        store = TimedCache(probe, self.cache_bytes, spans)
        return ADR(machine=MACHINE, store=store), probe

    def build(self, directory: Path, spans: Optional[SpanLog] = None) -> Stack:
        t0 = clock()
        chunks = fixture.partition(self.items)
        t1 = clock()
        adr, probe = self._open_adr(directory, spans)
        adr.load(DATASET, IN_SPACE, chunks)
        return Stack(chunks, adr, probe, {"dataset.partition_s": t1 - t0})

    def adopt(self, stack: Stack, spans: Optional[SpanLog] = None) -> None:
        self.stack, self.spans = stack, spans
        if spans is not None:
            # Replayed: ADR.load builds this same index inside itself.
            topology = stack.extra.get("topology")
            chunkset = (
                topology.chunks if topology is not None
                else stack.adr.dataset(DATASET).chunks
            )
            t0 = clock()
            RTree.build(chunkset)
            stack.layers["index.build_s"] = clock() - t0

    def close(self) -> None:
        for child in self.children:
            child.proc.stdin.close()  # end of stdin: all asked to leave at once
        for child in self.children:
            child.close()
        self.children = []

    # -- counters --------------------------------------------------------

    def store_counters(self) -> Dict[str, int]:
        """Base-store and cache counters of the system under test."""
        out = dict(self.stack.probe.counters())
        out.update(self.stack.adr.store.stats())
        return out

    def child_self_s(self) -> Dict[str, float]:
        return {}

    def code_rss_mb(self) -> float:
        """Peak memory of the processes running repo code."""
        return peak_rss_mb()

    # -- verification ----------------------------------------------------

    def reference(self) -> ADR:
        return reference_adr(self.stack.chunks)

    def expected(self, reference: ADR, query: RangeQuery) -> QueryResult:
        return reference.execute(query)

    def verify(self, reference: ADR, i: int, outcome: Outcome) -> bool:
        """Each result of op *i* against the reference's.  The reference
        is told the strategy ``AUTO`` resolved to, which spares it
        pricing four plans and changes no value."""
        want = [
            self.expected(reference, replace(q, strategy=r.selected_strategy or q.strategy))
            for q, r in zip(self.queries[i], outcome.results)
        ]
        return len(want) == len(outcome.results) and all(
            same_values(g, w, self.exact) for g, w in zip(outcome.results, want)
        )

    def final_check(self) -> List[str]:
        """Problems found after the last pass (``update_write`` reads
        its writes back); empty when all is well."""
        return []

    # -- ops -------------------------------------------------------------

    def run_op(self, i: int) -> Outcome:
        (query,) = self.queries[i]
        adr = self.stack.adr
        t0 = clock()
        result = adr.execute(query)
        seconds = clock() - t0
        return Outcome(seconds, result.bytes_read, [result])

    def run_traced_op(self, i: int) -> Outcome:
        (query,) = self.queries[i]
        self.spans.op = i
        t0 = clock()
        with self.spans.span(self.root):
            result = self._plan_and_run(query)
        seconds = clock() - t0
        self._replay_index()
        return Outcome(seconds, result.bytes_read, [result])

    def add(self, key: str, value: float) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + value

    def _tally_result(self, result: QueryResult) -> None:
        self.add("dataset.pruned_chunks", result.chunks_pruned)
        self.add("dataset.pruned_bytes", result.bytes_pruned)
        self.add("runtime.aggregations", result.n_aggregations)
        self.add("runtime.combines", result.n_combines)
        self.add("planner.tiles", result.n_tiles)
        for phase, seconds in result.phase_times.items():
            self.add(f"runtime.phase_{phase}_ms", seconds * 1e3)
        self.add("routing_hits", result.cache_stats.get("routing_hits", 0))
        self.add("routing_misses", result.cache_stats.get("routing_misses", 0))

    def _plan_and_run(self, query: RangeQuery, update: bool = False) -> QueryResult:
        """``ADR.execute`` (or the planning and reduction of
        ``ADR.update``) taken apart into its public stages."""
        adr, spans = self.stack.adr, self.spans
        name = query.dataset
        region = adr.dataset(name).space.validate_query(query.region)
        with spans.span("planner.build_problem") as build:
            problem = adr.build_problem(query)
        self._lookup = (name, region, build)
        prior = None
        if update:
            problem.init_from_output = True
            position = self.stack.extra["position"]

            def prior(output_id: int):
                i = position.get(int(output_id))
                return None if i is None else adr.store.read_chunk(TARGET, i).values

        with spans.span("planner.select"):
            choice = choose_strategy(problem, adr.cost_model)
        with spans.span("planner.validate"):
            validate_plan(choice.plan)
        recorder = ScanRecorder()
        with spans.span("runtime.execute"):
            result = execute_plan(
                choice.plan,
                lambda cid: adr.store.read_chunk(name, cid, recorder=recorder),
                query.mapping, query.grid, query.spec(),
                region=region, prior=prior,
                routing_cache=adr.routing_cache(name),
                on_error=query.on_error, prefetch=adr.prefetch,
                predicate=query.predicate(),
            )
        self.add("index.candidates", problem.n_in + problem.n_pruned)
        self.add("planner.plans_priced", len(choice.estimates))
        self._tally_result(result)
        return result

    def _replay_index(self) -> None:
        """The index lookup ``build_problem`` made inside itself, run
        again after the op and charged to the ``build_problem`` span."""
        name, region, build = self._lookup
        t0 = clock()
        self.stack.adr.index(name).query(region)
        self.spans.add("index.query", t0, clock(), build)

    def replay_decode(self, first: int) -> float:
        """Seconds of ``decode_chunk`` over the files the base store
        served since its read log was *first* long (in-process only)."""
        probe = self.stack.probe
        if probe is None:
            return 0.0
        blobs = [probe.file_bytes(ds, cid) for ds, cid in probe.read_log[first:]]
        t0 = clock()
        for blob in blobs:
            decode_chunk(blob)
        return clock() - t0


class ScanCold(Workload):
    name = "scan_cold"
    why = (
        "12-45 chunks per query under a 1 MB cache that never helps: store read+decode "
        "and runtime kernels do the work; no wire, service or shard code runs"
    )
    cache_bytes = 1 * MB


class ProbeWarm(Workload):
    name = "probe_warm"
    why = (
        "1-10 chunks per query, half with a value predicate, all data cached: index, "
        "synopsis prune and planner/select dominate; the bypass case for read or decode gains"
    )
    cache_bytes = 256 * MB


class UpdateWrite(Workload):
    name = "update_write"
    repeatable = False
    why = (
        "ADR.update into a stored target alternating with ADR.load of 20 chunks: encode, "
        "writes, manifest flush, cache invalidation, index rebuild; write costs show only here"
    )

    def __init__(self, seed: int, scale: fixture.Scale, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.tiles = fixture.make_tile_sets(seed, scale)
        #: target chunk position -> values of the last acknowledged write
        self.last_update: Dict[int, np.ndarray] = {}
        self.last_tiles: Optional[int] = None

    def _queries(self) -> List[List[RangeQuery]]:
        return [
            [fixture.update_query(op["update"])] if "update" in op else []
            for op in self.ops
        ]

    def _materialise(self, adr: ADR) -> Dict[int, int]:
        result = adr.execute(fixture.materialise_query(), store_as=TARGET)
        return {int(o): i for i, o in enumerate(result.output_ids)}

    def build(self, directory: Path, spans: Optional[SpanLog] = None) -> Stack:
        stack = super().build(directory, spans)
        stack.extra["position"] = self._materialise(stack.adr)
        return stack

    def reference(self) -> ADR:
        adr = reference_adr(self.stack.chunks)
        self._materialise(adr)
        return adr

    def expected(self, reference: ADR, query: RangeQuery) -> QueryResult:
        # In lockstep with the system under test: the target accumulates.
        return reference.update(query, TARGET)

    def _written(self, result: QueryResult) -> int:
        position = self.stack.extra["position"]
        total = 0
        for output_id, values in zip(result.output_ids, result.chunk_values):
            self.last_update[position[int(output_id)]] = values
            total += values.nbytes + len(values) * 2 * 8
        return total

    def run_op(self, i: int) -> Outcome:
        return self._run(i, traced=False)

    def run_traced_op(self, i: int) -> Outcome:
        self.spans.op = i
        return self._run(i, traced=True)

    def _run(self, i: int, traced: bool) -> Outcome:
        """Op *i*; replays of the traced run fall outside its latency."""
        adr = self.stack.adr
        op = self.ops[i]
        if "update" in op:
            (query,) = self.queries[i]
            t0 = clock()
            result = self._traced_update(query) if traced else adr.update(query, TARGET)
            seconds = clock() - t0
            if traced:
                self._replay_index()
            return Outcome(seconds, result.bytes_read, [result], self._written(result))
        tiles = self.tiles[op["load_tiles"]]
        t0 = clock()
        if traced:
            with self.spans.span(self.root) as root:
                adr.load(TILES, IN_SPACE, tiles)
        else:
            adr.load(TILES, IN_SPACE, tiles)
        seconds = clock() - t0
        if traced:
            self._replay_describe(tiles, root)
        self.last_tiles = op["load_tiles"]
        return Outcome(seconds, 0, [], sum(c.meta.nbytes for c in tiles))

    def _replay_describe(self, tiles: List[Chunk], root: int) -> None:
        """What ``ADR.load`` does besides writing -- chunk set, value
        synopsis, declustering, index -- replayed and charged to the
        load op it was part of."""
        t0 = clock()
        chunkset = ChunkSet.from_metas([c.meta for c in tiles])
        chunkset = chunkset.with_synopsis(ValueSynopsis.from_chunks(tiles))
        HilbertDeclusterer().assign(chunkset, MACHINE.n_procs, MACHINE.disks_per_node)
        RTree.build(chunkset)
        self.spans.add("dataset.describe", t0, clock(), root)

    def _traced_update(self, query: RangeQuery) -> QueryResult:
        adr, spans = self.stack.adr, self.spans
        position = self.stack.extra["position"]
        with spans.span(self.root):
            result = self._plan_and_run(query, update=True)
            with spans.span("frontend.adr.write_back"):
                for output_id, values in zip(result.output_ids, result.chunk_values):
                    i = position[int(output_id)]
                    old = adr.store.read_chunk(TARGET, i)
                    node, disk = adr.store.placement(TARGET, i)
                    adr.store.write_chunk(
                        TARGET, Chunk(old.meta, old.coords, values), node, disk
                    )
        return result

    def final_check(self) -> List[str]:
        """Reopen the directory with a new store: every acknowledged
        write must read back equal to the last value written."""
        store = FileChunkStore(self.stack.probe.root)
        problems = []
        for i, values in sorted(self.last_update.items()):
            if not np.array_equal(store.read_chunk(TARGET, i).values, values, equal_nan=True):
                problems.append(f"target chunk {i} read back differs from its last write")
        if self.last_tiles is not None:
            for chunk in self.tiles[self.last_tiles]:
                back = store.read_chunk(TILES, chunk.chunk_id)
                if not (
                    np.array_equal(back.coords, chunk.coords)
                    and np.array_equal(back.values, chunk.values)
                ):
                    problems.append(f"tile chunk {chunk.chunk_id} read back differs")
        return problems


class _Served(Workload):
    """Workloads whose repo code runs in ``serve.py`` children."""

    spawn_key = "frontend.service.spawn_s"

    def store_counters(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for child in self.children:
            stats = child.stats()
            for part in (stats["store"], stats["cache"]):
                for key, value in part.items():
                    out[key] = out.get(key, 0) + int(value)
        return out

    def child_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for child in self.children:
            for key, value in child.stats()["self_s"].items():
                out[key] = out.get(key, 0.0) + float(value)
        return out

    def code_rss_mb(self) -> float:
        return sum(peak_rss_mb(child.proc.pid) for child in self.children)


class WireConn:
    """A client that speaks the wire itself, so that encode, wait, frame
    read and decode can each be timed (the traced run only)."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=WAIT_S)
        self._file = self._sock.makefile("rwb")

    def query(self, query: RangeQuery):
        """``(result, service block, stages, request, response)``;
        stages are ``(span name, start, end)``."""
        t0 = clock()
        request = {"op": "query", "query": query_to_dict(query)}
        write_frame(self._file, request)
        t1 = clock()
        self._file.peek(1)
        t2 = clock()
        response = read_frame(self._file)
        t3 = clock()
        if response is None or not response.get("ok"):
            raise RuntimeError(f"server refused the query: {response}")
        result = result_from_dict(response["result"])
        t4 = clock()
        stages = [
            ("frontend.protocol.encode_query", t0, t1),
            ("frontend.service.wait", t1, t2),
            ("frontend.service.read_frame", t2, t3),
            ("frontend.protocol.decode_result", t3, t4),
        ]
        return result, response.get("service") or {}, stages, request, response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class ServiceShared(_Served):
    name = "service_shared"
    why = (
        "bursts of 2 overlapping queries on 2 connections to an ADRServer child: admission, "
        "batching, scan sharing, protocol and wire; kernels as in probe_warm"
    )
    callers = 2
    root = "frontend.service.burst"

    def _queries(self) -> List[List[RangeQuery]]:
        return [[fixture.box_query(b, self.cells) for b in op["burst"]] for op in self.ops]

    def adopt(self, stack: Stack, spans: Optional[SpanLog] = None) -> None:
        super().adopt(stack, spans)
        t0 = clock()
        child = Child(self.workdir, "server", stack.chunks, None, spans is not None)
        self.children.append(child)
        child.ready()
        stack.layers[self.spawn_key] = clock() - t0
        make = WireConn if spans is not None else (lambda a: ADRClient(*a, timeout=WAIT_S))
        self.clients = [make(child.address), make(child.address)]
        # Two rendezvous per burst: one releases both queries together,
        # one tells the caller the second reply is in.
        self.gate = threading.Barrier(2, timeout=WAIT_S)
        self.job: Optional[Callable[[], object]] = None
        self.other: object = None
        self.helper = threading.Thread(target=self._second_caller, daemon=True)
        self.helper.start()

    def _second_caller(self) -> None:
        while True:
            self.gate.wait()
            if self.job is None:
                return
            try:
                self.other = self.job()
            except Exception as e:  # handed to the caller, which fails the op
                self.other = e
            self.other_done = clock()
            self.gate.wait()

    def _burst(self, first: Callable[[], object], second: Callable[[], object]):
        """Release both calls together; latency runs to the last reply."""
        self.job = second
        self.gate.wait()
        t0 = clock()
        try:
            mine = first()
        finally:
            first_done = clock()
            self.gate.wait()
        if isinstance(self.other, Exception):
            raise self.other
        return mine, self.other, t0, first_done, self.other_done

    def close(self) -> None:
        helper = getattr(self, "helper", None)
        if helper is not None and helper.is_alive():
            self.job = None
            self.gate.wait()
            helper.join(timeout=WAIT_S)
        for client in getattr(self, "clients", []):
            client.close()
        self.clients = []
        super().close()

    def run_op(self, i: int) -> Outcome:
        q0, q1 = self.queries[i]
        c0, c1 = self.clients
        r0, r1, t0, done0, done1 = self._burst(lambda: c0.query(q0), lambda: c1.query(q1))
        seconds = max(done0, done1) - t0
        return Outcome(seconds, r0.bytes_read + r1.bytes_read, [r0, r1])

    def run_traced_op(self, i: int) -> Outcome:
        q0, q1 = self.queries[i]
        c0, c1 = self.clients
        spans = self.spans
        spans.op = i
        with spans.span(self.root) as burst:
            a, b, t0, done0, done1 = self._burst(lambda: c0.query(q0), lambda: c1.query(q1))
        seconds = max(done0, done1) - t0
        # Only the connection that answered last is on the blocking
        # path; the other's stages are logged beside it.
        for answer, late in ((a, done0 >= done1), (b, done1 > done0)):
            result, service, stages, request, response = answer
            for name, start, end in stages:
                spans.add(name, start, end, burst if late else None)
            self._tally_result(result)
            self.add("frontend.protocol.request_bytes", len(json.dumps(request)))
            self.add("frontend.protocol.response_bytes", len(json.dumps(response)))
            self.add("frontend.queryservice.queue_wait_ms", 1e3 * service.get("queue_wait_s", 0.0))
            self.add("frontend.queryservice.batch_size", service.get("batch_size", 1))
            self.add("batched", service.get("batch_size", 1) > 1)
            self.add("shared_bytes", result.shared_bytes)
            self.add("read_payload", result.bytes_read)
            t = clock()
            json.dumps(result_to_dict(result))
            self.add("frontend.protocol.encode_result_ms", 1e3 * (clock() - t))
        return Outcome(seconds, a[0].bytes_read + b[0].bytes_read, [a[0], b[0]])


class _TimedShardClient(ShardClient):
    """A ``ShardClient`` that reports which shard it spoke to and when
    its partial query came back."""

    def __init__(self, address, timeout: float, shard_id: int, log: list) -> None:
        self._start = clock()
        super().__init__(address[0], address[1], timeout=timeout)
        self._shard_id = shard_id
        self._log = log

    def query_partial(self, query, deadline=None):
        result = super().query_partial(query, deadline)
        self._log.append((self._shard_id, self._start, clock(), result))
        return result


class ShardScatter(_Served):
    name = "shard_scatter"
    why = (
        "ShardRouter over 2 ShardServer children, 128x128 output grid: plan/scatter/merge and "
        "partial accumulators over the wire; the slower shard sets the latency"
    )
    cells = 128
    exact = False
    root = "shard.router.execute"
    n_shards = 2

    def build(self, directory: Path, spans: Optional[SpanLog] = None) -> Stack:
        t0 = clock()
        chunks = fixture.partition(self.items)
        t1 = clock()
        topology = ShardTopology.build(DATASET, IN_SPACE, chunks, self.n_shards)
        local = []
        for sid in range(self.n_shards):
            local.append(shard_chunks(chunks, topology.assignment, sid))
            adr, _ = self._open_adr(directory / f"shard{sid}", None)
            adr.load(DATASET, IN_SPACE, local[-1])
        stack = Stack(chunks, layers={"dataset.partition_s": t1 - t0})
        stack.extra.update(topology=topology, local=local)
        return stack

    def adopt(self, stack: Stack, spans: Optional[SpanLog] = None) -> None:
        super().adopt(stack, spans)
        t0 = clock()
        for sid, chunks in enumerate(stack.extra["local"]):
            self.children.append(
                Child(self.workdir, f"shardsrv{sid}", chunks, sid, spans is not None)
            )
        for child in self.children:
            child.ready()
        stack.layers[self.spawn_key] = clock() - t0
        endpoints = [ShardEndpoint(sid, c.address) for sid, c in enumerate(self.children)]
        self.rpcs: list = []
        if spans is None:
            self.router = ShardRouter(stack.extra["topology"], endpoints)
        else:
            shard_at = {c.address: sid for sid, c in enumerate(self.children)}
            self.router = ShardRouter(
                stack.extra["topology"], endpoints,
                client_factory=lambda a, t: _TimedShardClient(a, t, shard_at[tuple(a)], self.rpcs),
            )

    def run_op(self, i: int) -> Outcome:
        (query,) = self.queries[i]
        t0 = clock()
        result = self.router.execute(query)
        seconds = clock() - t0
        return Outcome(seconds, result.bytes_read, [result])

    def run_traced_op(self, i: int) -> Outcome:
        (query,) = self.queries[i]
        spans = self.spans
        spans.op = i
        self.rpcs.clear()
        with spans.span(self.root) as root:
            t0 = clock()
            result = self.router.execute(query)
            t1 = clock()
        # One entry per shard: a retried or hedged shard keeps the answer
        # that came back first, which is the one the router used.
        by_shard: Dict[int, tuple] = {}
        for sid, start, end, partial in self.rpcs:
            if sid not in by_shard or end < by_shard[sid][1]:
                by_shard[sid] = (start, end, partial)
        rpcs = sorted(by_shard.values(), key=lambda r: r[1])
        first = min(r[0] for r in rpcs)
        last = rpcs[-1]
        spans.add("shard.router.plan", t0, first, root)
        spans.add("shard.router.rpc", last[0], last[1], root)
        for start, end, _ in rpcs[:-1]:
            spans.add("shard.router.rpc", start, end, None)
        spans.add("shard.router.merge", last[1], t1, root)
        durations = [end - start for start, end, _ in rpcs]
        self.add("shard.router.rpc_skew", max(durations) / (sum(durations) / len(durations)))
        self._tally_result(result)
        # Replays of what the shards and the router did inside those spans.
        partials = [(sid, by_shard[sid][2]) for sid in sorted(by_shard)]
        for _, partial in partials:
            t = clock()
            encoded = json.dumps(result_to_dict(partial))
            self.add("frontend.protocol.encode_result_ms", 1e3 * (clock() - t))
            self.add("shard.partial.response_bytes", len(encoded))
            t = clock()
            result_from_dict(json.loads(encoded))
            self.add("frontend.protocol.decode_result_ms", 1e3 * (clock() - t))
        t = clock()
        combine_partials(query.spec(), query.grid, result.output_ids, partials)
        self.add("shard.partial.combine_ms", 1e3 * (clock() - t))
        return Outcome(t1 - t0, result.bytes_read, [result])


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ScanCold, ProbeWarm, ServiceShared, ShardScatter, UpdateWrite)
}
