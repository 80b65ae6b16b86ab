"""Simulate the execution of a query plan on a machine model.

Execution follows the paper's Section 2.4 exactly: for every tile the
back end runs four phases -- Initialization, Local Reduction, Global
Combine, Output Handling -- with a barrier between phases, and inside
each phase disk, network and CPU operations flow through per-resource
FIFO queues with true dependency chains ("data chunks are retrieved
and processed in a pipelined fashion").

Modeling decisions (also recorded in DESIGN.md):

- One processor per node, one CPU resource, one FIFO per local disk,
  and full-duplex NIC channels (send/receive) at the per-node link
  bandwidth; messages occupy both endpoints for ``bytes/bandwidth``
  seconds, separated by the link latency (store-and-forward).
- Under DA the paper advances tiles per processor; by default tiles
  are simulated as synchronized rounds (round ``t`` activates every
  output chunk with tile index ``t``), matching Section 2.4's
  phase-by-phase description.  ``sync_tiles=False`` switches to the
  literal Figure-6 semantics: fully asynchronous per-processor
  progression where only data dependencies (forwarded inputs, ghost
  receipts) order work -- the barrier-cost ablation.
- ``overlap=False`` models the layered architecture the paper
  contrasts against: within the local-reduction phase a processor may
  not start computing or forwarding until all its reads for the tile
  have completed, and may not aggregate received chunks before that
  either.  This is the Section 2.4 ablation.
- ``io_jitter`` multiplies each disk operation by a unit-mean
  log-normal factor, reproducing the AIX file-cache I/O fluctuation
  the paper reports for VM on large configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.plan import QueryPlan
from repro.sim.events import Barrier, Resource, Simulator

__all__ = ["SimResult", "simulate_query"]

PHASES = ("init", "reduction", "combine", "output")


@dataclass
class SimResult:
    """Outcome of one simulated query execution."""

    strategy: str
    n_procs: int
    n_tiles: int
    total_time: float
    phase_times: Dict[str, float]
    cpu_busy: np.ndarray
    disk_busy: np.ndarray
    net_out_busy: np.ndarray
    net_in_busy: np.ndarray
    sent_bytes: np.ndarray
    recv_bytes: np.ndarray
    read_bytes: np.ndarray
    #: per-resource (start, end) busy intervals; populated only when
    #: the simulation ran with record_timeline=True
    timelines: Optional[Dict[str, List[tuple]]] = None
    #: chunks the planner dropped via value-synopsis pruning; the
    #: simulated schedule already excludes them, so the priced I/O and
    #: communication reflect the pruned query
    chunks_pruned: int = 0
    bytes_pruned: int = 0

    @property
    def computation_time(self) -> float:
        """Busiest processor's CPU time (the Figure 9 c/d metric: load
        imbalance shows up here, as the paper discusses)."""
        return float(self.cpu_busy.max())

    @property
    def comm_volume_per_proc(self) -> float:
        """Mean bytes sent+received per processor (Figure 9 a/b)."""
        return float((self.sent_bytes + self.recv_bytes).mean())

    @property
    def io_time(self) -> float:
        return float(self.disk_busy.max())

    def row(self) -> str:
        return (
            f"{self.strategy:>6}: {self.total_time:8.2f} s  "
            f"(comp {self.computation_time:8.2f} s, io {self.io_time:7.2f} s, "
            f"comm {self.comm_volume_per_proc / 2**20:8.1f} MB/proc, "
            f"{self.n_tiles} tiles)"
        )


class _QuerySim:
    def __init__(
        self,
        plan: QueryPlan,
        machine: MachineConfig,
        costs: ComputeCosts,
        seed: int,
        overlap: bool,
        cached_inputs: Optional[frozenset] = None,
        record_timeline: bool = False,
        sync_tiles: bool = True,
    ) -> None:
        problem = plan.problem
        if machine.n_procs != problem.n_procs:
            raise ValueError(
                f"plan targets {problem.n_procs} processors but the machine "
                f"has {machine.n_procs}"
            )
        self.plan = plan
        self.problem = problem
        self.machine = machine
        self.costs = costs
        self.overlap = overlap
        self.cached_inputs = cached_inputs if cached_inputs is not None else frozenset()
        self.sync_tiles = sync_tiles
        self.rng = np.random.default_rng(seed)

        P = machine.n_procs
        self.sim = Simulator()
        rec = record_timeline
        self.cpu = [Resource(self.sim, f"cpu{p}", rec) for p in range(P)]
        self.disk = [
            [
                Resource(self.sim, f"disk{p}.{d}", rec)
                for d in range(machine.disks_per_node)
            ]
            for p in range(P)
        ]
        self.nic_out = [Resource(self.sim, f"out{p}", rec) for p in range(P)]
        self.nic_in = [Resource(self.sim, f"in{p}", rec) for p in range(P)]
        self._record_timeline = rec

        self.sent_bytes = np.zeros(P, dtype=np.int64)
        self.recv_bytes = np.zeros(P, dtype=np.int64)
        self.read_bytes = np.zeros(P, dtype=np.int64)
        self.phase_times = {k: 0.0 for k in PHASES}

        self._prepare()

    # ------------------------------------------------------------------
    # Static preparation: group plan traffic by tile
    # ------------------------------------------------------------------

    def _prepare(self) -> None:
        plan, problem = self.plan, self.problem
        self.n_tiles = plan.n_tiles

        # The simulator prices the very schedule the functional
        # executor walks: every per-tile grouping below comes from
        # the shared :class:`~repro.runtime.phases.PhaseSchedule`
        # (``plan.schedule()``), so simulated and measured executions
        # can never drift apart structurally.
        sched = plan.schedule()

        # Compute units: unique (tile, input chunk, processor) with the
        # number of (input, accumulator) pairs each represents.
        self.cu_tile = sched.cu_tile
        self.cu_in = sched.cu_in
        self.cu_proc = sched.cu_proc
        self.cu_pairs = sched.cu_pairs
        # Tile slice boundaries over the (sorted) unit arrays.
        self.cu_bounds = sched.cu_bounds

        # Initialization work: accumulator allocations per (tile, proc).
        self.init_counts = sched.init_counts

        # Ghost shipments per tile (global combine).
        g = plan.ghost_transfers
        self.gt_tile = g.tile[sched.gt_order]
        self.gt_out = g.chunk[sched.gt_order]
        self.gt_src = g.src[sched.gt_order]
        self.gt_dst = g.dst[sched.gt_order]
        self.gt_bounds = sched.gt_bounds

        # Output handling per tile.
        self.oh_out = sched.out_order.astype(np.int64)
        self.oh_tile = plan.tile_of_output[sched.out_order]
        self.oh_bounds = sched.out_bounds

        # Initialization-from-output chains (rare; off in the paper's
        # experiments): owners re-read existing output chunks and
        # forward to ghost holders.
        self.init_from_output = problem.init_from_output

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _jitter(self) -> float:
        sigma = self.machine.io_jitter
        if sigma <= 0:
            return 1.0
        return float(self.rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))

    def _read(self, proc: int, disk: int, nbytes: int, on_done: Callable[[], None]) -> None:
        dur = self.machine.read_time(nbytes) * self._jitter()
        self.read_bytes[proc] += nbytes
        self.disk[proc][disk].submit(dur, on_done)

    def _write(self, proc: int, disk: int, nbytes: int, on_done: Callable[[], None]) -> None:
        dur = self.machine.read_time(nbytes) * self._jitter()
        self.disk[proc][disk].submit(dur, on_done)

    def _send(self, src: int, dst: int, nbytes: int, on_done: Callable[[], None]) -> None:
        """Store-and-forward message: CPU-driven marshalling at the
        source, src out-channel, latency, dst in-channel, CPU-driven
        unmarshalling at the destination, then *on_done* there.

        The CPU legs model the SP's processor-driven message passing
        (``cpu_per_byte``); with it at zero they are free but keep the
        dependency chain identical."""
        dur = self.machine.send_time(nbytes)
        cpu_cost = self.machine.cpu_per_byte * nbytes
        self.sent_bytes[src] += nbytes
        self.recv_bytes[dst] += nbytes

        if cpu_cost > 0:
            def received() -> None:
                self.cpu[dst].submit(cpu_cost, on_done)

            def arrive() -> None:
                self.nic_in[dst].submit(dur, received)

            def marshalled() -> None:
                self.nic_out[src].submit(
                    dur, lambda: self.sim.after(self.machine.link_latency, arrive)
                )

            self.cpu[src].submit(cpu_cost, marshalled)
        else:
            def arrive() -> None:
                self.nic_in[dst].submit(dur, on_done)

            self.nic_out[src].submit(
                dur, lambda: self.sim.after(self.machine.link_latency, arrive)
            )

    # ------------------------------------------------------------------
    # Phase drivers
    # ------------------------------------------------------------------

    def _run_tile(self, t: int, on_done: Callable[[], None]) -> None:
        self._phase_init(
            t,
            lambda: self._phase_reduction(
                t,
                lambda: self._phase_combine(
                    t, lambda: self._phase_output(t, on_done)
                ),
            ),
        )

    def _timed_barrier(self, phase: str, count: int, on_done: Callable[[], None]) -> Barrier:
        start = self.sim.now

        def fire() -> None:
            self.phase_times[phase] += self.sim.now - start
            on_done()

        return Barrier(self.sim, count, fire)

    def _phase_init(self, t: int, on_done: Callable[[], None]) -> None:
        counts = self.init_counts[t]
        cpu_ops = int((counts > 0).sum())
        extra = 0
        if self.init_from_output:
            a, b = self.oh_bounds[t], self.oh_bounds[t + 1]
            # one read per output chunk + one receive per ghost holder
            extra = (b - a) + int(self.gt_bounds[t + 1] - self.gt_bounds[t])
        barrier = self._timed_barrier("init", cpu_ops + extra, on_done)
        for p in np.flatnonzero(counts):
            self.cpu[int(p)].submit(self.costs.init * int(counts[p]), barrier.hit)
        if self.init_from_output:
            problem = self.problem
            for k in range(self.oh_bounds[t], self.oh_bounds[t + 1]):
                o = int(self.oh_out[k])
                owner = int(problem.output_owner[o])
                disk = int(problem.outputs.disk[o])
                nbytes = int(problem.outputs.nbytes[o])
                holders = [int(h) for h in self.plan.holders_of(o) if int(h) != owner]

                def after_read(o=o, owner=owner, nbytes=nbytes, holders=holders) -> None:
                    barrier.hit()
                    for h in holders:
                        self._send(owner, h, nbytes, barrier.hit)

                self._read(owner, disk, nbytes, after_read)

    def _phase_reduction(self, t: int, on_done: Callable[[], None]) -> None:
        problem, machine = self.problem, self.machine
        a, b = int(self.cu_bounds[t]), int(self.cu_bounds[t + 1])
        barrier = self._timed_barrier("reduction", b - a, on_done)
        if b == a:
            return
        lr = self.costs.reduction
        in_owner = problem.input_owner
        in_disk = problem.inputs.disk
        in_bytes = problem.inputs.nbytes

        # overlap=False bookkeeping: per-proc gate that opens when all
        # of the processor's reads for this tile are done.
        gates: Optional[List[_Gate]] = None
        if not self.overlap:
            reads_per_proc = np.zeros(machine.n_procs, dtype=np.int64)
            k = a
            while k < b:
                i = int(self.cu_in[k])
                reads_per_proc[in_owner[i]] += 1
                k += 1
                while k < b and self.cu_in[k] == i and self.cu_tile[k] == t:
                    k += 1
            gates = [_Gate(int(n)) for n in reads_per_proc]

        k = a
        while k < b:
            i = int(self.cu_in[k])
            p = int(in_owner[i])
            nbytes = int(in_bytes[i])
            # Gather this read's compute units (same tile, same input).
            local_pairs = 0
            remote: List[tuple[int, int]] = []
            while k < b and int(self.cu_in[k]) == i:
                q, pairs = int(self.cu_proc[k]), int(self.cu_pairs[k])
                if q == p:
                    local_pairs += pairs
                else:
                    remote.append((q, pairs))
                k += 1

            def after_read(
                p=p, i=i, nbytes=nbytes, local_pairs=local_pairs, remote=remote
            ) -> None:
                if gates is not None:
                    gates[p].read_done()

                def do_work() -> None:
                    if local_pairs:
                        self.cpu[p].submit(lr * local_pairs, barrier.hit)
                    for q, pairs in remote:

                        def on_arrival(q=q, pairs=pairs) -> None:
                            compute = lambda: self.cpu[q].submit(lr * pairs, barrier.hit)
                            if gates is not None:
                                gates[q].when_open(compute)
                            else:
                                compute()

                        self._send(p, q, nbytes, on_arrival)

                if gates is not None:
                    gates[p].when_open(do_work)
                else:
                    do_work()

            if i in self.cached_inputs:
                # Resident from a previous query in the batch (scan
                # sharing): no disk operation, immediate availability.
                self.sim.after(0.0, after_read)
            else:
                self._read(p, int(in_disk[i]), nbytes, after_read)

    def _phase_combine(self, t: int, on_done: Callable[[], None]) -> None:
        problem = self.problem
        a, b = int(self.gt_bounds[t]), int(self.gt_bounds[t + 1])
        barrier = self._timed_barrier("combine", b - a, on_done)
        gc = self.costs.combine
        for k in range(a, b):
            o = int(self.gt_out[k])
            src, dst = int(self.gt_src[k]), int(self.gt_dst[k])
            nbytes = int(problem.acc_nbytes[o])
            self._send(
                src,
                dst,
                nbytes,
                lambda dst=dst: self.cpu[dst].submit(gc, barrier.hit),
            )

    def _phase_output(self, t: int, on_done: Callable[[], None]) -> None:
        problem = self.problem
        a, b = int(self.oh_bounds[t]), int(self.oh_bounds[t + 1])
        barrier = self._timed_barrier("output", b - a, on_done)
        oh = self.costs.output
        for k in range(a, b):
            o = int(self.oh_out[k])
            p = int(problem.output_owner[o])
            disk = int(problem.outputs.disk[o])
            nbytes = int(problem.outputs.nbytes[o])
            self.cpu[p].submit(
                oh,
                lambda p=p, disk=disk, nbytes=nbytes: self._write(
                    p, disk, nbytes, barrier.hit
                ),
            )

    # ------------------------------------------------------------------
    # Asynchronous tile progression (the Figure-6 per-processor tiles)
    # ------------------------------------------------------------------

    def _prepare_async(self) -> None:
        """Per-(tile, proc) structures for barrier-free progression."""
        P = self.machine.n_procs
        T = max(self.n_tiles, 1)
        # compute units owed per (tile, proc)
        self.n_cu_tp = np.zeros((T, P), dtype=np.int64)
        if len(self.cu_tile):
            np.add.at(self.n_cu_tp, (self.cu_tile, self.cu_proc), 1)
        # ghost messages expected per (tile, dst proc)
        self.n_gin_tp = np.zeros((T, P), dtype=np.int64)
        if len(self.gt_tile):
            np.add.at(self.n_gin_tp, (self.gt_tile, self.gt_dst), 1)
        # reads grouped per (tile, reader): list of
        # (chunk, disk, nbytes, local_pairs, [(dst, pairs), ...])
        self.reads_tp: Dict[tuple, list] = {}
        in_owner = self.problem.input_owner
        in_disk = self.problem.inputs.disk
        in_bytes = self.problem.inputs.nbytes
        k, n = 0, len(self.cu_tile)
        while k < n:
            t, i = int(self.cu_tile[k]), int(self.cu_in[k])
            p = int(in_owner[i])
            local_pairs = 0
            remote: List[tuple] = []
            while k < n and int(self.cu_tile[k]) == t and int(self.cu_in[k]) == i:
                q, pairs = int(self.cu_proc[k]), int(self.cu_pairs[k])
                if q == p:
                    local_pairs += pairs
                else:
                    remote.append((q, pairs))
                k += 1
            self.reads_tp.setdefault((t, p), []).append(
                (i, int(in_disk[i]), int(in_bytes[i]), local_pairs, remote)
            )
        # ghost sends grouped per (tile, src)
        self.gsend_tp: Dict[tuple, list] = {}
        for k in range(len(self.gt_tile)):
            self.gsend_tp.setdefault(
                (int(self.gt_tile[k]), int(self.gt_src[k])), []
            ).append((int(self.gt_out[k]), int(self.gt_dst[k])))
        # outputs grouped per (tile, owner)
        self.oh_tp: Dict[tuple, list] = {}
        owner = self.problem.output_owner
        for k in range(len(self.oh_out)):
            o = int(self.oh_out[k])
            self.oh_tp.setdefault((int(self.oh_tile[k]), int(owner[o])), []).append(o)

    def _run_async(self, on_all_done: Callable[[], None]) -> None:
        """Every processor walks its own tile sequence; the only
        cross-processor waits are message counts (forwarded-input
        aggregations and ghost receipts), exactly the coupling the data
        itself imposes.  Phase-time attribution is undefined here (the
        phases of different tiles overlap across processors)."""
        if self.init_from_output:
            raise NotImplementedError(
                "asynchronous tiles do not support init_from_output"
            )
        self._prepare_async()
        P = self.machine.n_procs
        lr, gc, oh = self.costs.reduction, self.costs.combine, self.costs.output
        problem = self.problem
        done_barrier = Barrier(self.sim, P, on_all_done)
        # acc-ready gates per (proc, tile): computes and combines into
        # a processor's tile-t accumulators wait here until its
        # initialization for tile t ran.
        init_gates: Dict[tuple, _Gate] = {
            (p, t): _Gate(1) for p in range(P) for t in range(self.n_tiles)
        }

        def start_tile(p: int, t: int) -> None:
            if t >= self.n_tiles:
                done_barrier.hit()
                return
            gate = init_gates[(p, t)]

            # completion accounting for this processor's tile
            state = {"cu": int(self.n_cu_tp[t, p]), "gin": int(self.n_gin_tp[t, p])}

            def maybe_output() -> None:
                if state["cu"] == 0 and state["gin"] == 0:
                    state["cu"] = state["gin"] = -1  # fire once
                    do_output()

            def cu_hit() -> None:
                state["cu"] -= 1
                if state["cu"] == 0:
                    do_ghost_sends()
                    maybe_output()

            def gin_hit() -> None:
                state["gin"] -= 1
                maybe_output()

            def do_ghost_sends() -> None:
                for o, dst in self.gsend_tp.get((t, p), ()):
                    nbytes = int(problem.acc_nbytes[o])

                    def combine_at(dst=dst) -> None:
                        init_gates[(dst, t)].when_open(
                            lambda: self.cpu[dst].submit(
                                gc, lambda: async_gin_hits[(dst, t)]()
                            )
                        )

                    self._send(p, dst, nbytes, combine_at)

            def do_output() -> None:
                chunks = self.oh_tp.get((t, p), [])
                bar = Barrier(self.sim, len(chunks), lambda: start_tile(p, t + 1))
                for o in chunks:
                    disk = int(problem.outputs.disk[o])
                    nbytes = int(problem.outputs.nbytes[o])
                    self.cpu[p].submit(
                        oh,
                        lambda disk=disk, nbytes=nbytes: self._write(
                            p, disk, nbytes, bar.hit
                        ),
                    )

            async_cu_hits[(p, t)] = cu_hit
            async_gin_hits[(p, t)] = gin_hit

            # A: initialization (opens the acc gate)
            alloc = int(self.init_counts[t][p])
            self.cpu[p].submit(self.costs.init * alloc, gate.read_done)

            # B: this processor's reads for the tile
            for i, disk, nbytes, local_pairs, remote in self.reads_tp.get((t, p), ()):

                def after_read(local_pairs=local_pairs, remote=remote, nbytes=nbytes) -> None:
                    if local_pairs:
                        gate.when_open(
                            lambda: self.cpu[p].submit(
                                lr * local_pairs, lambda: async_cu_hits[(p, t)]()
                            )
                        )
                    for q, pairs in remote:

                        def on_arrival(q=q, pairs=pairs) -> None:
                            init_gates[(q, t)].when_open(
                                lambda: self.cpu[q].submit(
                                    lr * pairs, lambda: async_cu_hits[(q, t)]()
                                )
                            )

                        self._send(p, q, nbytes, on_arrival)

                if i in self.cached_inputs:
                    self.sim.after(0.0, after_read)
                else:
                    self._read(p, disk, nbytes, after_read)

            # degenerate tiles complete immediately
            if state["cu"] == 0:
                do_ghost_sends()
            maybe_output()

        async_cu_hits: Dict[tuple, Callable[[], None]] = {}
        async_gin_hits: Dict[tuple, Callable[[], None]] = {}
        for p in range(P):
            start_tile(p, 0)

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        done = {"flag": False}

        def finish() -> None:
            done["flag"] = True

        if self.sync_tiles:
            def next_tile(t: int) -> None:
                if t >= self.n_tiles:
                    finish()
                    return
                self._run_tile(t, lambda: next_tile(t + 1))

            next_tile(0)
        elif self.n_tiles > 0:
            self._run_async(finish)
        else:
            finish()
        total = self.sim.run()
        if not done["flag"] and self.n_tiles > 0:
            raise RuntimeError("simulation ended before all tiles completed")
        return SimResult(
            strategy=self.plan.strategy,
            n_procs=self.machine.n_procs,
            n_tiles=self.n_tiles,
            total_time=total,
            phase_times=dict(self.phase_times),
            cpu_busy=np.asarray([r.busy_time for r in self.cpu]),
            disk_busy=np.asarray(
                [sum(d.busy_time for d in disks) for disks in self.disk]
            ),
            net_out_busy=np.asarray([r.busy_time for r in self.nic_out]),
            net_in_busy=np.asarray([r.busy_time for r in self.nic_in]),
            sent_bytes=self.sent_bytes.copy(),
            recv_bytes=self.recv_bytes.copy(),
            read_bytes=self.read_bytes.copy(),
            timelines=self._collect_timelines() if self._record_timeline else None,
            chunks_pruned=self.problem.n_pruned,
            bytes_pruned=self.problem.pruned_bytes,
        )

    def _collect_timelines(self) -> Dict[str, List[tuple]]:
        out: Dict[str, List[tuple]] = {}
        for r in self.cpu + self.nic_out + self.nic_in:
            out[r.name] = list(r.intervals or [])
        for disks in self.disk:
            for r in disks:
                out[r.name] = list(r.intervals or [])
        return out


class _Gate:
    """overlap=False helper: queues actions until N reads complete."""

    __slots__ = ("_remaining", "_pending")

    def __init__(self, n_reads: int) -> None:
        self._remaining = n_reads
        self._pending: Optional[List[Callable[[], None]]] = [] if n_reads else None

    def read_done(self) -> None:
        self._remaining -= 1
        if self._remaining == 0 and self._pending is not None:
            pending, self._pending = self._pending, None
            for fn in pending:
                fn()

    def when_open(self, fn: Callable[[], None]) -> None:
        if self._pending is None:
            fn()
        else:
            self._pending.append(fn)


def simulate_query(
    plan: QueryPlan,
    machine: MachineConfig,
    costs: ComputeCosts,
    seed: int = 0,
    overlap: bool = True,
    cached_inputs: Optional[frozenset] = None,
    record_timeline: bool = False,
    sync_tiles: bool = True,
) -> SimResult:
    """Simulate executing *plan* on *machine* with per-chunk *costs*.

    Returns a :class:`SimResult` with the total elapsed (virtual) time,
    per-phase times, and per-processor CPU/disk/network occupancy and
    traffic -- everything Figures 8 and 9 plot.

    ``cached_inputs`` names (problem-local) input chunk ids already
    resident in memory from a preceding query of the same batch; their
    retrievals cost no disk time (see
    :func:`repro.planner.batch.simulate_batch`).

    ``record_timeline`` attaches per-resource busy intervals to the
    result for rendering with :mod:`repro.sim.timeline`.

    ``sync_tiles=False`` switches to asynchronous per-processor tile
    progression (the literal Figure-6 semantics for DA: "Tile(p)"
    counters per processor): the global per-tile phase barriers are
    replaced by the message-count waits the data itself imposes.
    Per-phase time attribution is undefined in this mode
    (``phase_times`` stays zero).
    """
    return _QuerySim(
        plan, machine, costs, seed, overlap, cached_inputs, record_timeline,
        sync_tiles,
    ).run()
