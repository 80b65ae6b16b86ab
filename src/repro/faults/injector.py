"""The fault injector: interprets a :class:`~repro.faults.plan.FaultPlan`.

One injector instance is threaded through the execution stack and
consulted at three kinds of injection point:

- **chunk reads** -- :meth:`FaultInjector.read_batch` (behind
  :class:`repro.faults.store.FaultyChunkStore` and
  :meth:`FaultInjector.wrap_provider`) consults
  :meth:`FaultInjector.read_faults` per slot of a batch, in order, and
  can fail a slot with :class:`InjectedFault` (an ``OSError``), stall
  the read, or corrupt the payload so the on-disk CRC trips a real
  :class:`~repro.store.format.CorruptChunkError`;
- **worker loops** -- :meth:`FaultInjector.should_crash` tells a
  parallel worker to hard-exit before processing a scheduled read;
- **IPC queues** -- :meth:`FaultInjector.should_drop` tells the
  parallel backend to silently drop a forward/ghost message.

State notes: ``times`` counters live in the consulting process.  The
parallel backend forks workers, so each worker counts its own firings;
cross-restart one-shot behavior for crashes and drops comes from the
spec's ``attempt`` scoping (the parent bumps
:attr:`FaultInjector.attempt` before each re-execution), not from
shared counters.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.dataset.chunk import Chunk
from repro.faults.plan import FaultPlan, FaultSpec
from repro.store.format import CorruptChunkError, decode_chunk, encode_chunk
from repro.util.rng import spawn_rngs

__all__ = ["InjectedFault", "FaultInjector", "corruption"]


class InjectedFault(OSError):
    """A deterministic, injector-raised I/O failure.

    Subclasses ``OSError`` so retry policies and degraded execution
    treat it exactly like a real disk error.
    """


def corruption(chunk: Chunk) -> CorruptChunkError:
    """The error decoding *chunk* raises once re-encoded with one payload
    byte flipped (inside the CRC-covered body, so decoding always fails)."""
    data = bytearray(encode_chunk(chunk))
    data[-1] ^= 0xFF
    try:
        decode_chunk(bytes(data))
    except CorruptChunkError as e:
        return e
    raise AssertionError("a flipped payload byte passed the CRC")


class _SpecState:
    """A spec plus its mutable firing state (counter + rng stream)."""

    __slots__ = ("spec", "remaining", "rng")

    def __init__(self, spec: FaultSpec, rng) -> None:
        self.spec = spec
        self.remaining = spec.times  # None = unlimited
        self.rng = rng

    def fire(self, attempt: int) -> bool:
        spec = self.spec
        if spec.attempt is not None and spec.attempt != attempt:
            return False
        if self.remaining is not None and self.remaining <= 0:
            return False
        if spec.p < 1.0 and float(self.rng.uniform()) >= spec.p:
            return False
        if self.remaining is not None:
            self.remaining -= 1
        return True


class FaultInjector:
    """Deterministic interpreter of one fault plan.

    ``sleep`` is injectable so slow-read tests run on a fake clock.
    """

    def __init__(self, plan: FaultPlan, sleep: Callable[[float], None] = time.sleep):
        self.plan = plan
        self.sleep = sleep
        #: current parallel execution attempt (bumped by the parent on
        #: each crash-recovery re-execution; irrelevant elsewhere)
        self.attempt = 0
        self._states = [
            _SpecState(spec, rng)
            for spec, rng in zip(plan.specs, spawn_rngs(plan.seed, max(len(plan), 1)))
        ]
        self.fired: List[FaultSpec] = []

    # -- matching ---------------------------------------------------------

    def _fire_matching(self, predicate) -> List[FaultSpec]:
        hits: List[FaultSpec] = []
        for state in self._states:
            if predicate(state.spec) and state.fire(self.attempt):
                hits.append(state.spec)
                self.fired.append(state.spec)
        return hits

    # -- chunk-read faults ------------------------------------------------

    def read_faults(self, dataset: Optional[str], chunk_id: int) -> List[FaultSpec]:
        """Fire every armed read-level spec matching this read.

        Returns the fired specs in plan order; the caller applies them
        (delay first, then raise/corrupt -- see :func:`apply_read_faults`).
        """

        def matches(spec: FaultSpec) -> bool:
            if spec.kind not in ("io_error", "corrupt", "slow_read"):
                return False
            if spec.dataset is not None and spec.dataset != dataset:
                return False
            return spec.chunk_id is None or int(spec.chunk_id) == int(chunk_id)

        return self._fire_matching(matches)

    def apply_read_faults(self, dataset: Optional[str], chunk_id: int) -> bool:
        """Consult and apply pre-read faults; returns True when the
        payload of the upcoming read must be corrupted by the caller."""
        corrupt = False
        for spec in self.read_faults(dataset, chunk_id):
            if spec.kind == "slow_read":
                self.sleep(spec.delay)
            elif spec.kind == "io_error":
                raise InjectedFault(
                    f"injected I/O error reading chunk {chunk_id}"
                    + (f" of {dataset!r}" if dataset else "")
                )
            else:  # corrupt
                corrupt = True
        return corrupt

    def read_batch(self, read, dataset: Optional[str], chunk_ids: Sequence[int]) -> list:
        """``read(ids)``, a batch reader, under this plan's read faults,
        consulted per slot in order, so they fire as one read at a time
        would.  An ``io_error`` slot is not read; a ``corrupt`` slot is
        read, then holds the :func:`corruption` a rotten file raises."""
        out: list = [None] * len(chunk_ids)
        corrupt = []
        for i, chunk_id in enumerate(chunk_ids):
            try:
                if self.apply_read_faults(dataset, chunk_id):
                    corrupt.append(i)
            except InjectedFault as e:
                out[i] = e
        live = [i for i, slot in enumerate(out) if slot is None]
        for i, slot in zip(live, read([chunk_ids[i] for i in live])):
            out[i] = slot
        for i in corrupt:
            if isinstance(out[i], Chunk):
                out[i] = corruption(out[i])
        return out

    def wrap_provider(self, provider, dataset: Optional[str] = None):
        """Wrap a batch chunk provider (ids -> slots) with read-fault
        injection (:meth:`read_batch`)."""
        return lambda chunk_ids: self.read_batch(provider, dataset, chunk_ids)

    # -- worker-loop faults -----------------------------------------------

    def should_crash(self, rank: int, reads_done: int) -> bool:
        """True when virtual processor *rank*, about to process its
        (reads_done+1)-th scheduled read, must hard-crash."""

        def matches(spec: FaultSpec) -> bool:
            return (
                spec.kind == "worker_crash"
                and int(spec.rank) == int(rank)
                and int(spec.after_reads) == int(reads_done)
            )

        return bool(self._fire_matching(matches))

    # -- IPC faults ---------------------------------------------------------

    def should_drop(self, message_kind: str, message_index: int) -> bool:
        """True when the forward/ghost message keyed by
        ``(message_kind, message_index)`` must be silently dropped."""

        def matches(spec: FaultSpec) -> bool:
            if spec.kind != "drop_message":
                return False
            if spec.message_kind is not None and spec.message_kind != message_kind:
                return False
            return (
                spec.message_index is None
                or int(spec.message_index) == int(message_index)
            )

        return bool(self._fire_matching(matches))
