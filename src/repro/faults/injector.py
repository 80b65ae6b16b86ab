"""The fault injector: interprets a :class:`~repro.faults.plan.FaultPlan`.

One injector instance is threaded through the execution stack and
consulted at chunk reads: :meth:`FaultInjector.read_batch` (behind
:class:`repro.faults.store.FaultyChunkStore`, the one place read
faults are injected) consults
:meth:`FaultInjector.read_faults` per slot of a batch, in order, and
can fail a slot with :class:`InjectedFault` (an ``OSError``), stall the
read, or corrupt the payload so the on-disk CRC trips a real
:class:`~repro.store.format.CorruptChunkError`.

``times`` counters live in the injector instance, so every read that
consults one injector draws on the same firing budget.
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

    def fire(self) -> bool:
        spec = self.spec
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
        self._states = [
            _SpecState(spec, rng)
            for spec, rng in zip(plan.specs, spawn_rngs(plan.seed, max(len(plan), 1)))
        ]
        self.fired: List[FaultSpec] = []

    def read_faults(self, dataset: Optional[str], chunk_id: int) -> List[FaultSpec]:
        """Fire every armed spec matching this read.

        Returns the fired specs in plan order; the caller applies them
        (delay first, then raise/corrupt -- see :func:`apply_read_faults`).
        """
        hits = [
            state.spec for state in self._states
            if state.spec.dataset in (None, dataset)
            and state.spec.chunk_id in (None, int(chunk_id))
            and state.fire()
        ]
        self.fired += hits
        return hits

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
