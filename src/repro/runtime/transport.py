"""Transport abstraction for the unified phase executor.

The per-tile four-phase loop (:mod:`repro.runtime.phases`) is the same
computation whether the virtual processors share one address space or
run as forked worker hosts; what differs is how a forwarded input
segment, a ghost accumulator chunk, or a finished output chunk travels
between them.  :class:`Transport` captures exactly that surface:

- :class:`InprocTransport` backs the sequential engine.  Sends park
  the payload in an in-process mailbox (by reference -- sender and
  receiver share the address space) and the matching receive pops it
  within the same schedule step, so the "communication" costs one dict
  operation and results accumulate in :attr:`InprocTransport.results`.
- :class:`QueueTransport` backs the multiprocess backend.  Sends go
  over per-rank :class:`multiprocessing.Queue` inboxes exactly as
  before the refactor: ordered receive via :class:`_Inbox` stashing,
  ghost payloads copied before the feeder thread serializes them,
  results and per-tile heartbeats posted to the parent's result
  queue, and deterministic fault injection (worker crashes before a
  scheduled read, dropped messages at the send) consulted at the
  transport boundary.

Both transports deliver byte-identical payloads in the identical
schedule order, which is what keeps the backends bit-for-bit equal.

:class:`RecoveryPolicy` lives here too: crash detection and restart
budgets are properties of the transport layer (the in-process
transport cannot lose a worker).
"""

from __future__ import annotations

import os
import queue as queue_mod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "CRASH_EXIT_CODE",
    "InprocTransport",
    "QueueTransport",
    "RecoveryPolicy",
    "Transport",
    "message_key",
]

#: Exit code of an injected hard crash (``os._exit``), distinguishable
#: from clean exits (0) and signal deaths (negative) in diagnostics.
CRASH_EXIT_CODE = 3


def message_key(kind: str, tile: int, index: int) -> tuple:
    """The schedule key a payload travels under.

    *kind* is ``"seg"`` (forwarded reduction segments, *index* = read
    index) or ``"ghost"`` (shipped ghost accumulators, *index* =
    transfer index).  Both transports address messages by this key --
    the in-process mailbox adds the destination rank, the queue
    transport's :class:`_Inbox` stashes by it -- so it must be unique
    per destination within one execution attempt: a duplicate key
    would silently overwrite a stashed payload, and a
    :class:`RecoveryPolicy` re-execution (which replays every send
    into fresh queues) is only safe because each attempt's key space
    is disjoint by construction.  :mod:`repro.analysis.comm` checks
    that uniqueness statically (ADR604).
    """
    if kind not in ("seg", "ghost"):
        raise ValueError(f"unknown message kind {kind!r}")
    return (kind, int(tile), int(index))


@dataclass(frozen=True)
class RecoveryPolicy:
    """Worker-crash detection and recovery knobs.

    The parent detects failure two ways: a worker process that exited
    without reporting completion (liveness polling every
    ``poll_interval`` seconds, with ``grace_polls`` quiet polls of
    slack for in-flight final messages of a cleanly-exited worker),
    and a surviving worker reporting a peer timeout after waiting
    ``inbox_timeout`` seconds on its inbox.  Each failure consumes one
    of ``max_restarts`` re-executions; with ``max_restarts=0`` any
    worker death is immediately fatal (the pre-recovery behavior).
    """

    max_restarts: int = 2
    #: seconds a rank waits on its inbox before concluding a peer died
    inbox_timeout: float = 120.0
    #: seconds between parent liveness checks
    poll_interval: float = 0.5
    #: quiet polls tolerated for a zero-exit worker's final messages
    grace_polls: int = 10


class Transport:
    """How phase traffic travels between virtual processors.

    The phase executor calls these hooks in deterministic schedule
    order; a transport only moves payloads (and, for the multiprocess
    case, applies the fault-injection hooks that live at the process /
    message boundary).  Payloads must arrive byte-identical to what
    was sent -- the bit-for-bit backend equivalence rests on it.
    """

    def before_read(self, rank: int, reads_done: int) -> None:
        """Hook before rank's ``reads_done``-th scheduled read (crash
        injection point on the multiprocess transport)."""

    def send_segments(self, dst: int, tile: int, read: int, segments) -> None:
        raise NotImplementedError

    def recv_segments(self, rank: int, tile: int, read: int):
        raise NotImplementedError

    def send_ghost(self, dst: int, tile: int, transfer: int, data: np.ndarray) -> None:
        raise NotImplementedError

    def recv_ghost(self, rank: int, tile: int, transfer: int) -> np.ndarray:
        raise NotImplementedError

    def emit_result(self, output_chunk: int, values: np.ndarray) -> None:
        raise NotImplementedError

    def tile_done(self, tile: int) -> None:
        """Hook after a tile completes (heartbeat on the multiprocess
        transport)."""


class InprocTransport(Transport):
    """Mailbox transport for virtual processors in one address space.

    A send parks the payload under its schedule key; the matching
    receive -- always within the same schedule step, since every rank
    is hosted here -- pops it.  Ghost payloads travel by reference
    (the receiver combines before the sender's accumulator is
    recycled at the tile boundary), so the sequential engine pays no
    copy the pre-refactor code did not pay.
    """

    def __init__(self) -> None:
        self._mail: Dict[tuple, object] = {}
        #: local output chunk id -> finalized values (phase 4)
        self.results: Dict[int, np.ndarray] = {}

    def send_segments(self, dst: int, tile: int, read: int, segments) -> None:
        self._mail[message_key("seg", tile, read) + (int(dst),)] = segments

    def recv_segments(self, rank: int, tile: int, read: int):
        return self._mail.pop(message_key("seg", tile, read) + (int(rank),))

    def send_ghost(self, dst: int, tile: int, transfer: int, data: np.ndarray) -> None:
        self._mail[message_key("ghost", tile, transfer) + (int(dst),)] = data

    def recv_ghost(self, rank: int, tile: int, transfer: int) -> np.ndarray:
        return self._mail.pop(message_key("ghost", tile, transfer) + (int(rank),))

    def emit_result(self, output_chunk: int, values: np.ndarray) -> None:
        self.results[int(output_chunk)] = values


class _Inbox:
    """Ordered receive over an unordered queue: messages are keyed by
    schedule position and stashed until their turn comes."""

    def __init__(self, q, timeout: float) -> None:
        self._q = q
        self._timeout = timeout
        self._stash: Dict[tuple, object] = {}

    def expect(self, key: tuple):
        while key not in self._stash:
            try:
                got_key, payload = self._q.get(timeout=self._timeout)
            except queue_mod.Empty:
                raise RuntimeError(
                    f"worker timed out waiting for message {key!r}; a peer "
                    "processor likely died or its message was lost"
                ) from None
            self._stash[got_key] = payload
        return self._stash.pop(key)


class QueueTransport(Transport):
    """IPC transport for one worker host of the multiprocess backend.

    Sends put onto the destination rank's inbox queue (never blocking
    -- queues are unbounded, which is what makes the wait-chain
    deadlock-freedom argument work); receives go through a per-hosted-
    rank :class:`_Inbox` that stashes out-of-order arrivals.  Results
    and per-tile heartbeats are posted to the parent's result queue.
    Deterministic fault injection hooks in at this boundary: worker
    crashes fire before a scheduled read (``os._exit``, no goodbye
    message -- the parent's liveness polling must catch it) and
    message drops are consulted once per send.
    """

    def __init__(
        self,
        host: int,
        ranks: Sequence[int],
        inboxes,
        result_q,
        inbox_timeout: float,
        injector: Optional[object] = None,
    ) -> None:
        self.host = int(host)
        self._inboxes = inboxes
        self._result_q = result_q
        self._inbox = {
            int(p): _Inbox(inboxes[int(p)], inbox_timeout) for p in ranks
        }
        self._injector = injector

    def before_read(self, rank: int, reads_done: int) -> None:
        if self._injector is not None and self._injector.should_crash(
            rank, reads_done
        ):
            # A hard crash: no cleanup, no goodbye message -- the
            # parent's liveness polling must catch it.
            os._exit(CRASH_EXIT_CODE)

    def send_segments(self, dst: int, tile: int, read: int, segments) -> None:
        if self._injector is not None and self._injector.should_drop("seg", read):
            return
        self._inboxes[int(dst)].put((message_key("seg", tile, read), segments))

    def recv_segments(self, rank: int, tile: int, read: int):
        return self._inbox[int(rank)].expect(message_key("seg", tile, read))

    def send_ghost(self, dst: int, tile: int, transfer: int, data: np.ndarray) -> None:
        if self._injector is not None and self._injector.should_drop(
            "ghost", transfer
        ):
            return
        # Copy before put: Queue serializes in a feeder thread, and the
        # arena view is recycled next tile.
        self._inboxes[int(dst)].put((message_key("ghost", tile, transfer), data.copy()))

    def recv_ghost(self, rank: int, tile: int, transfer: int) -> np.ndarray:
        return self._inbox[int(rank)].expect(message_key("ghost", tile, transfer))

    def emit_result(self, output_chunk: int, values: np.ndarray) -> None:
        self._result_q.put(("result", int(output_chunk), values))

    def tile_done(self, tile: int) -> None:
        # Per-tile heartbeat: progress signal for the parent's
        # liveness/stall tracking.
        self._result_q.put(("tile", self.host, int(tile)))
