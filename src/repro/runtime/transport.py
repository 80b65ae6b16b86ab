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
  over per-rank :class:`multiprocessing.Queue` inboxes, receives stash
  out-of-order arrivals by schedule key, ghost payloads are copied
  before the feeder thread serializes them, and results are posted to
  the parent's result queue.

Both transports deliver byte-identical payloads in the identical
schedule order, which is what keeps the backends bit-for-bit equal.
"""

from __future__ import annotations

import queue as queue_mod
from typing import Dict

import numpy as np

__all__ = ["InprocTransport", "QueueTransport", "Transport", "message_key"]

#: seconds a rank waits on its inbox before it fails; the parent has
#: long since failed the query if the peer it waits on died
_INBOX_TIMEOUT_S = 120.0


def message_key(kind: str, tile: int, index: int) -> tuple:
    """The schedule key a payload travels under.

    *kind* is ``"seg"`` (forwarded reduction segments, *index* = read
    index) or ``"ghost"`` (shipped ghost accumulators, *index* =
    transfer index).  Both transports address messages by this key --
    the in-process mailbox adds the destination rank, the queue
    transport's stash holds one payload per key -- so it must be
    unique per destination within one query.  The schedule keeps it
    unique (one message per read and recipient, one per ghost
    transfer); :class:`QueueTransport` refuses a second payload under
    a key it still holds rather than overwrite the first.
    """
    if kind not in ("seg", "ghost"):
        raise ValueError(f"unknown message kind {kind!r}")
    return (kind, int(tile), int(index))


class Transport:
    """How phase traffic travels between virtual processors.

    The phase executor calls these in deterministic schedule order; a
    transport only moves payloads.  Payloads must arrive byte-identical
    to what was sent -- the bit-for-bit backend equivalence rests on it.
    """

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


class QueueTransport(Transport):
    """IPC transport for the worker host of one rank.

    Sends put onto the destination rank's inbox queue (never blocking
    -- queues are unbounded, which is what makes the wait-chain
    deadlock-freedom argument work); receives read this rank's inbox,
    stashing out-of-order arrivals by key until their turn comes; a
    second arrival under a stashed key is a ``RuntimeError``.  Results
    are posted to the parent's result queue.
    """

    def __init__(self, rank: int, inboxes, result_q) -> None:
        self._inboxes = inboxes
        self._inbox = inboxes[int(rank)]
        self._result_q = result_q
        self._stash: Dict[tuple, object] = {}

    def _expect(self, key: tuple):
        while key not in self._stash:
            try:
                got_key, payload = self._inbox.get(timeout=_INBOX_TIMEOUT_S)
            except queue_mod.Empty:
                raise RuntimeError(
                    f"worker timed out waiting for message {key!r}"
                ) from None
            if got_key in self._stash:
                raise RuntimeError(f"worker received message {got_key!r} twice")
            self._stash[got_key] = payload
        return self._stash.pop(key)

    def send_segments(self, dst: int, tile: int, read: int, segments) -> None:
        self._inboxes[int(dst)].put((message_key("seg", tile, read), segments))

    def recv_segments(self, rank: int, tile: int, read: int):
        return self._expect(message_key("seg", tile, read))

    def send_ghost(self, dst: int, tile: int, transfer: int, data: np.ndarray) -> None:
        # Copy before put: Queue serializes in a feeder thread, and the
        # arena view is recycled next tile.
        self._inboxes[int(dst)].put((message_key("ghost", tile, transfer), data.copy()))

    def recv_ghost(self, rank: int, tile: int, transfer: int) -> np.ndarray:
        return self._expect(message_key("ghost", tile, transfer))

    def emit_result(self, output_chunk: int, values: np.ndarray) -> None:
        self._result_q.put(("result", int(output_chunk), values))
