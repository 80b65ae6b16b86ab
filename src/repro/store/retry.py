"""Retry with exponential backoff and a per-read deadline.

A disk farm the size the paper assumes (Section 2: "multiple disks
attached to these nodes") sees transient read failures as a matter of
course; aborting a whole multi-gigabyte query over one flaky read is
not acceptable.  :class:`RetryPolicy` is the knob: how many attempts,
how the backoff grows, and how much wall-clock one logical read may
consume before its last error is surfaced.

One wiring point: :class:`RetryingChunkStore` wraps *any* store
(memory, faulty, file); the ADR facade's ``retry=`` parameter installs
it under the payload cache.

Semantics that matter to callers:

- Only ``retry_on`` exceptions are retried -- by default transient
  classes (``OSError``, which covers injected faults, and
  :class:`~repro.store.format.CorruptChunkError`, since a re-read can
  survive a transient bus or cache corruption).  ``KeyError`` (chunk
  absent) is never transient and always propagates immediately.
- When attempts or the deadline run out, the **last underlying
  exception** is re-raised unchanged -- callers keep matching on
  ``CorruptChunkError`` / ``OSError``, never on a wrapper type.
- The deadline is checked *before* sleeping: a backoff that would
  overrun the per-read budget is not slept, the read fails now.

``clock``/``sleep`` are injectable, so the backoff arithmetic is
testable on a fake clock without real waiting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.store.chunk_store import ChunkStore, ChunkStoreStage, ReadSlot
from repro.store.format import CorruptChunkError

__all__ = ["RetryPolicy", "RetryingChunkStore", "DEFAULT_RETRY_ON"]

#: Exception classes retried by default (transient by nature).
DEFAULT_RETRY_ON: Tuple[Type[BaseException], ...] = (OSError, CorruptChunkError)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule plus a per-read deadline.

    Attempt *k* (0-based) that fails sleeps
    ``min(base_delay * multiplier**k, max_delay)`` seconds before
    attempt *k+1*, until ``max_attempts`` attempts have been made or
    the accumulated wall clock (including the upcoming sleep) would
    exceed ``deadline`` seconds.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    #: wall-clock budget for one logical read, in seconds (None = no cap)
    deadline: Optional[float] = None
    retry_on: Tuple[Type[BaseException], ...] = field(default=DEFAULT_RETRY_ON)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    def delay(self, attempt: int) -> float:
        """Backoff slept after failed attempt *attempt* (0-based)."""
        return min(self.base_delay * self.multiplier**attempt, self.max_delay)

    def delays(self) -> Iterator[float]:
        """The full backoff schedule (``max_attempts - 1`` entries)."""
        return (self.delay(k) for k in range(self.max_attempts - 1))

    def run_batch(
        self,
        fn: Callable[[Sequence], List],
        keys: Sequence,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> List:
        """Call ``fn(keys)`` -- one slot per key, a value or its error --
        and re-issue the ``retry_on`` errors (never ``KeyError``) as one
        call per round.  Each key has its own attempt budget and the
        deadline from the batch's start, and keeps its last error."""
        start = clock()
        out = list(fn(keys))
        pending = range(len(out))
        for attempt in range(self.max_attempts - 1):
            pending = [
                i for i in pending
                if isinstance(out[i], self.retry_on) and not isinstance(out[i], KeyError)
            ]
            if not pending:
                break
            pause = self.delay(attempt)
            if self.deadline is not None and (clock() - start) + pause > self.deadline:
                break
            sleep(pause)
            for i, slot in zip(pending, fn([keys[i] for i in pending])):
                out[i] = slot
        return out


class RetryingChunkStore(ChunkStoreStage):
    """Apply a :class:`RetryPolicy` to every read of the wrapped store.

    A batch is retried by :meth:`RetryPolicy.run_batch`: each round
    re-reads only the failed slots, in one inner batch, and each chunk
    keeps its own attempt budget and deadline, whatever ``(node, disk,
    chunk id)`` placement order the caller reads in.
    """

    def __init__(self, inner: ChunkStore, policy: RetryPolicy) -> None:
        super().__init__(inner)
        self.policy = policy

    def read_batch(self, dataset: str, chunk_ids: Sequence[int]) -> List[ReadSlot]:
        return self.policy.run_batch(
            lambda ids: self.inner.read_batch(dataset, ids), list(chunk_ids)
        )
