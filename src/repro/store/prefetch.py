"""Bounded threaded read-ahead: the paper's disk/compute overlap.

The runtime's reduce phase consumes one chunk payload per scheduled
read, in the plan's deterministic read order.  Synchronously, every
read stalls the pipeline for the full disk (or injected-fault) latency
-- the barriered baseline the paper's runtime was built to avoid
("overlap disk operations, network operations and processing").

:class:`TilePrefetcher` overlaps them: background threads *issue*
reads ahead of consumption -- the current tile's remaining reads plus
a bounded look-ahead into the next tile -- in ``(node, disk, chunk
id)`` placement order, so read-ahead preserves the per-disk sequential
scans the declusterer set up.  The executor still *consumes* in
schedule order, so results stay bit-for-bit identical to the
synchronous path.

Layering: the prefetcher wraps the fully-wrapped provider (payload
cache, retries, fault injection) and is the only caller of it while
active, so per-chunk caching/retry/fault semantics are untouched and
the default single fetch thread keeps non-thread-safe wrappers (the
LRU payload cache, stateful fault specs) single-touchered.  A
provider error is captured where it fired and re-raised at the
consuming :meth:`TilePrefetcher.get` -- the exact point the
synchronous path would have raised it -- which is what keeps
``on_error='degrade'`` and the fault corpus oblivious to prefetching.

Memory bound: at most ``depth`` fetched-or-in-flight chunks of
read-ahead beyond the tile currently being consumed (the current
tile's own reads are always eligible -- they are about to be consumed
anyway, and gating them on ``depth`` could deadlock a consumer whose
schedule order differs from placement order).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["PrefetchPolicy", "TilePrefetcher", "read_batches"]


@dataclass(frozen=True)
class PrefetchPolicy:
    """Read-ahead knobs.

    ``depth`` bounds how many chunks beyond the currently-consumed
    tile may be fetched or in flight at once; ``workers`` is the fetch
    thread count (keep the default 1 unless every layer under the
    prefetcher -- cache, retry, injector -- is thread-safe).
    """

    depth: int = 4
    workers: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {self.depth}")
        if self.workers < 1:
            raise ValueError(f"prefetch workers must be >= 1, got {self.workers}")

    @classmethod
    def coerce(cls, value: Union[bool, "PrefetchPolicy", None]) -> Optional["PrefetchPolicy"]:
        """Normalize the user-facing ``prefetch=`` setting: ``None`` /
        ``False`` mean off, ``True`` means the default policy."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"prefetch must be a bool, PrefetchPolicy or None, got {value!r}"
        )


def read_batches(plan, ranks=None) -> List[List[Tuple[int, int]]]:
    """Per-tile ``(read index, dataset chunk id)`` issue batches.

    Within each tile the reads are ordered by the input chunk's
    ``(node, disk, chunk id)`` placement order, so prefetch issues
    per-disk sequential scans.  *ranks* (a container
    of processor ids) restricts the batches to reads those ranks
    perform, which is what a multiprocess worker host prefetches.
    """
    problem = plan.problem
    reads = plan.reads
    in_global = problem.input_global_ids
    sel = np.arange(len(reads), dtype=np.int64)
    if ranks is not None:
        sel = sel[np.isin(reads.proc, np.asarray(sorted(ranks), dtype=np.int64))]
    chunk = reads.chunk[sel]
    gid = in_global[chunk].astype(np.int64)
    order = np.lexsort(
        (gid, problem.inputs.disk[chunk], problem.inputs.node[chunk], reads.tile[sel])
    )
    sel = sel[order]
    bounds = np.searchsorted(reads.tile[sel], np.arange(plan.n_tiles + 1))
    return [
        [
            (int(r), int(in_global[int(reads.chunk[int(r)])]))
            for r in sel[bounds[t] : bounds[t + 1]]
        ]
        for t in range(plan.n_tiles)
    ]


class TilePrefetcher:
    """Threaded read-ahead over per-tile placement-ordered batches.

    Implements the runtime's ``ChunkSource`` protocol (``begin_tile``
    / ``get`` / ``close``).  Fetch threads claim items strictly in the
    flattened batch order -- tile by tile, placement order within each
    tile -- subject to two gates: never more than one tile ahead of
    the consumer, and at most ``policy.depth`` buffered-or-in-flight
    chunks of read-ahead beyond the consumer's current tile (current-
    tile items are always claimable; see the module docstring).

    ``reads_issued`` records the exact claim order as ``(tile, read
    index, chunk id)`` triples -- tests assert it against
    :func:`read_batches`.
    """

    def __init__(
        self,
        provider: Callable[[int], object],
        batches: Sequence[Sequence[Tuple[int, int]]],
        policy: Optional[PrefetchPolicy] = None,
    ) -> None:
        self._provider = provider
        self._policy = policy if policy is not None else PrefetchPolicy()
        self._items: List[Tuple[int, int, int]] = [
            (t, int(r), int(gid))
            for t, batch in enumerate(batches)
            for (r, gid) in batch
        ]
        self._next = 0  # next unclaimed position in issue order
        self._results: dict = {}  # read index -> ("ok", chunk) | ("err", exc)
        self._inflight = 0
        self._tile = -1  # tile the consumer is currently draining
        self._closed = False
        self.reads_issued: List[Tuple[int, int, int]] = []
        self._cv = threading.Condition()
        self._threads = [
            threading.Thread(
                target=self._work, name=f"prefetch-{k}", daemon=True
            )
            for k in range(self._policy.workers)
        ]
        for th in self._threads:
            th.start()

    # -- fetch side ------------------------------------------------------

    def _claimable_locked(self) -> bool:
        tile = self._items[self._next][0]
        if tile > self._tile + 1:
            return False  # never run more than one tile ahead
        if tile <= self._tile:
            return True  # current tile: consumer is draining it now
        return len(self._results) + self._inflight < self._policy.depth

    def _work(self) -> None:
        while True:
            with self._cv:
                while (
                    not self._closed
                    and self._next < len(self._items)
                    and not self._claimable_locked()
                ):
                    self._cv.wait()
                if self._closed or self._next >= len(self._items):
                    return
                item = self._items[self._next]
                self._next += 1
                self._inflight += 1
                self.reads_issued.append(item)
            t, r, gid = item
            try:
                result = ("ok", self._provider(gid))
            except BaseException as e:  # delivered at get(); never swallowed
                result = ("err", e)
            with self._cv:
                self._inflight -= 1
                self._results[r] = result
                # Drop the frame's reference: a captured exception's
                # traceback holds this frame, and frame -> result ->
                # exception would be a cycle that keeps the consumer's
                # whole catch-site alive until a gc pass (shared-memory
                # arena views included).
                result = None
                self._cv.notify_all()

    # -- consume side (the ChunkSource protocol) -------------------------

    def begin_tile(self, tile: int) -> None:
        with self._cv:
            self._tile = int(tile)
            self._cv.notify_all()

    def get(self, read_index: int, chunk_id: int = -1):
        """The payload (or captured error) of one scheduled read."""
        with self._cv:
            while read_index not in self._results:
                if self._closed:
                    raise RuntimeError(
                        f"prefetcher closed while read {read_index} was pending"
                    )
                self._cv.wait()
            status, payload = self._results.pop(read_index)
            self._cv.notify_all()  # a read-ahead slot freed up
        if status == "err":
            try:
                raise payload
            finally:
                # Break frame -> payload -> exception -> traceback ->
                # frame (same cycle concurrent.futures breaks): the
                # raised exception must die by refcount once handled.
                del payload
        return payload

    def close(self, timeout: float = 60.0) -> None:
        """Stop the fetch threads and join them (idempotent).

        The join is bounded: a fetch thread is only ever blocked in
        the provider or on ``_cv`` (which ``_closed`` releases), so a
        thread still alive after *timeout* seconds means a hung
        provider -- raise instead of hanging the recovery path that
        called us (every wait on the crash-recovery path must be
        bounded; lint rule ADR703 enforces the same discipline
        statically).
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for th in self._threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
        stuck = [th.name for th in self._threads if th.is_alive()]
        if stuck:
            raise RuntimeError(
                f"prefetch thread(s) {', '.join(stuck)} still alive "
                f"{timeout:.0f}s after close(); the chunk provider is hung"
            )
