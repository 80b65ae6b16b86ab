"""Generic discrete-event core: clock, FIFO resources, barriers.

Deliberately minimal -- a heap of timestamped callbacks plus a FIFO
server abstraction -- because the query simulator drives everything
through explicit dependency chains.  Determinism matters for tests:
events at equal timestamps fire in submission order (a monotone
sequence number breaks ties), so simulations are exactly repeatable.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

__all__ = ["Simulator", "Resource", "Barrier"]


class Simulator:
    """Event loop with a virtual clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule *fn* at absolute virtual time *time*."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def run(self, max_events: Optional[int] = None) -> float:
        """Drain the event heap; returns the final clock value."""
        n = 0
        heap = self._heap
        while heap:
            time, _, fn = heapq.heappop(heap)
            self.now = time
            fn()
            n += 1
            if max_events is not None and n >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events -- likely a cycle"
                )
        return self.now


class Resource:
    """A FIFO server: one operation at a time, queued arrivals.

    This is the unit everything contends on -- a disk, a CPU, one
    direction of a NIC.  ``busy_time`` accumulates total service time,
    which is how the simulator reports per-processor computation time
    and disk/network occupancy.
    """

    __slots__ = (
        "_sim", "_queue", "_busy", "busy_time", "op_count", "name", "intervals"
    )

    def __init__(self, sim: Simulator, name: str = "", record: bool = False) -> None:
        self._sim = sim
        self._queue: Deque[Tuple[float, Optional[Callable[[], None]]]] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.op_count = 0
        self.name = name
        #: (start, end) service intervals, recorded when *record* is set
        self.intervals: Optional[List[Tuple[float, float]]] = [] if record else None

    def submit(self, duration: float, on_done: Optional[Callable[[], None]] = None) -> None:
        """Enqueue an operation of *duration* seconds."""
        if duration < 0:
            raise ValueError("operation duration must be non-negative")
        self._queue.append((duration, on_done))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        duration, on_done = self._queue.popleft()
        self._busy = True
        self.busy_time += duration
        self.op_count += 1
        if self.intervals is not None and duration > 0:
            self.intervals.append((self._sim.now, self._sim.now + duration))
        self._sim.after(duration, lambda: self._finish(on_done))

    def _finish(self, on_done: Optional[Callable[[], None]]) -> None:
        self._busy = False
        if self._queue:
            self._start_next()
        if on_done is not None:
            on_done()

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)


class Barrier:
    """Fires a callback after *count* completions have been reported.

    A zero-count barrier fires immediately on construction via the
    event loop (delay 0), keeping control flow uniform.
    """

    __slots__ = ("_remaining", "_on_done", "_fired")

    def __init__(self, sim: Simulator, count: int, on_done: Callable[[], None]) -> None:
        if count < 0:
            raise ValueError("barrier count must be non-negative")
        self._remaining = count
        self._on_done = on_done
        self._fired = False
        if count == 0:
            sim.after(0.0, self._fire)

    def hit(self) -> None:
        if self._fired:
            raise RuntimeError("barrier hit after it already fired")
        self._remaining -= 1
        if self._remaining == 0:
            self._fire()
        elif self._remaining < 0:
            raise RuntimeError("barrier hit more times than its count")

    def _fire(self) -> None:
        self._fired = True
        self._on_done()
