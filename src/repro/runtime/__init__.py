"""Query execution service: the functional engine.

Whereas :mod:`repro.sim` *times* a plan on a machine model, this
package *executes* it on real data: virtual processors hold
accumulator sets, input chunk payloads are retrieved and aggregated
edge by edge exactly as the plan dictates (including ghost-chunk
combining), and final output values are produced.  Running the same
query under FRA, SRA and DA must -- and in the test suite does --
yield the same answer as a serial reference execution, which is the
correctness proof for the planner's workload partitioning.

The per-tile four-phase loop itself lives in
:mod:`repro.runtime.phases` (one :class:`PhaseExecutor` for every
backend, over the :mod:`repro.runtime.transport` abstraction); the
sequential engine and the multiprocess backend are thin drivers around
it.
"""

from repro.runtime.engine import BatchReader, QueryResult, execute_plan
from repro.runtime.phases import PHASES, PhaseExecutor, PhaseSchedule
from repro.runtime.serial import execute_serial
from repro.runtime.transport import InprocTransport, QueueTransport, Transport

__all__ = [
    "PHASES",
    "BatchReader",
    "InprocTransport",
    "PhaseExecutor",
    "PhaseSchedule",
    "QueryResult",
    "QueueTransport",
    "Transport",
    "execute_plan",
    "execute_serial",
]
