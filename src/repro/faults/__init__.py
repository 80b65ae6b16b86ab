"""Deterministic fault injection for the query-execution stack.

ADR queries span many disks on many nodes; this package makes the
failures such a deployment actually sees -- I/O errors, bit-rot,
slow disks, dead shards, torn frames -- injectable on demand and
reproducible by seed, so the recovery machinery (chunk CRCs, retry
policies, degraded results, shard failover) is tested against real
failure paths rather than hand-mocked exceptions.

- :class:`FaultPlan` / :class:`FaultSpec` -- declarative, seedable
  fault scenarios (pure data);
- :class:`FaultInjector` -- interprets a plan at the injection points;
- :class:`FaultyChunkStore` -- wraps any chunk store with read faults;
- :class:`InjectedFault` -- the ``OSError`` raised for injected I/O
  failures;
- :class:`WireFaultPlan` / :class:`WireFaultSpec` /
  :class:`ChaosProxy` -- wire-level faults (refused connections, torn
  and corrupted frames, slow peers) for the sharded deployment.

See ``docs/robustness.md`` for the fault model and recovery contracts.
"""

from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.store import FaultyChunkStore
from repro.faults.wire import (
    WIRE_FAULT_KINDS,
    ChaosProxy,
    WireFaultPlan,
    WireFaultSpec,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "FaultyChunkStore",
    "WIRE_FAULT_KINDS",
    "WireFaultSpec",
    "WireFaultPlan",
    "ChaosProxy",
]
