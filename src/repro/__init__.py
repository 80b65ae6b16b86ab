"""repro: a reproduction of "Querying Very Large Multi-dimensional
Datasets in ADR" (Kurc, Chang, Ferreira, Sussman, Saltz -- SC 1999).

The Active Data Repository (ADR) integrates storage, retrieval and
processing of multi-dimensional datasets on distributed-memory
machines with disks attached to each node.  This package implements
the full system in Python:

- the chunked, declustered, indexed storage substrate
  (:mod:`repro.dataset`, :mod:`repro.store`, :mod:`repro.index`,
  :mod:`repro.decluster`);
- the user-customization services (:mod:`repro.space` for ``Map``,
  :mod:`repro.aggregation` for ``Initialize``/``Aggregate``/``Output``);
- the paper's core contribution, the query planning strategies FRA,
  SRA and DA, plus the Section-6 hybrid and cost-model extensions
  (:mod:`repro.planner`);
- two execution engines: a functional one producing real query
  answers (:mod:`repro.runtime`) and a discrete-event performance
  simulator of the 1999 IBM SP testbed (:mod:`repro.machine`,
  :mod:`repro.sim`);
- the application emulators used by the paper's evaluation
  (:mod:`repro.emulator`) and a client façade (:mod:`repro.frontend`).

Quickstart::

    from repro import ADR, RangeQuery, ibm_sp
    adr = ADR(machine=ibm_sp(8))
    adr.load("readings", space, chunks)
    result = adr.execute(RangeQuery("readings", region, mapping, grid,
                                    aggregation="mean"))
"""

from repro.frontend.adr import ADR
from repro.frontend.query import RangeQuery
from repro.machine.presets import ibm_sp, IBM_SP_COSTS
from repro.machine.config import MachineConfig, ComputeCosts
from repro.planner import (
    PlanningProblem,
    QueryPlan,
    plan_fra,
    plan_sra,
    plan_da,
    plan_hybrid,
    plan_query,
    validate_plan,
    plan_stats,
)
from repro.sim.query_sim import simulate_query, SimResult
from repro.runtime.engine import execute_plan, QueryResult
from repro.runtime.serial import execute_serial
from repro.emulator import SATEmulator, WCSEmulator, VMEmulator, EMULATORS
from repro.util.geometry import Rect

__version__ = "1.0.0"

__all__ = [
    "ADR",
    "RangeQuery",
    "Rect",
    "MachineConfig",
    "ComputeCosts",
    "ibm_sp",
    "IBM_SP_COSTS",
    "PlanningProblem",
    "QueryPlan",
    "plan_fra",
    "plan_sra",
    "plan_da",
    "plan_hybrid",
    "plan_query",
    "validate_plan",
    "plan_stats",
    "simulate_query",
    "SimResult",
    "execute_plan",
    "execute_serial",
    "QueryResult",
    "SATEmulator",
    "WCSEmulator",
    "VMEmulator",
    "EMULATORS",
    "__version__",
]
