"""Measured-run telemetry: the raw material of cost-model calibration.

Section 6 of the paper asks for "simple but reasonably accurate cost
models to guide and automate the selection of an appropriate
strategy".  An accurate model needs measured data: the functional
backends report real per-phase wall-clock (``QueryResult.phase_times``)
and the discrete-event simulator reports the same per virtual phase.
This module harvests those measurements into :class:`MeasuredRun`
records -- one per executed query, pairing the plan's busiest-processor
work features with the observed per-phase times -- and persists them in
a JSONL :class:`TelemetryLog` so calibration
(:mod:`repro.planner.calibrate`) can fit machine constants across many
runs, machines and sessions.

A record is deliberately *self-contained*: it stores the extracted
feature vector, not the plan, so logs stay small, survive schema-stable
across dataset reloads, and can be fitted without replanning anything.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.planner.plan import QueryPlan
from repro.planner.stats import LoadGrids, load_grids

__all__ = [
    "CANONICAL_PHASES",
    "FEATURES",
    "MeasuredRun",
    "TelemetryLog",
    "grid_features",
    "plan_features",
]

#: Canonical phase keys used throughout telemetry and calibration
#: (the simulator's names; the runtime's ``initialize``/``reduce`` are
#: normalized on ingestion).
CANONICAL_PHASES = ("init", "reduction", "combine", "output")

_PHASE_ALIASES = {
    "init": "init",
    "initialize": "init",
    "reduction": "reduction",
    "reduce": "reduction",
    "combine": "combine",
    "output": "output",
}

#: Busiest-processor work features extracted from a plan, the
#: regressors of the per-phase cost equations (see docs/planning.md).
FEATURES = (
    "init_chunks",
    "reduction_pairs",
    "read_count",
    "read_bytes",
    "lr_messages",
    "combine_ops",
    "gc_messages",
    "output_chunks",
    "write_bytes",
)


def grid_features(grids: LoadGrids) -> Dict[str, np.ndarray]:
    """Busiest-processor work quantities of every candidate of
    *grids*, one ``(S,)`` array per name of :data:`FEATURES`.

    Each phase's cost is about the busiest processor's busiest
    resource; these are the per-resource maxima of the whole-query
    totals that the calibrated model prices.  Chunks the problem marks
    as prunable are not in the grids -- execution will skip them.
    """
    g = grids
    read_count, read_bytes = g.read_totals()
    totals = {
        "init_chunks": g.totals(g.allocs),
        "reduction_pairs": g.totals(g.pairs),
        "read_count": read_count,
        "read_bytes": read_bytes,
        "lr_messages": g.totals(g.lr_messages),
        "combine_ops": g.totals(g.combine_ops),
        "gc_messages": g.totals(g.gc_messages),
        "output_chunks": g.totals(g.outputs),
        "write_bytes": g.totals(g.write_bytes),
    }
    return {name: totals[name].max(axis=1) for name in FEATURES}


def plan_features(plan: QueryPlan) -> Dict[str, float]:
    """:func:`grid_features` of one plan."""
    features = grid_features(load_grids([plan]))
    return {name: float(value[0]) for name, value in features.items()}


def _normalize_phase_times(times: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in times.items():
        canon = _PHASE_ALIASES.get(str(key))
        if canon is None:
            continue
        out[canon] = out.get(canon, 0.0) + float(value)
    return out


@dataclass(frozen=True)
class MeasuredRun:
    """One executed query's plan features + observed per-phase times.

    ``phase_times`` uses the canonical keys of
    :data:`CANONICAL_PHASES`; ``features`` the keys of
    :data:`FEATURES`.  ``source`` records where the times came from
    (``"measured"`` for backend wall-clock, ``"simulated"`` for the
    discrete-event simulator) so mixed logs can be filtered before
    fitting.
    """

    strategy: str
    n_procs: int
    n_tiles: int
    phase_times: Dict[str, float]
    features: Dict[str, float]
    source: str = "measured"
    total_time: float = 0.0
    chunks_pruned: int = 0
    bytes_pruned: int = 0

    @classmethod
    def from_result(cls, plan: QueryPlan, result) -> "MeasuredRun":
        """Harvest a run from a functional backend's ``QueryResult``."""
        times = _normalize_phase_times(dict(result.phase_times))
        return cls(
            strategy=str(plan.strategy),
            n_procs=int(plan.problem.n_procs),
            n_tiles=int(plan.n_tiles),
            phase_times=times,
            features=plan_features(plan),
            source="measured",
            total_time=float(sum(times.values())),
            chunks_pruned=int(result.chunks_pruned),
            bytes_pruned=int(result.bytes_pruned),
        )

    @classmethod
    def from_sim(cls, plan: QueryPlan, sim) -> "MeasuredRun":
        """Harvest a run from a discrete-event ``SimResult``."""
        times = _normalize_phase_times(dict(sim.phase_times))
        return cls(
            strategy=str(plan.strategy),
            n_procs=int(plan.problem.n_procs),
            n_tiles=int(plan.n_tiles),
            phase_times=times,
            features=plan_features(plan),
            source="simulated",
            total_time=float(sim.total_time),
            chunks_pruned=int(sim.chunks_pruned),
            bytes_pruned=int(sim.bytes_pruned),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "n_procs": self.n_procs,
            "n_tiles": self.n_tiles,
            "phase_times": {k: float(v) for k, v in self.phase_times.items()},
            "features": {k: float(v) for k, v in self.features.items()},
            "source": self.source,
            "total_time": float(self.total_time),
            "chunks_pruned": self.chunks_pruned,
            "bytes_pruned": self.bytes_pruned,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "MeasuredRun":
        try:
            return cls(
                strategy=str(d["strategy"]),
                n_procs=int(d["n_procs"]),
                n_tiles=int(d["n_tiles"]),
                phase_times=_normalize_phase_times(dict(d["phase_times"])),
                features={str(k): float(v) for k, v in dict(d["features"]).items()},
                source=str(d.get("source", "measured")),
                total_time=float(d.get("total_time", 0.0)),
                chunks_pruned=int(d.get("chunks_pruned", 0)),
                bytes_pruned=int(d.get("bytes_pruned", 0)),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"bad MeasuredRun record: {e}") from e


class TelemetryLog:
    """Append-only JSONL persistence for :class:`MeasuredRun` records.

    One record per line; appends are atomic at line granularity and
    serialized by an internal lock, so the concurrent query service can
    record from several worker threads into one log.  Loading skips
    blank lines but raises on malformed records -- a corrupt log should
    fail calibration loudly, not silently thin the data.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()

    def append(self, run: MeasuredRun) -> None:
        line = json.dumps(run.to_dict(), sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def extend(self, runs: Iterable[MeasuredRun]) -> None:
        for run in runs:
            self.append(run)

    def load(self) -> List[MeasuredRun]:
        if not os.path.exists(self.path):
            return []
        out: List[MeasuredRun] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(MeasuredRun.from_dict(json.loads(line)))
                except ValueError as e:
                    raise ValueError(
                        f"{self.path}:{lineno}: {e}"
                    ) from e
        return out

    def __len__(self) -> int:
        return len(self.load())
