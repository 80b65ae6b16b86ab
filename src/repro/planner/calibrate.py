"""Fit the cost model's machine constants from measured runs.

``planner/costmodel.py`` prices plans from hand-entered machine
constants; this module closes the sim/real loop the ROADMAP asks for
by *fitting* those constants from :class:`~repro.planner.telemetry.
MeasuredRun` records.  Per run, each of the four phases contributes
one linear equation in the unknown constants -- the busiest
processor's work quantities times per-unit costs::

    t_init      ~  c_init      * init_chunks
    t_reduction ~  c_reduction * reduction_pairs
                 + read_bytes  / read_bandwidth
                 + c_message   * lr_messages
    t_combine   ~  c_combine   * combine_ops
                 + c_message   * gc_messages
    t_output    ~  c_output    * output_chunks
                 + write_bytes / read_bandwidth

The phase cost is really the busiest resource's *maximum*, not a sum;
summing the busiest-processor terms linearizes that, and the fitted
constants absorb the overlap factor -- which is exactly why fitting
beats hand-entering datasheet numbers.  The solve is non-negative
least squares over the stacked equations (a negative per-unit cost is
meaningless); constants whose regressor never appears in the data are
reported as unidentified rather than silently zeroed into conclusions.

Too little or too degenerate data raises a loud
:class:`CalibrationError` -- an auto-selection pipeline must never
quietly run on an unfittable model.

CLI::

    python -m repro.planner.calibrate --log telemetry.jsonl --out model.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.planner.costmodel import CostEstimate
from repro.planner.plan import QueryPlan
from repro.planner.stats import load_grids
from repro.planner.telemetry import (
    CANONICAL_PHASES,
    FEATURES,
    MeasuredRun,
    TelemetryLog,
    grid_features,
)

__all__ = [
    "CONSTANTS",
    "CalibrationError",
    "FitDiagnostics",
    "CalibratedCostModel",
    "calibrate",
    "main",
]

#: The fitted machine constants, in design-matrix column order:
#: per-chunk phase costs, seconds per byte through the disk path
#: (1 / effective read bandwidth), and per-message overhead.
CONSTANTS = ("init", "reduction", "combine", "output", "read_byte", "message")

#: phase -> ((constant, feature), ...): the per-phase busiest-resource
#: equations, shared by the fit and by CalibratedCostModel.estimate.
PHASE_TERMS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "init": (("init", "init_chunks"),),
    "reduction": (
        ("reduction", "reduction_pairs"),
        ("read_byte", "read_bytes"),
        ("message", "lr_messages"),
    ),
    "combine": (("combine", "combine_ops"), ("message", "gc_messages")),
    "output": (("output", "output_chunks"), ("read_byte", "write_bytes")),
}

#: Fewest runs a fit will accept by default: four phase equations per
#: run against six unknowns makes fewer than this degenerate in
#: practice even when nominally full-rank.
MIN_RUNS = 4


class CalibrationError(ValueError):
    """The measured runs cannot support a trustworthy fit (too few, or
    the design matrix is rank-deficient over the observed features)."""


@dataclass(frozen=True)
class FitDiagnostics:
    """Goodness-of-fit of one calibration."""

    n_runs: int
    n_equations: int
    #: coefficient of determination over all fitted equations
    r2: float
    #: mean |predicted - observed| / observed per phase, over the
    #: equations where the observed time is positive
    phase_rel_err: Dict[str, float]
    #: constants whose regressors never appear in the data (their
    #: fitted value is 0 by construction and means nothing)
    unidentified: Tuple[str, ...] = ()

    def summary(self) -> str:
        per_phase = ", ".join(
            f"{k} {v * 100:.0f}%" for k, v in self.phase_rel_err.items()
        )
        extra = (
            f"; unidentified: {', '.join(self.unidentified)}"
            if self.unidentified
            else ""
        )
        return (
            f"fit over {self.n_runs} runs ({self.n_equations} equations): "
            f"R^2 {self.r2:.3f}; rel err {per_phase}{extra}"
        )


@dataclass
class CalibratedCostModel:
    """A cost model whose constants were fitted from measured runs.

    Duck-type compatible with :class:`~repro.planner.costmodel.
    CostModel`: ``estimate(plan)`` returns a
    :class:`~repro.planner.costmodel.CostEstimate` and
    ``estimate_many(plans)`` one per candidate, so
    :func:`~repro.planner.select.choose_strategy` accepts either.
    Unlike the closed-form model it carries no machine description --
    everything it knows came from the data.
    """

    constants: Dict[str, float]
    diagnostics: Optional[FitDiagnostics] = None
    sources: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        missing = [c for c in CONSTANTS if c not in self.constants]
        if missing:
            raise ValueError(f"calibrated model missing constants {missing}")
        for name, value in self.constants.items():
            if float(value) < 0:
                raise ValueError(f"constant {name!r} must be non-negative")

    @property
    def read_bandwidth(self) -> float:
        """Effective bytes/second through the disk path (inf when the
        per-byte cost fitted to zero)."""
        per_byte = float(self.constants["read_byte"])
        return 1.0 / per_byte if per_byte > 0 else float("inf")

    def phase_cost(self, phase: str, features: Dict[str, np.ndarray]):
        """*phase*'s cost from *features* (floats, or arrays of one
        value per candidate)."""
        return sum(
            self.constants[const] * features.get(feat, 0.0)
            for const, feat in PHASE_TERMS[phase]
        )

    def estimate(self, plan: QueryPlan) -> CostEstimate:
        return self.estimate_many([plan])[0]

    def estimate_many(self, plans: Sequence[QueryPlan]) -> List[CostEstimate]:
        """Price candidate plans of one problem in one stacked pass (the
        :func:`~repro.planner.telemetry.grid_features` of their load
        grids through :data:`PHASE_TERMS`)."""
        features = grid_features(load_grids(plans))
        costs = [self.phase_cost(p, features) for p in CANONICAL_PHASES]
        return [
            CostEstimate(plan.strategy, *(float(c[k]) for c in costs))
            for k, plan in enumerate(plans)
        ]

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "constants": {k: float(v) for k, v in self.constants.items()},
            "sources": list(self.sources),
        }
        if self.diagnostics is not None:
            d = self.diagnostics
            out["diagnostics"] = {
                "n_runs": d.n_runs,
                "n_equations": d.n_equations,
                "r2": d.r2,
                "phase_rel_err": dict(d.phase_rel_err),
                "unidentified": list(d.unidentified),
            }
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CalibratedCostModel":
        try:
            diagnostics = None
            if "diagnostics" in d:
                dd = dict(d["diagnostics"])
                diagnostics = FitDiagnostics(
                    n_runs=int(dd["n_runs"]),
                    n_equations=int(dd["n_equations"]),
                    r2=float(dd["r2"]),
                    phase_rel_err={
                        str(k): float(v)
                        for k, v in dict(dd["phase_rel_err"]).items()
                    },
                    unidentified=tuple(dd.get("unidentified", ())),
                )
            return cls(
                constants={
                    str(k): float(v) for k, v in dict(d["constants"]).items()
                },
                diagnostics=diagnostics,
                sources=tuple(d.get("sources", ())),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"bad calibrated-model payload: {e}") from e

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CalibratedCostModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def summary(self) -> str:
        rows = [
            f"  {name:>10}: {self.constants[name]:.6g}" for name in CONSTANTS
        ]
        header = "calibrated cost model"
        if self.diagnostics is not None:
            header += f" ({self.diagnostics.summary()})"
        return "\n".join([header] + rows)


def _design(
    runs: Sequence[MeasuredRun],
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Stacked per-phase equations: (A, b, phase-per-row)."""
    rows: List[List[float]] = []
    b: List[float] = []
    phases: List[str] = []
    col = {name: i for i, name in enumerate(CONSTANTS)}
    for run in runs:
        for phase in CANONICAL_PHASES:
            if phase not in run.phase_times:
                continue
            row = [0.0] * len(CONSTANTS)
            for const, feat in PHASE_TERMS[phase]:
                row[col[const]] += float(run.features.get(feat, 0.0))
            rows.append(row)
            b.append(float(run.phase_times[phase]))
            phases.append(phase)
    return np.asarray(rows, dtype=float), np.asarray(b, dtype=float), phases


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares; scipy when available, else a
    clamped ordinary solve (adequate: negative coefficients only arise
    from noise and the clamp is re-scored by the diagnostics)."""
    try:
        from scipy.optimize import nnls

        x, _ = nnls(a, b)
        return np.asarray(x, dtype=float)
    except ImportError:  # pragma: no cover - scipy ships with the repo
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.clip(np.asarray(x, dtype=float), 0.0, None)


def calibrate(
    runs: Sequence[MeasuredRun], min_runs: int = MIN_RUNS
) -> CalibratedCostModel:
    """Fit a :class:`CalibratedCostModel` from *runs*.

    Raises :class:`CalibrationError` when there are fewer than
    *min_runs* runs, no usable phase equations, or the observed
    feature columns are linearly dependent (e.g. every run has the
    same shape, so read bytes and reduction pairs cannot be told
    apart).
    """
    runs = list(runs)
    if len(runs) < min_runs:
        raise CalibrationError(
            f"calibration needs at least {min_runs} measured runs, got "
            f"{len(runs)}; record more telemetry first"
        )
    a, b, phases = _design(runs)
    if a.size == 0 or not np.any(b > 0):
        raise CalibrationError(
            "no usable phase equations: every run is missing phase times "
            "or observed zero elapsed time"
        )
    identified = np.flatnonzero(np.any(a != 0.0, axis=0))
    unidentified = tuple(
        CONSTANTS[i] for i in range(len(CONSTANTS)) if i not in identified
    )
    if len(identified) == 0:
        raise CalibrationError("every feature column is zero; nothing to fit")
    a_id = a[:, identified]
    rank = int(np.linalg.matrix_rank(a_id))
    if rank < len(identified):
        names = [CONSTANTS[i] for i in identified]
        raise CalibrationError(
            f"degenerate design matrix: rank {rank} over {len(names)} "
            f"identified constants {names}; the runs are too homogeneous "
            "(vary strategies, sizes or processor counts)"
        )
    x = np.zeros(len(CONSTANTS))
    x[identified] = _nnls(a_id, b)

    pred = a @ x
    ss_res = float(np.sum((b - pred) ** 2))
    ss_tot = float(np.sum((b - b.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    phase_rel_err: Dict[str, float] = {}
    phase_arr = np.asarray(phases)
    for phase in CANONICAL_PHASES:
        mask = (phase_arr == phase) & (b > 0)
        if mask.any():
            phase_rel_err[phase] = float(
                np.mean(np.abs(pred[mask] - b[mask]) / b[mask])
            )
    diagnostics = FitDiagnostics(
        n_runs=len(runs),
        n_equations=len(b),
        r2=r2,
        phase_rel_err=phase_rel_err,
        unidentified=unidentified,
    )
    return CalibratedCostModel(
        constants={name: float(x[i]) for i, name in enumerate(CONSTANTS)},
        diagnostics=diagnostics,
        sources=tuple(sorted({run.source for run in runs})),
    )


# -- CLI ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.planner.calibrate",
        description=(
            "Fit the cost model's machine constants from a JSONL "
            "telemetry log of measured runs."
        ),
    )
    parser.add_argument(
        "--log", required=True, help="telemetry JSONL written by TelemetryLog"
    )
    parser.add_argument(
        "--out", required=True, help="where to write the fitted model (JSON)"
    )
    parser.add_argument(
        "--min-runs",
        type=int,
        default=MIN_RUNS,
        help=f"fewest runs to accept (default {MIN_RUNS})",
    )
    parser.add_argument(
        "--source",
        choices=("measured", "simulated", "any"),
        default="any",
        help="restrict the fit to runs from one source (default: any)",
    )
    args = parser.parse_args(argv)

    runs = TelemetryLog(args.log).load()
    if args.source != "any":
        runs = [r for r in runs if r.source == args.source]
    try:
        model = calibrate(runs, min_runs=args.min_runs)
    except CalibrationError as e:
        print(f"calibration failed: {e}", file=sys.stderr)
        return 1
    model.save(args.out)
    print(model.summary())
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
