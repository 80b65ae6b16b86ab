"""Tests for cost-model calibration from measured runs."""

import pytest

from repro.machine.presets import ibm_sp
from repro.planner.calibrate import (
    CONSTANTS,
    PHASE_TERMS,
    CalibratedCostModel,
    CalibrationError,
    calibrate,
    main,
)
from repro.planner.select import FIXED_STRATEGIES, choose_strategy
from repro.planner.strategies import plan_query
from repro.planner.telemetry import (
    CANONICAL_PHASES,
    FEATURES,
    MeasuredRun,
    TelemetryLog,
)
from repro.sim.query_sim import simulate_query

from helpers import SMALL_COSTS, make_problem

#: Ground-truth machine constants for synthetic-run generation.
TRUE = {
    "init": 2e-3,
    "reduction": 5e-4,
    "combine": 1e-3,
    "output": 3e-3,
    "read_byte": 1e-7,
    "message": 2e-4,
}


def synthetic_runs(rng, n=8, constants=TRUE):
    """Runs whose phase times follow the model equations exactly."""
    runs = []
    for _ in range(n):
        features = {name: float(rng.uniform(10, 1000)) for name in FEATURES}
        features["read_bytes"] = float(rng.uniform(1e5, 1e7))
        features["write_bytes"] = float(rng.uniform(1e4, 1e6))
        phase_times = {
            phase: sum(
                constants[const] * features[feat]
                for const, feat in PHASE_TERMS[phase]
            )
            for phase in CANONICAL_PHASES
        }
        runs.append(
            MeasuredRun(
                strategy="FRA",
                n_procs=4,
                n_tiles=1,
                phase_times=phase_times,
                features=features,
                source="measured",
                total_time=sum(phase_times.values()),
            )
        )
    return runs


def grid_runs(rng, strategies=FIXED_STRATEGIES):
    """Simulated runs over a few heterogeneous problems."""
    runs = []
    for n_in, n_out, memory in ((60, 10, 400_000), (120, 20, 250_000),
                                (90, 16, 1 << 30)):
        problem = make_problem(rng, n_procs=4, n_in=n_in, n_out=n_out,
                               memory=memory)
        for s in strategies:
            plan = plan_query(problem, s)
            sim = simulate_query(plan, ibm_sp(4), SMALL_COSTS)
            runs.append(MeasuredRun.from_sim(plan, sim))
    return runs


class TestCalibrate:
    def test_recovers_known_constants(self, rng):
        model = calibrate(synthetic_runs(rng))
        for name, want in TRUE.items():
            assert model.constants[name] == pytest.approx(want, rel=1e-6), name
        assert model.diagnostics.r2 == pytest.approx(1.0, abs=1e-9)
        assert model.diagnostics.unidentified == ()
        assert model.sources == ("measured",)

    def test_too_few_runs_raises(self, rng):
        with pytest.raises(CalibrationError, match="at least 4"):
            calibrate(synthetic_runs(rng, n=3))

    def test_degenerate_runs_raise(self, rng):
        """Identical runs cannot separate the constants sharing a
        phase equation -- the fit must refuse, not guess."""
        one = synthetic_runs(rng, n=1)[0]
        with pytest.raises(CalibrationError, match="degenerate|homogeneous"):
            calibrate([one] * 6)

    def test_zero_times_raise(self, rng):
        runs = [
            MeasuredRun(
                strategy="FRA", n_procs=1, n_tiles=1,
                phase_times={p: 0.0 for p in CANONICAL_PHASES},
                features={f: 0.0 for f in FEATURES},
            )
            for _ in range(5)
        ]
        with pytest.raises(CalibrationError, match="no usable"):
            calibrate(runs)

    def test_unidentified_constants_reported(self, rng):
        """Runs with no messages at all leave the message constant
        unidentifiable; it must be flagged, not silently zeroed."""
        runs = synthetic_runs(rng)
        quiet = []
        for run in runs:
            features = dict(run.features)
            features["lr_messages"] = 0.0
            features["gc_messages"] = 0.0
            phase_times = {
                phase: sum(
                    TRUE[const] * features[feat]
                    for const, feat in PHASE_TERMS[phase]
                )
                for phase in CANONICAL_PHASES
            }
            quiet.append(
                MeasuredRun(
                    strategy=run.strategy, n_procs=run.n_procs,
                    n_tiles=run.n_tiles, phase_times=phase_times,
                    features=features,
                )
            )
        model = calibrate(quiet)
        assert model.diagnostics.unidentified == ("message",)
        assert model.constants["message"] == 0.0

    def test_fits_simulated_grid(self, rng):
        """End to end over real plans: the fit must explain the
        simulator's phase times well."""
        model = calibrate(grid_runs(rng))
        assert model.diagnostics.r2 > 0.9
        assert model.constants["read_byte"] > 0


class TestCalibratedCostModel:
    def test_estimate_and_selection(self, rng):
        model = calibrate(grid_runs(rng))
        problem = make_problem(rng, n_procs=4, n_in=80, n_out=12,
                               memory=500_000)
        est = model.estimate(plan_query(problem, "FRA"))
        assert est.total > 0
        choice = choose_strategy(problem, model, FIXED_STRATEGIES)
        assert choice.selected in FIXED_STRATEGIES

    def test_missing_constant_rejected(self):
        with pytest.raises(ValueError, match="missing constants"):
            CalibratedCostModel(constants={"init": 1.0})

    def test_negative_constant_rejected(self):
        constants = {name: 1.0 for name in CONSTANTS}
        constants["message"] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            CalibratedCostModel(constants=constants)

    def test_save_load_roundtrip(self, rng, tmp_path):
        model = calibrate(synthetic_runs(rng))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = CalibratedCostModel.load(path)
        assert loaded.constants == model.constants
        assert loaded.diagnostics.r2 == pytest.approx(model.diagnostics.r2)
        assert loaded.sources == model.sources

    def test_read_bandwidth(self):
        constants = {name: 0.0 for name in CONSTANTS}
        constants["read_byte"] = 1e-8
        assert CalibratedCostModel(constants=constants).read_bandwidth == pytest.approx(1e8)
        constants["read_byte"] = 0.0
        assert CalibratedCostModel(constants=constants).read_bandwidth == float("inf")

    def test_summary_mentions_fit(self, rng):
        model = calibrate(synthetic_runs(rng))
        text = model.summary()
        assert "calibrated cost model" in text
        assert "R^2" in text


class TestCLI:
    def test_fit_from_log(self, rng, tmp_path, capsys):
        log_path = tmp_path / "telemetry.jsonl"
        TelemetryLog(log_path).extend(synthetic_runs(rng))
        out_path = tmp_path / "model.json"
        assert main(["--log", str(log_path), "--out", str(out_path)]) == 0
        model = CalibratedCostModel.load(out_path)
        assert model.constants["reduction"] == pytest.approx(
            TRUE["reduction"], rel=1e-6
        )
        assert "wrote" in capsys.readouterr().out

    def test_source_filter(self, rng, tmp_path):
        log_path = tmp_path / "telemetry.jsonl"
        TelemetryLog(log_path).extend(synthetic_runs(rng))
        out_path = tmp_path / "model.json"
        # every synthetic run is source="measured"; filtering to
        # simulated leaves nothing to fit
        assert main([
            "--log", str(log_path), "--out", str(out_path),
            "--source", "simulated",
        ]) == 1
        assert not out_path.exists()

    def test_failure_is_loud(self, tmp_path, capsys):
        log_path = tmp_path / "empty.jsonl"
        log_path.write_text("")
        out_path = tmp_path / "model.json"
        assert main(["--log", str(log_path), "--out", str(out_path)]) == 1
        assert "calibration failed" in capsys.readouterr().err
