"""Tests for measured-run telemetry harvesting and persistence."""

import json
from types import SimpleNamespace

import pytest

from repro.machine.presets import ibm_sp
from repro.planner.strategies import plan_fra, plan_query
from repro.planner.telemetry import (
    CANONICAL_PHASES,
    FEATURES,
    MeasuredRun,
    TelemetryLog,
    plan_features,
)
from repro.sim.query_sim import simulate_query

from helpers import SMALL_COSTS, make_problem


@pytest.fixture
def problem(rng):
    return make_problem(rng, n_procs=4, n_in=80, n_out=12, memory=500_000)


class TestPlanFeatures:
    def test_keys_and_nonnegative(self, problem):
        feats = plan_features(plan_fra(problem))
        assert tuple(feats) == FEATURES
        assert all(v >= 0 for v in feats.values())
        assert feats["read_bytes"] > 0
        assert feats["reduction_pairs"] > 0


class TestMeasuredRun:
    def test_from_sim(self, problem):
        plan = plan_query(problem, "FRA")
        sim = simulate_query(plan, ibm_sp(problem.n_procs), SMALL_COSTS)
        run = MeasuredRun.from_sim(plan, sim)
        assert run.source == "simulated"
        assert run.strategy == "FRA"
        assert run.n_procs == problem.n_procs
        assert set(run.phase_times) <= set(CANONICAL_PHASES)
        assert run.total_time == pytest.approx(sim.total_time)

    def test_from_result_normalizes_runtime_phase_names(self, problem):
        """The functional backends report initialize/reduce; telemetry
        canonicalizes to the simulator's init/reduction keys."""
        plan = plan_query(problem, "DA")
        result = SimpleNamespace(
            phase_times={
                "initialize": 0.5, "reduce": 2.0, "combine": 0.25,
                "output": 0.125,
            },
            chunks_pruned=3,
            bytes_pruned=4096,
        )
        run = MeasuredRun.from_result(plan, result)
        assert run.source == "measured"
        assert run.phase_times == {
            "init": 0.5, "reduction": 2.0, "combine": 0.25, "output": 0.125,
        }
        assert run.total_time == pytest.approx(2.875)
        assert run.chunks_pruned == 3
        assert run.bytes_pruned == 4096

    def test_dict_roundtrip(self, problem):
        plan = plan_query(problem, "SRA")
        sim = simulate_query(plan, ibm_sp(problem.n_procs), SMALL_COSTS)
        run = MeasuredRun.from_sim(plan, sim)
        assert MeasuredRun.from_dict(run.to_dict()) == run
        # the payload is JSON-safe
        json.dumps(run.to_dict())

    def test_bad_record_raises(self):
        with pytest.raises(ValueError, match="bad MeasuredRun record"):
            MeasuredRun.from_dict({"strategy": "FRA"})


class TestTelemetryLog:
    def _run(self, problem, strategy="FRA"):
        plan = plan_query(problem, strategy)
        sim = simulate_query(plan, ibm_sp(problem.n_procs), SMALL_COSTS)
        return MeasuredRun.from_sim(plan, sim)

    def test_append_load_roundtrip(self, tmp_path, problem):
        log = TelemetryLog(tmp_path / "telemetry.jsonl")
        runs = [self._run(problem, s) for s in ("FRA", "SRA", "DA")]
        log.extend(runs)
        assert len(log) == 3
        assert log.load() == runs

    def test_missing_file_loads_empty(self, tmp_path):
        assert TelemetryLog(tmp_path / "absent.jsonl").load() == []

    def test_blank_lines_skipped(self, tmp_path, problem):
        path = tmp_path / "telemetry.jsonl"
        log = TelemetryLog(path)
        log.append(self._run(problem))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        log.append(self._run(problem, "DA"))
        assert len(log.load()) == 2

    def test_malformed_line_raises_with_location(self, tmp_path, problem):
        path = tmp_path / "telemetry.jsonl"
        log = TelemetryLog(path)
        log.append(self._run(problem))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"strategy": "FRA"}\n')
        with pytest.raises(ValueError, match=r":2:"):
            log.load()

    def test_concurrent_appends(self, tmp_path, problem):
        import threading

        log = TelemetryLog(tmp_path / "telemetry.jsonl")
        run = self._run(problem)
        threads = [
            threading.Thread(target=lambda: log.append(run)) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log.load()) == 8
