"""Tests for timeline recording and rendering."""

import pytest

from repro.machine.config import ComputeCosts, MachineConfig
from repro.planner.strategies import plan_da, plan_fra
from repro.sim.query_sim import simulate_query
from repro.sim.timeline import render_timeline, utilization

from helpers import make_problem

MACHINE = MachineConfig(n_procs=3, memory_per_proc=1 << 20)
COSTS = ComputeCosts.from_ms(1, 5, 1, 1)


@pytest.fixture
def result(rng):
    prob = make_problem(rng, n_procs=3, n_in=60, n_out=8, memory=1 << 20)
    return simulate_query(plan_fra(prob), MACHINE, COSTS, record_timeline=True)


class TestRecording:
    def test_timelines_present_only_when_requested(self, rng):
        prob = make_problem(rng, n_procs=3)
        plain = simulate_query(plan_fra(prob), MACHINE, COSTS)
        assert plain.timelines is None
        recorded = simulate_query(plan_fra(prob), MACHINE, COSTS, record_timeline=True)
        assert recorded.timelines is not None

    def test_intervals_cover_busy_time(self, result):
        for name, intervals in result.timelines.items():
            covered = sum(e - s for s, e in intervals)
            if name.startswith("cpu"):
                p = int(name[3:])
                assert covered == pytest.approx(result.cpu_busy[p])

    def test_intervals_disjoint_and_ordered(self, result):
        for intervals in result.timelines.values():
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-12
                assert s1 <= e1 and s2 <= e2

    def test_intervals_within_total_time(self, result):
        for intervals in result.timelines.values():
            for s, e in intervals:
                assert 0 <= s <= e <= result.total_time + 1e-9

    def test_recording_does_not_change_timing(self, rng):
        prob = make_problem(rng, n_procs=3)
        a = simulate_query(plan_da(prob), MACHINE, COSTS)
        b = simulate_query(plan_da(prob), MACHINE, COSTS, record_timeline=True)
        assert a.total_time == b.total_time


class TestRendering:
    def test_render_structure(self, result):
        text = render_timeline(result, width=40)
        lines = text.splitlines()
        assert "timeline:" in lines[0]
        # one row per resource kind per processor
        assert sum(1 for l in lines if "cpu |" in l) == 3
        assert sum(1 for l in lines if "disk |" in l) == 3
        row = next(l for l in lines if "cpu |" in l)
        assert row.count("|") == 2
        assert len(row.split("|")[1]) == 40

    def test_render_requires_timelines(self, rng):
        prob = make_problem(rng, n_procs=2)
        res = simulate_query(plan_fra(prob), MachineConfig(n_procs=2, memory_per_proc=1 << 20), COSTS)
        with pytest.raises(ValueError, match="record_timeline"):
            render_timeline(res)

    def test_render_proc_subset(self, result):
        text = render_timeline(result, width=20, procs=[1])
        assert "P1" in text and "P0" not in text

    def test_width_validation(self, result):
        with pytest.raises(ValueError):
            render_timeline(result, width=4)

    def test_busy_resources_show_marks(self, result):
        text = render_timeline(result, width=30)
        cpu_rows = [l for l in text.splitlines() if "cpu |" in l]
        assert any(set(r.split("|")[1]) - {" "} for r in cpu_rows)


class TestUtilization:
    def test_fractions_in_range(self, result):
        u = utilization(result)
        assert set(u) == {"disk", "cpu", "out", "in"}
        assert all(0 <= v <= 1.0 + 1e-9 for v in u.values())

    def test_cpu_bound_workload(self, rng):
        prob = make_problem(rng, n_procs=3)
        heavy = ComputeCosts.from_ms(1, 50, 1, 1)
        res = simulate_query(plan_fra(prob), MACHINE, heavy, record_timeline=True)
        u = utilization(res)
        assert u["cpu"] > u["disk"]


class TestExport:
    def test_records_schema_and_order(self, result):
        from repro.sim.timeline import timeline_records

        records = timeline_records(result)
        assert records, "expected busy intervals"
        assert set(records[0]) == {"proc", "kind", "start", "end"}
        for a, b in zip(records, records[1:]):
            assert (a["proc"], a["kind"], a["start"]) <= (
                b["proc"], b["kind"], b["start"]
            )

    def test_csv_roundtrip(self, result, tmp_path):
        import csv

        from repro.sim.timeline import timeline_records, write_timeline_csv

        path = tmp_path / "timeline.csv"
        n = write_timeline_csv(result, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n == len(timeline_records(result))
        assert float(rows[0]["end"]) >= float(rows[0]["start"])

    def test_export_requires_recording(self, rng):
        from repro.sim.timeline import timeline_records

        prob = make_problem(rng, n_procs=2)
        res = simulate_query(
            plan_fra(prob), MachineConfig(n_procs=2, memory_per_proc=1 << 20), COSTS
        )
        with pytest.raises(ValueError):
            timeline_records(res)
