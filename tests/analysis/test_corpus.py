"""The CI corpora must verify clean (and stay deterministic)."""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro.analysis.corpus as corpus
from repro.analysis.corpus import (
    _ALL,
    _COUNTERS,
    _OUTCOME,
    _diff,
    corpus_problems,
    functional_workloads,
    main,
    verify_chaos_corpus,
    verify_corpus,
    verify_fault_corpus,
    verify_functional_corpus,
    verify_service_corpus,
    verify_shard_corpus,
)
from repro.planner.select import FRA, SRA
from repro.runtime.engine import QueryResult
from repro.runtime.phases import PHASES


@pytest.fixture
def one_workload(monkeypatch):
    """Shrink the functional corpus to its first workload."""
    first = next(iter(functional_workloads()))
    monkeypatch.setattr(corpus, "functional_workloads", lambda: [first])
    return first


class TestCorpus:
    def test_synthetic_corpus_verifies_clean(self):
        assert verify_corpus(include_emulators=False) == (24, [])

    def test_corpus_is_deterministic(self):
        (label_a, prob_a), *_ = corpus_problems(include_emulators=False)
        (label_b, prob_b), *_ = corpus_problems(include_emulators=False)
        assert label_a == label_b
        np.testing.assert_array_equal(prob_a.inputs.node, prob_b.inputs.node)
        np.testing.assert_array_equal(
            prob_a.graph.edge_arrays()[0], prob_b.graph.edge_arrays()[0]
        )

    def test_cli_exits_zero(self, capsys):
        assert main(["--no-emulators"]) == 0
        assert "zero diagnostics" in capsys.readouterr().out

    def test_cli_json_report(self, capsys):
        assert main(["--no-emulators", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.analysis.corpus"
        assert doc["mode"] == "verify"
        assert doc["summary"] == {"plans": 24, "findings": 0}

    def test_cli_rejects_unknown_arguments(self, capsys):
        assert main(["--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        # ``--prefetch`` and ``--comm`` no longer exist; a stale script
        # passing one must still fail loudly rather than run the default
        # mode.
        [["--prefetch"], ["--comm"], ["--faults", "--functional"],
         ["--service", "--no-emulators"]],
        ids=["prefetch-without-faults", "comm-retired", "two-modes",
             "modifier-of-another-mode"],
    )
    def test_cli_rejects_flags_that_do_nothing(self, capsys, argv):
        assert main(argv) == 2
        assert "usage" in capsys.readouterr().err


#: mode flags (plus modifiers) -> plans the mode reports over the first
#: functional workload (chaos runs only workloads 0 and 3, so none)
CLI_MODES = {
    "verify": (["--no-emulators"], 24),
    "functional": (["--functional"], 6),
    "faults": (["--faults"], 2),
    "service": (["--service"], 4),
    "shards": (["--shards"], 5),
    "chaos": (["--chaos"], 0),
}


class TestCLIOutput:
    """Every mode honours ``--format`` and ``--out``: stdout under
    ``--format json`` is exactly one JSON document, and ``--out``
    writes the report and prints the text summary instead."""

    @pytest.mark.parametrize("mode", sorted(CLI_MODES))
    def test_every_mode_honours_format_and_out(
        self, mode, one_workload, monkeypatch, capsys, tmp_path
    ):
        if mode == "chaos":
            monkeypatch.setattr(corpus, "functional_workloads", lambda: [])
        flags, n = CLI_MODES[mode]
        expected = {"plans": n, "findings": 0}

        assert main(flags + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["mode"], doc["summary"]) == (mode, expected)

        out = tmp_path / "reports" / f"{mode}.json"
        assert main(flags + ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["mode"], doc["summary"]) == (mode, expected)
        summary = capsys.readouterr().out.splitlines()
        assert len(summary) == 1 and summary[0].startswith(
            f"repro.analysis.corpus: {n} "
        )


def failed(failures):
    return "\n".join(f"{a}: {b}" for a, b in failures)


class TestFunctionalCorpus:
    """Payload-carrying workloads executed end to end.

    The full sweep -- 4 strategies x 9 workloads plus one auto-resolved
    and one predicate-bearing (``where=``) pruned plan per workload, 54
    plans -- is the CI job ``python -m repro.analysis.corpus --functional``; here
    one strategy keeps tier-1 fast while still exercising the whole
    pipeline end to end.
    """

    def test_workloads_are_deterministic(self):
        a = [label for label, _ in functional_workloads()]
        b = [label for label, _ in functional_workloads()]
        assert a == b and len(a) == 9

    def test_one_strategy_verifies_clean(self):
        n_plans, failures = verify_functional_corpus(strategies=(FRA,))
        # 9 workloads plus one where= pruned plan and one
        # auto-resolved plan per workload
        assert n_plans == 27
        assert failures == [], failed(failures)

    def test_drift_in_one_run_is_named(self, one_workload, monkeypatch):
        """One run off by one combine, or by one output value, is a
        failure naming exactly that field and that run."""
        clean_run = corpus.Workload.run
        calls = []
        moved = set()

        def drifting(w, plan, **kw):
            res = clean_run(w, plan, **kw)
            calls.append(plan)
            if len(calls) != 2:  # the second run is the strategy='auto' pick
                return res
            values = [v.copy() for v in res.chunk_values]
            values[0][0, 0] += 1.0
            moved.add(f"chunk_values[{int(res.output_ids[0])}]")
            return replace(res, n_combines=res.n_combines + 1, chunk_values=values)

        monkeypatch.setattr(corpus.Workload, "run", drifting)
        _, failures = verify_functional_corpus(strategies=(FRA,))
        named = {
            (tag.rsplit(" / ", 1)[1].split("->")[0], msg.split()[0])
            for tag, msg in failures
        }
        assert named == {("AUTO", "n_combines")} | {("AUTO", field) for field in moved}


class TestFaultCorpus:
    """The fault matrix over the functional corpus.

    The full 9-workload x 2-scenario sweep is the CI job ``python -m
    repro.analysis.corpus --faults``; here one workload (both
    scenarios: corrupt+degrade, flaky+retry) keeps tier-1 fast while
    exercising every fault path end to end.
    """

    def test_first_workload_survives_fault_matrix(self, one_workload):
        n_scenarios, failures = verify_fault_corpus(strategies=(FRA,))
        assert n_scenarios == 2
        assert failures == [], failed(failures)


class TestServedCorpora:
    """One workload through the query service and the shard router;
    the full sweeps are the CI jobs ``--service`` and ``--shards``."""

    def test_first_workload_through_the_service(self, one_workload):
        n_queries, failures = verify_service_corpus()
        assert n_queries == 4
        assert failures == [], failed(failures)

    def test_first_workload_through_the_shards(self, one_workload):
        n_plans, failures = verify_shard_corpus()
        assert n_plans == 5
        assert failures == [], failed(failures)

    def test_chaos_catches_a_merge_that_forgets_dead_shards(
        self, one_workload, monkeypatch
    ):
        """The in-process reference shares the router's merge, so a merge
        that drops every shard failure agrees with itself; the injured
        shards each scenario names must still expose it."""
        from repro.shard.router import ShardRouter

        merge = ShardRouter._merge
        monkeypatch.setattr(
            ShardRouter, "_merge",
            lambda self, plan, partials, shard_failures: merge(self, plan, partials, {}),
        )
        n_scenarios, failures = verify_chaos_corpus()
        assert n_scenarios == 14
        caught = {tag.rsplit(" / ", 1)[1] for tag, msg in failures
                  if msg.startswith(("shard_errors keys", "completeness"))}
        assert caught == {
            "crash-1-degrade", "crash-2-degrade", "refuse-all-degrade",
            "cut-all-degrade", "corrupt-payload-all-degrade",
            "slow-beyond-deadline-degrade", "drain-degrade",
            "chunk-and-shard-compose",
        }, failed(failures)


def make_result():
    return QueryResult(
        strategy=FRA,
        output_ids=np.array([3, 1], dtype=np.int64),
        chunk_values=[np.array([[1.5], [np.nan]]), np.array([[2.0]])],
        n_tiles=2, n_reads=5, bytes_read=100, n_combines=1, n_aggregations=7,
        phase_times=dict.fromkeys(PHASES, 0.1),
        chunk_errors={4: "crc mismatch"}, completeness=0.5,
        chunks_pruned=1, bytes_pruned=10, shard_errors={0: "refused"},
    )


def perturbed(result, name):
    """*result* with field *name* changed in a way the contract sees."""
    value = getattr(result, name)
    if name == "strategy":
        return replace(result, strategy=SRA)
    if isinstance(value, dict):
        extra = "extra" if name == "phase_times" else 99
        return replace(result, **{name: {**value, extra: 0.0}})
    if isinstance(value, float):
        return replace(result, **{name: value / 2})
    return replace(result, **{name: value + 1})


class TestComparator:
    """``_diff`` reports exactly the field that drifted, and only when
    the chosen field set contains it."""

    @pytest.mark.parametrize("fields", [_OUTCOME, _COUNTERS, _ALL],
                             ids=["outcome", "counters", "all"])
    @pytest.mark.parametrize("name", _ALL)
    def test_each_field_reported_alone(self, fields, name):
        base = make_result()
        got = _diff(perturbed(base, name), base, exact=True, fields=fields)
        assert [m.split()[0] for m in got] == ([name] if name in fields else [])

    def test_values_and_ids(self):
        base = make_result()
        other = replace(base, output_ids=np.array([3, 2], dtype=np.int64))
        assert [m.split()[0] for m in _diff(other, base, exact=True, fields=_ALL)] == [
            "output_ids"
        ]
        # two runs of one plan list ids in the same order; the oracle
        # lists them ascending, so against it only the set counts
        flipped = replace(base, output_ids=base.output_ids[::-1],
                          chunk_values=base.chunk_values[::-1])
        assert [m.split()[0] for m in _diff(flipped, base, exact=True, fields=_ALL)] == [
            "output_ids"
        ]
        assert _diff(flipped, base, exact=False, fields=_ALL) == []

    def test_one_ulp_is_close_but_not_equal(self):
        base = make_result()
        nudged = [v.copy() for v in base.chunk_values]
        nudged[0][0, 0] = np.nextafter(nudged[0][0, 0], np.inf)
        got = replace(base, chunk_values=nudged)
        assert _diff(got, base, exact=False, fields=_ALL) == []
        assert [m.split()[0] for m in _diff(got, base, exact=True, fields=_ALL)] == [
            "chunk_values[3]"
        ]

    def test_dicts_compare_by_key(self):
        base = make_result()
        reworded = replace(base, chunk_errors={4: "other text"},
                           phase_times=dict.fromkeys(PHASES, 9.0))
        assert _diff(reworded, base, exact=True, fields=_ALL) == []
