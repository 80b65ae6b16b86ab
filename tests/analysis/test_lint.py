"""Tests for the AST project lint pass."""

import io
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis import Severity, lint_paths, lint_source
from repro.analysis import lint
from repro.analysis.lint import RULES, lint_file, main


#: A file in each rule scope the tests below plant violations in.
RNG_HOME = "src/repro/util/rng.py"
RUNTIME = "src/repro/runtime/mod.py"
PHASES = "src/repro/runtime/phases.py"
SELECT = "src/repro/planner/select.py"
INDEX = "src/repro/index/mod.py"
FAULTS = "src/repro/faults/mod.py"
SHARD = "src/repro/shard/mod.py"
STORE = "src/repro/store/mod.py"
LIBRARY = "src/repro/mod.py"


def findings(src, path="mod.py", **kwargs):
    return lint_source(textwrap.dedent(src), path, **kwargs)


def codes(src, **kwargs):
    return {d.code for d in findings(src, **kwargs)}


class TestUnseededRandom:
    def test_legacy_global_rng_flagged(self):
        assert codes("import numpy as np\nx = np.random.rand(3)\n") == {"ADR301"}
        assert codes("import numpy as np\nnp.random.seed(0)\n") == {"ADR301"}
        assert codes("import numpy\nx = numpy.random.normal(0, 1)\n") == {"ADR301"}

    def test_unseeded_default_rng_flagged(self):
        assert codes("import numpy as np\nr = np.random.default_rng()\n") == {"ADR301"}
        assert codes("import numpy as np\nr = np.random.default_rng(None)\n") == {"ADR301"}

    def test_seeded_default_rng_ok(self):
        assert codes("import numpy as np\nr = np.random.default_rng(42)\n") == set()
        assert codes("import numpy as np\nr = np.random.default_rng(seed)\n") == set()

    def test_generator_annotations_ok(self):
        assert codes(
            "import numpy as np\ndef f(rng: np.random.Generator) -> None: ...\n"
        ) == set()

    def test_rng_module_exempt(self):
        src = "import numpy as np\nr = np.random.default_rng()\n"
        assert codes(src, path=RNG_HOME) == set()


class TestFloatAccumulatorEquality:
    def test_accumulator_equality_flagged(self):
        assert codes("ok = acc.data[0] == 0.5\n") == {"ADR302"}
        assert codes("ok = 1.5 != accumulator[0]\n") == {"ADR302"}
        assert codes("ok = ghost_data[0] == local_acc[0]\n") == {"ADR302"}

    def test_ordinary_float_equality_untouched(self):
        # Exact comparisons on non-accumulator values are a test-suite
        # idiom (integer-valued floats); the rule targets accumulators.
        assert codes("assert r.volume == 0.0\n") == set()
        assert codes("assert out[0, 0] == 3.0\n") == set()

    def test_structural_and_count_accesses_untouched(self):
        assert codes("ok = acc.data.shape == (10, 1)\n") == set()
        assert codes("ok = s.acc_nbytes == total\n") == set()  # byte counts
        assert codes("ok = s.bytes_in_use == spec.acc_bytes(5)\n") == set()
        assert codes("ok = spec.output(acc)[:, 0].tolist() == [3.0]\n") == set()

    def test_accumulator_ordering_ok(self):
        assert codes("ok = acc.data[0] < 0.5\n") == set()


class TestChunkMutation:
    def test_payload_assignment_flagged(self):
        assert codes("chunk.values = new\n") == {"ADR303"}
        assert codes("chunk.coords[0] = 1.0\n") == {"ADR303"}
        assert codes("my_chunk.values[idx] += 2\n") == {"ADR303"}
        assert codes("chunk.meta = other\n") == {"ADR303"}

    def test_reads_and_other_names_ok(self):
        assert codes("v = np.asarray(chunk.values)\n") == set()
        assert codes("table.values = x\n") == set()
        assert codes("chunk2 = replace(chunk)\n") == set()


class TestDunderAll:
    def test_missing_all_flagged(self):
        out = findings("def api(): ...\n", check_all=True)
        assert [d.code for d in out] == ["ADR304"]
        assert out[0].severity == Severity.WARNING

    def test_present_all_ok(self):
        assert codes('__all__ = ["api"]\ndef api(): ...\n', check_all=True) == set()

    def test_not_checked_by_default(self):
        assert codes("def api(): ...\n") == set()


class TestSuppression:
    # One line carrying two distinct findings: ADR301 (unseeded
    # global RNG) and ADR303 (chunk payload mutation).
    TWO = "import numpy as np\nchunk.values = np.random.rand(3){noqa}\n"

    def test_noqa_with_rationale_suppresses(self):
        src = "import numpy as np\nx = np.random.rand(3)  # noqa: ADR301 -- test fixture\n"
        assert codes(src) == set()

    def test_noqa_other_code_does_not_suppress(self):
        src = "import numpy as np\nx = np.random.rand(3)  # noqa: ADR302\n"
        assert codes(src) == {"ADR301"}

    def test_noqa_suppresses_only_the_named_code(self):
        """A line with two co-located findings keeps the unnamed one."""
        src = self.TWO.format(noqa="  # noqa: ADR301")
        assert codes(src) == {"ADR303"}
        src = self.TWO.format(noqa="  # noqa: ADR303")
        assert codes(src) == {"ADR301"}

    def test_noqa_code_list_suppresses_all_named(self):
        src = self.TWO.format(noqa="  # noqa: ADR301, ADR303")
        assert codes(src) == set()
        src = self.TWO.format(noqa="  # noqa: ADR303 ADR301 -- oracle fixture")
        assert codes(src) == set()

    def test_noqa_mixed_tool_list(self):
        """Foreign codes in the list (other linters share the noqa
        convention) neither block nor widen the ADR suppression."""
        src = self.TWO.format(noqa="  # noqa: E402, ADR301")
        assert codes(src) == {"ADR303"}

    def test_rationale_text_does_not_widen_suppression(self):
        src = self.TWO.format(noqa="  # noqa: ADR301 -- ADR303 is deliberate here?")
        assert codes(src) == {"ADR303"}

    def test_bare_noqa_suppresses_nothing(self):
        """Blanket suppression is banned: every opt-out names codes."""
        src = self.TWO.format(noqa="  # noqa")
        assert codes(src) == {"ADR301", "ADR303"}


class TestAggregateLoop:
    LOOP = """\
        for s, e in zip(starts, ends):
            spec.aggregate(acc, cells[s:e], values[s:e])
    """

    def test_flagged_in_hot_path(self):
        out = findings(self.LOOP, path=RUNTIME)
        assert [d.code for d in out] == ["ADR305"]
        assert out[0].severity == Severity.ERROR

    def test_not_flagged_outside_hot_path(self):
        assert codes(self.LOOP) == set()

    def test_while_and_bare_name_variants(self):
        src = """\
            while k < n:
                aggregate(k, cells, values)
                k += 1
        """
        assert codes(src, path=RUNTIME) == {"ADR305"}

    def test_grouped_call_in_loop_ok(self):
        src = """\
            for k in range(len(seg_out)):
                accs.scatter_groups(q, o, idx[lo[k] : hi[k]], rows[lo[k] : hi[k]])
        """
        assert codes(src, path=PHASES) == set()

    def test_nested_loop_flagged_once_on_inner(self):
        src = """\
            for tile in tiles:
                for s, e in zip(starts, ends):
                    spec.aggregate(acc, cells[s:e], values[s:e])
        """
        out = findings(src, path=RUNTIME)
        assert [d.code for d in out] == ["ADR305"]
        assert ":2:" in out[0].location  # the inner loop, not the outer

    def test_noqa_opt_out(self):
        src = """\
            for s, e in zip(starts, ends):  # noqa: ADR305 -- reference oracle
                spec.aggregate(acc, cells[s:e], values[s:e])
        """
        assert codes(src, path=RUNTIME) == set()

    PER_READ = """\
        for r in reads_of(t):
            segs = group_read(item_idx, cells, values, grid, sel_map, tiles, t)
            reduced = spec.prereduce_groups(segs.values, segs.group_starts)
    """

    def test_per_read_grouping_flagged_in_the_phase_executor(self):
        out = findings(self.PER_READ, path=PHASES)
        assert [d.code for d in out] == ["ADR305"]
        assert "group_read()" in out[0].message
        src = """\
            while pending:
                rows = self.spec.prereduce_groups(values, starts)
        """
        out = findings(src, path=PHASES)
        assert [d.code for d in out] == ["ADR305"]
        assert "prereduce_groups()" in out[0].message

    def test_per_read_grouping_rule_is_scoped_to_the_phase_executor(self):
        """Kernels, the serial oracle and benchmarks may group one read."""
        assert codes(self.PER_READ, path=RUNTIME) == {"ADR501"}  # not ADR305
        assert codes(self.PER_READ) == set()

    def test_batched_grouping_ok(self):
        src = """\
            segs = group_reads([fetch(r) for r in batch], grid, sel_map, tiles, t)
            rows = spec.prereduce_groups(segs.values, segs.group_starts)
            for k, r in enumerate(batch):
                accs.scatter_groups(reader, o, idx[lo[k] : hi[k]], rows[lo[k] : hi[k]])
        """
        assert codes(src, path=PHASES) == set()

    def test_per_read_grouping_noqa_and_nesting(self):
        src = """\
            for t in range(n_tiles):
                for r in reads_of(t):  # noqa: ADR305 -- measuring the old path
                    segs = group_read(item_idx, cells, values, grid, sel_map, tiles, t)
        """
        assert codes(src, path=PHASES) == set()
        out = findings(src.replace("  # noqa: ADR305 -- measuring the old path", ""), path=PHASES)
        assert [d.code for d in out] == ["ADR305"]
        assert ":2:" in out[0].location  # the inner loop, not the outer

    #: the candidate loop strategy selection had before it priced all
    #: candidates in one stacked pass
    PER_CANDIDATE = """\
        for name in names:
            plan = plan_query(problem, name)
            est = model.estimate(plan)
            estimates[plan.strategy] = est
    """

    def test_per_candidate_pricing_flagged_in_strategy_selection(self):
        out = findings(self.PER_CANDIDATE, path=SELECT)
        assert [d.code for d in out] == ["ADR305"]
        assert "estimate()" in out[0].message and ":1:" in out[0].location
        for call in ("plan_stats(plan)", "plan_features(plan)"):
            src = f"while todo:\n    plan = todo.pop()\n    rows.append({call})\n"
            out = findings(src, path=SELECT)
            assert [d.code for d in out] == ["ADR305"], call

    def test_per_candidate_rule_is_scoped_to_strategy_selection(self):
        """Cost models, tests and benchmarks may price one plan."""
        assert codes(self.PER_CANDIDATE) == set()
        assert codes(self.PER_CANDIDATE, path=PHASES) == set()
        stacked = """\
            plans = [plan_query(problem, name) for name in names]
            estimates = model.estimate_many(plans)
        """
        assert codes(stacked, path=SELECT) == set()

    def test_strategy_selection_module_is_clean(self):
        import repro.planner.select as select

        assert lint_paths([select.__file__]) == []

class TestPerRectangleLoop:
    """ADR306: the loops the vectorized indexes, ``from_geometry`` and
    ``OutputGrid.chunkset`` replaced must not come back."""

    GRAPH_LOOP = """\
        for i in range(len(inputs)):
            projected = mapping.project_rect(inputs.mbr(i))
            hits = outputs.intersecting(projected)
    """
    GRID_LOOP = """\
        for cid in range(n):
            start, stop = self.chunk_block(cid)
            los[cid] = lo + np.asarray(start) * cell
            his[cid] = lo + np.asarray(stop) * cell
    """

    def test_per_input_projection_loop_flagged(self):
        out = findings(self.GRAPH_LOOP, path=INDEX)
        assert [d.code for d in out] == ["ADR306", "ADR306"]
        assert all(d.severity == Severity.ERROR for d in out)
        assert "project_rect()" in out[0].message + out[1].message
        assert "intersecting()" in out[0].message + out[1].message

    def test_per_chunk_mbr_fill_loop_flagged(self):
        out = findings(self.GRID_LOOP, path=INDEX)
        assert [d.code for d in out] == ["ADR306", "ADR306"]

    def test_not_flagged_outside_the_hot_path(self):
        assert codes(self.GRAPH_LOOP) == codes(self.GRID_LOOP) == set()

    def test_blocked_broadcast_is_fine(self):
        src = """\
            for s in range(0, n_in, step):
                hit = ((outputs.los <= his[s : s + step, None])
                       & (los[s : s + step, None] <= outputs.his)).all(axis=2)
        """
        assert codes(src, path=INDEX) == set()

    def test_noqa_opt_out(self):
        src = """\
            for i in range(n):
                tree.insert(i, los[i], his[i])  # noqa: ADR306 -- dynamic insert
        """
        assert codes(src, path=INDEX) == set()

    @pytest.mark.parametrize(
        "hot", ["index/mod.py", "dataset/graph.py", "aggregation/output_grid.py"]
    )
    def test_scope_resolved_from_file_location(self, hot, tmp_path, capsys):
        src = textwrap.dedent(self.GRAPH_LOOP)
        for rel in (hot, "dataset/chunkset.py"):
            path = tmp_path / "src" / "repro" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(src)
        assert main([str(tmp_path / "src" / "repro" / "dataset" / "chunkset.py")]) == 0
        capsys.readouterr()
        assert main([str(tmp_path / "src" / "repro" / hot)]) == 1
        assert "ADR306" in capsys.readouterr().out

class TestExceptionHygiene:
    """ADR401: no bare except anywhere; no silently swallowed
    exceptions in the fault-critical paths (runtime/store)."""

    SWALLOW = """
    try:
        f()
    except OSError:
        pass
    """

    def test_bare_except_flagged_everywhere(self):
        src = """
        try:
            f()
        except:
            handle()
        """
        assert codes(src) == {"ADR401"}
        assert codes(src, path=FAULTS) == {"ADR401"}

    def test_swallow_flagged_only_in_fault_paths(self):
        assert codes(self.SWALLOW) == set()
        assert codes(self.SWALLOW, path=FAULTS) == {"ADR401"}

    def test_continue_and_ellipsis_bodies_flagged(self):
        src = """
        for x in xs:
            try:
                f(x)
            except ValueError:
                continue
        """
        assert codes(src, path=FAULTS) == {"ADR401"}
        src = """
        try:
            f()
        except ValueError:
            ...
        """
        assert codes(src, path=FAULTS) == {"ADR401"}

    def test_recording_handler_ok(self):
        src = """
        try:
            f()
        except OSError as e:
            errors[cid] = str(e)
        """
        assert codes(src, path=FAULTS) == set()

    def test_reraise_ok(self):
        src = """
        try:
            f()
        except OSError:
            raise
        """
        assert codes(src, path=FAULTS) == set()

    def test_noqa_opt_out(self):
        src = """
        try:
            f()
        except OSError:  # noqa: ADR401 -- probing an optional capability
            pass
        """
        assert codes(src, path=FAULTS) == set()

class TestPhaseLoopOwnership:
    """ADR501: phase-sequencing accumulator calls belong to
    runtime/phases.py; other runtime modules drive PhaseExecutor."""

    CALLS = """
    def reduce(spec, acc, idx, rows):
        spec.scatter_groups(acc, idx, rows)
    """

    def test_sequencing_call_flagged_in_runtime(self):
        assert codes(self.CALLS, path=RUNTIME) == {"ADR501"}
        for name in ("allocate", "scatter_groups", "combine_from",
                     "initialize_into", "initialize_from", "prereduce_groups"):
            assert codes(f"x = accs.{name}(a, b)\n", path=RUNTIME) == {"ADR501"}

    def test_not_flagged_outside_runtime(self):
        assert codes(self.CALLS) == set()

    def test_plain_function_call_ok(self):
        # Only attribute calls sequence phases; a bare helper of the
        # same name (e.g. a test fixture factory) is fine.
        assert codes("x = allocate(5)\n", path=RUNTIME) == set()

    def test_noqa_opt_out(self):
        src = """
        spec.scatter_groups(acc, idx, vals)  # noqa: ADR501 -- reference oracle
        """
        assert codes(src, path=RUNTIME) == set()

class TestResultAssemblyOwnership:
    """ADR501's result half: in runtime/ and shard/, a QueryResult is
    built only by runtime/engine.py's assemble_result."""

    #: the hand-written constructions the parallel backend, the router
    #: merge and the empty partial had before they called the assembly
    CONSTRUCTIONS = {
        "runtime/parallel.py": """
            def execute_parallel(plan):
                if plan.n_tiles == 0:
                    return QueryResult(
                        strategy=plan.strategy, output_ids=np.empty(0), chunk_values=[],
                        n_tiles=plan.n_tiles, n_reads=0, bytes_read=0, n_combines=0,
                        n_aggregations=0,
                    )
            """,
        "shard/router.py": """
            class ShardRouter:
                def _merge(self, plan, partials, shard_failures):
                    return QueryResult(strategy=plan.query.strategy.upper(), **merged)
            """,
        "shard/partial.py": """
            def empty_partial_result(query):
                return engine.QueryResult(query.strategy.upper(), ids, [], 0, 0, 0, 0, 0)
            """,
    }

    def test_construction_flagged_in_runtime_and_shard(self):
        for src in self.CONSTRUCTIONS.values():
            assert codes(src, path=SHARD) == {"ADR501"}
            assert codes(src) == set()

    def test_assembly_call_ok(self):
        src = "r = assemble_result(plan, emitted, [tally], race_diagnostics=[])\n"
        assert codes(src, path=SHARD) == set()

class TestStoreWriteOwnership:
    """ADR501's file half: nothing in store/ calls the builtin open();
    FileChunkStore._read_file reads files and _write_file rewrites them
    in place, never truncating to zero."""

    #: the chunk and manifest writers the store had before _write_file
    TRUNCATING = """
        class FileChunkStore:
            @staticmethod
            def _create(path):
                try:
                    return open(path, "wb")
                except FileNotFoundError:
                    return open(path, mode="w+b")

            def _save_manifest(self, tmp, payload):
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
        """

    #: the chunk and manifest readers the store had before _read_file
    READING = """
        class FileChunkStore:
            def _manifest(self, path):
                with open(path, "r", encoding="utf-8") as fh:
                    return json.load(fh)

            def read_chunk(self, path):
                with open(path, "rb") as fh:
                    return decode_chunk(fh.read())
        """

    def test_truncating_opens_flagged_in_store(self):
        found = findings(self.TRUNCATING, path=STORE)
        assert [(d.code, d.location.split(":")[1]) for d in found] == [
            ("ADR501", "6"), ("ADR501", "8"), ("ADR501", "11"),
        ]
        src = "fd = os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)\n"
        assert codes(src, path=STORE) == {"ADR501"}
        assert codes(self.TRUNCATING) == set()

    def test_reading_opens_flagged_in_store(self):
        found = findings(self.READING, path=STORE)
        assert [(d.code, d.location.split(":")[1]) for d in found] == [
            ("ADR501", "4"), ("ADR501", "8"),
        ]
        assert all("_read_file" in d.message for d in found)
        for src in ('a = open(p, "rb")\n', "b = open(p)\n", 'c = open(p, mode="ab")\n'):
            assert codes(src, path=STORE) == {"ADR501"}, src
        assert codes(self.READING) == set()

    def test_os_level_reads_and_in_place_writes_ok(self):
        src = """
        fd = os.open(p, os.O_RDONLY)
        data = os.read(fd, os.fstat(fd).st_size)
        fd = os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)
        os.ftruncate(fd, n)
        """
        assert codes(src, path=STORE) == set()

class TestStrategyLiteralMonopoly:
    """ADR502: strategy names are spelled in repro/planner/ only;
    everyone else imports them from repro.planner.select."""

    def test_literal_flagged_in_library_code(self):
        for name in ("FRA", "SRA", "DA", "HYBRID", "AUTO"):
            assert codes(f's = "{name}"\n', path=LIBRARY) == {"ADR502"}

    def test_not_flagged_outside_library_code(self):
        assert codes('s = "FRA"\n') == set()

    def test_other_strings_untouched(self):
        assert codes('s = "fra"\ns2 = "FRAME"\n', path=LIBRARY) == set()

    def test_docstrings_exempt(self):
        src = '''
        def plan():
            """Plans FRA or DA depending on the cost model."""
            return None
        '''
        assert codes(src, path=LIBRARY) == set()

    def test_noqa_opt_out(self):
        src = 's = "FRA"  # noqa: ADR502 -- wire-format fixture\n'
        assert codes(src, path=LIBRARY) == set()

class TestTree:
    def test_src_tree_is_clean(self):
        root = Path(__file__).resolve().parents[2]
        assert (root / "src" / "repro").is_dir()
        out = lint_paths([str(root / "src")])
        assert out == [], "\n".join(d.format() for d in out)

    def test_tests_and_benchmarks_are_clean(self):
        root = Path(__file__).resolve().parents[2]
        out = lint_paths([str(root / "tests"), str(root / "benchmarks")])
        assert out == [], "\n".join(d.format() for d in out)

    def test_every_noqa_comment_suppresses_a_finding(self):
        """A ``# noqa: ADRxxx`` comment whose code no longer fires on its
        line is stale -- e.g. the rule's scope shrank under it."""
        root = Path(__file__).resolve().parents[2]
        stale = []
        for top in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((root / top).rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                lines = text.splitlines(keepends=True)
                noqa = {}  # line -> codes its comment names
                for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                    if tok.type != tokenize.COMMENT:
                        continue
                    named = lint._noqa_lines(tok.string).get(1)
                    if named:
                        row, col = tok.start
                        noqa[row] = named
                        lines[row - 1] = lines[row - 1][:col] + "\n"
                raw = {
                    (d.source_location()[1], d.code)
                    for d in lint_source("".join(lines), str(path))
                }
                stale += [
                    f"{path.relative_to(root)}:{row} {code}"
                    for row, named in sorted(noqa.items())
                    for code in sorted(named)
                    if (row, code) not in raw
                ]
        assert stale == []


class TestCli:
    def test_clean_dir_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import numpy as np\nnp.random.seed(1)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ADR301" in out and "error" in out

    def test_syntax_error_reported(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 1

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        # a typo'd path in CI must not pass as vacuously clean
        assert main([str(tmp_path / "no_such_dir")]) == 1
        assert "ADR300" in capsys.readouterr().out

    def test_findings_are_sorted(self, tmp_path):
        from repro.analysis.lint import lint_paths

        (tmp_path / "b.py").write_text("import numpy as np\nnp.random.seed(1)\n")
        (tmp_path / "a.py").write_text(
            "import numpy as np\nx = 1\nnp.random.seed(1)\nnp.random.seed(2)\n"
        )
        out = lint_paths([str(tmp_path)])
        assert [d.sort_key() for d in out] == sorted(d.sort_key() for d in out)
        assert [Path(d.location.split(":")[0]).name for d in out] == [
            "a.py", "a.py", "b.py",
        ]


class TestCliFormats:
    BAD = "import numpy as np\nnp.random.seed(1)\n"

    def test_json_report(self, tmp_path, capsys):
        import json

        (tmp_path / "bad.py").write_text(self.BAD)
        assert main([str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.analysis.lint"
        assert doc["summary"]["findings"] == 1 == doc["summary"]["errors"]
        (finding,) = doc["findings"]
        assert finding["code"] == "ADR301"
        assert finding["severity"] == "error"
        assert finding["line"] == 2

    def test_github_annotations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD)
        assert main([str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "title=ADR301" in out and ",line=2," in out

    def test_out_writes_report_file(self, tmp_path, capsys):
        import json

        (tmp_path / "bad.py").write_text(self.BAD)
        report = tmp_path / "reports" / "lint.json"
        assert main(
            [str(tmp_path / "bad.py"), "--format", "json", "--out", str(report)]
        ) == 1
        doc = json.loads(report.read_text())
        assert doc["summary"]["findings"] == 1
        # stdout keeps only the human summary line, not the report
        assert "ADR301" not in capsys.readouterr().out.replace(str(report), "")

    def test_unknown_format_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path), "--format", "yaml"]) == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestWireTimeouts:
    """ADR402: no socket in a wire path without an explicit timeout."""

    NAKED_SOCKET = """
    import socket

    def serve():
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        return listener
    """

    TIMED_SOCKET = """
    import socket

    def serve():
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.settimeout(0.2)
        listener.bind(("127.0.0.1", 0))
        return listener
    """

    def test_socket_without_settimeout_flagged(self):
        assert codes(self.NAKED_SOCKET, path=FAULTS) == {"ADR402"}

    def test_socket_with_settimeout_clean(self):
        assert codes(self.TIMED_SOCKET, path=FAULTS) == set()

    def test_not_flagged_outside_wire_paths(self):
        assert codes(self.NAKED_SOCKET) == set()

    def test_create_connection_without_timeout_flagged(self):
        src = """
        import socket

        def dial(address):
            return socket.create_connection(address)
        """
        assert codes(src, path=FAULTS) == {"ADR402"}

    def test_create_connection_with_timeout_clean(self):
        for call in (
            "socket.create_connection(address, timeout=5.0)",
            "socket.create_connection(address, 5.0)",
        ):
            src = f"""
            import socket

            def dial(address):
                return {call}
            """
            assert codes(src, path=FAULTS) == set()

    def test_settimeout_none_flagged(self):
        src = """
        def forever(sock):
            sock.settimeout(None)
            return sock.recv(4)
        """
        assert codes(src, path=FAULTS) == {"ADR402"}

    def test_noqa_opt_out(self):
        src = """
        import socket

        def serve():
            listener = socket.socket()  # noqa: ADR402 -- closed by owner
            return listener
        """
        assert codes(src, path=FAULTS) == set()


class TestRuleTable:
    """Each row of RULES is resolved from the file's location: a planted
    violation is flagged at every scope pattern, and not at the row's
    home or outside its scope."""

    #: row name -> (code it reports, a violation of that row only)
    PLANTS = {
        "unseeded-rng": ("ADR301", "import numpy as np\nx = np.random.rand(3)\n"),
        "accumulator-equality": ("ADR302", "ok = acc.data[0] == 0.5\n"),
        "chunk-mutation": ("ADR303", "chunk.values = new\n"),
        "aggregate-loop": ("ADR305", textwrap.dedent(TestAggregateLoop.LOOP)),
        "per-read-loop": (
            "ADR305", "for r in batch:\n    segs = group_read(*fetch(r), grid, t)\n"
        ),
        "per-candidate-loop": ("ADR305", textwrap.dedent(TestAggregateLoop.PER_CANDIDATE)),
        "per-rect-loop": ("ADR306", textwrap.dedent(TestPerRectangleLoop.GRAPH_LOOP)),
        "bare-except": ("ADR401", "try:\n    f()\nexcept:\n    handle()\n"),
        "swallowed-exception": ("ADR401", textwrap.dedent(TestExceptionHygiene.SWALLOW)),
        "untimed-socket": ("ADR402", textwrap.dedent(TestWireTimeouts.NAKED_SOCKET)),
        "blocking-socket-call": (
            "ADR402", "def dial(address):\n    return socket.create_connection(address)\n"
        ),
        "phase-call": ("ADR501", textwrap.dedent(TestPhaseLoopOwnership.CALLS)),
        "result-construction": ("ADR501", "r = QueryResult(*fields)\n"),
        "store-open": ("ADR501", 'fh = open(p, "wb")\n'),
        "store-truncate": ("ADR501", "fd = os.open(p, os.O_WRONLY | os.O_TRUNC)\n"),
        "strategy-literal": ("ADR502", 'DEFAULT = "SRA"\n'),
        "concurrency-effects": ("ADR703", "item = q.get()\n"),
        "guarded-cache": ("ADR705", "class C:\n    def f(self):\n        self.hits += 1\n"),
    }

    @staticmethod
    def lint_at(root, rel, src):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
        return {d.code for d in lint_file(path)}

    @staticmethod
    def module_at(pattern):
        """A file the pattern matches: a directory gets a ``mod.py``."""
        rel = "src/repro/" + pattern.removeprefix("repro/")
        return rel + "mod.py" if rel.endswith("/") else rel

    def test_every_row_has_a_plant(self):
        assert [r.name for r in RULES] == list(self.PLANTS)

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    def test_scope(self, rule, tmp_path):
        code, src = self.PLANTS[rule.name]
        for pattern in rule.scope:
            assert code in self.lint_at(tmp_path, self.module_at(pattern), src), pattern
        for pattern in rule.home:
            assert code not in self.lint_at(tmp_path, self.module_at(pattern), src), pattern
        if rule.scope != ("",):
            assert code not in self.lint_at(tmp_path, "scripts/mod.py", src)
