"""Tests for the AST project lint pass."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Severity, lint_paths, lint_source
from repro.analysis.lint import main


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
        assert codes(src, rng_exempt=True) == set()


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
        out = findings(self.LOOP, runtime_hot_path=True)
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
        assert codes(src, runtime_hot_path=True) == {"ADR305"}

    def test_grouped_call_in_loop_ok(self):
        src = """\
            for k in range(len(seg_out)):
                accs.scatter_groups(q, o, idx[lo[k] : hi[k]], rows[lo[k] : hi[k]])
        """
        assert codes(src, runtime_hot_path=True) == set()

    def test_nested_loop_flagged_once_on_inner(self):
        src = """\
            for tile in tiles:
                for s, e in zip(starts, ends):
                    spec.aggregate(acc, cells[s:e], values[s:e])
        """
        out = findings(src, runtime_hot_path=True)
        assert [d.code for d in out] == ["ADR305"]
        assert ":2:" in out[0].location  # the inner loop, not the outer

    def test_noqa_opt_out(self):
        src = """\
            for s, e in zip(starts, ends):  # noqa: ADR305 -- reference oracle
                spec.aggregate(acc, cells[s:e], values[s:e])
        """
        assert codes(src, runtime_hot_path=True) == set()

    PER_READ = """\
        for r in reads_of(t):
            segs = group_read(item_idx, cells, values, grid, sel_map, tiles, t)
            reduced = spec.prereduce_groups(segs.values, segs.group_starts)
    """

    def test_per_read_grouping_flagged_in_the_phase_executor(self):
        out = findings(self.PER_READ, runtime_hot_path=True, phase_home=True)
        assert [d.code for d in out] == ["ADR305"]
        assert "group_read()" in out[0].message
        src = """\
            while pending:
                rows = self.spec.prereduce_groups(values, starts)
        """
        out = findings(src, runtime_hot_path=True, phase_home=True)
        assert [d.code for d in out] == ["ADR305"]
        assert "prereduce_groups()" in out[0].message

    def test_per_read_grouping_rule_is_scoped_to_the_phase_executor(self):
        """Kernels, the serial oracle and benchmarks may group one read."""
        assert codes(self.PER_READ, runtime_hot_path=True) == set()
        assert codes(self.PER_READ) == set()

    def test_batched_grouping_ok(self):
        src = """\
            segs = group_reads([fetch(r) for r in batch], grid, sel_map, tiles, t)
            rows = spec.prereduce_groups(segs.values, segs.group_starts)
            for k, r in enumerate(batch):
                accs.scatter_groups(reader, o, idx[lo[k] : hi[k]], rows[lo[k] : hi[k]])
        """
        assert codes(src, runtime_hot_path=True, phase_home=True) == set()

    def test_per_read_grouping_noqa_and_nesting(self):
        src = """\
            for t in range(n_tiles):
                for r in reads_of(t):  # noqa: ADR305 -- measuring the old path
                    segs = group_read(item_idx, cells, values, grid, sel_map, tiles, t)
        """
        assert codes(src, runtime_hot_path=True, phase_home=True) == set()
        out = findings(src.replace("  # noqa: ADR305 -- measuring the old path", ""),
                       runtime_hot_path=True, phase_home=True)
        assert [d.code for d in out] == ["ADR305"]
        assert ":2:" in out[0].location  # the inner loop, not the outer

    def test_phase_home_resolved_from_file_location(self, tmp_path, capsys):
        """Only src/repro/runtime/phases.py gets the per-read half."""
        src = "for r in batch:\n    segs = group_read(*fetch(r), grid, sel_map, tiles, t)\n"
        runtime = tmp_path / "src" / "repro" / "runtime"
        runtime.mkdir(parents=True)
        (runtime / "serial.py").write_text(src)
        assert main([str(runtime)]) == 0
        capsys.readouterr()
        (runtime / "phases.py").write_text(src)
        assert main([str(runtime)]) == 1
        out = capsys.readouterr().out
        assert "ADR305" in out and "phases.py" in out and "serial.py" not in out

    #: the candidate loop strategy selection had before it priced all
    #: candidates in one stacked pass
    PER_CANDIDATE = """\
        for name in names:
            plan = plan_query(problem, name)
            est = model.estimate(plan)
            estimates[plan.strategy] = est
    """

    def test_per_candidate_pricing_flagged_in_strategy_selection(self):
        out = findings(self.PER_CANDIDATE, select_home=True)
        assert [d.code for d in out] == ["ADR305"]
        assert "estimate()" in out[0].message and ":1:" in out[0].location
        for call in ("plan_stats(plan)", "plan_features(plan)"):
            src = f"while todo:\n    plan = todo.pop()\n    rows.append({call})\n"
            out = findings(src, select_home=True)
            assert [d.code for d in out] == ["ADR305"], call

    def test_per_candidate_rule_is_scoped_to_strategy_selection(self):
        """Cost models, tests and benchmarks may price one plan."""
        assert codes(self.PER_CANDIDATE) == set()
        assert codes(self.PER_CANDIDATE, runtime_hot_path=True, phase_home=True) == set()
        stacked = """\
            plans = [plan_query(problem, name) for name in names]
            estimates = model.estimate_many(plans)
        """
        assert codes(stacked, select_home=True) == set()

    def test_select_home_resolved_from_file_location(self, tmp_path, capsys):
        src = textwrap.dedent(self.PER_CANDIDATE)
        planner = tmp_path / "src" / "repro" / "planner"
        planner.mkdir(parents=True)
        (planner / "costmodel.py").write_text(src)
        assert main([str(planner)]) == 0
        capsys.readouterr()
        (planner / "select.py").write_text(src)
        assert main([str(planner)]) == 1
        out = capsys.readouterr().out
        assert "ADR305" in out and "select.py" in out and "costmodel.py" not in out

    def test_strategy_selection_module_is_clean(self):
        import repro.planner.select as select

        assert lint_paths([select.__file__]) == []

    def test_hot_path_resolved_from_file_location(self, tmp_path, capsys):
        """Only files under repro/runtime/ get the rule."""
        src = textwrap.dedent(self.LOOP)
        hot = tmp_path / "src" / "repro" / "runtime"
        hot.mkdir(parents=True)
        (hot / "mod.py").write_text(src)
        cold = tmp_path / "src" / "repro" / "planner"
        cold.mkdir(parents=True)
        (cold / "mod.py").write_text(src)
        assert main([str(cold)]) == 0
        capsys.readouterr()
        assert main([str(hot)]) == 1
        assert "ADR305" in capsys.readouterr().out


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
        out = findings(self.GRAPH_LOOP, index_hot_path=True)
        assert [d.code for d in out] == ["ADR306", "ADR306"]
        assert all(d.severity == Severity.ERROR for d in out)
        assert "project_rect()" in out[0].message + out[1].message
        assert "intersecting()" in out[0].message + out[1].message

    def test_per_chunk_mbr_fill_loop_flagged(self):
        out = findings(self.GRID_LOOP, index_hot_path=True)
        assert [d.code for d in out] == ["ADR306", "ADR306"]

    def test_not_flagged_outside_the_hot_path(self):
        assert codes(self.GRAPH_LOOP) == codes(self.GRID_LOOP) == set()

    def test_blocked_broadcast_is_fine(self):
        src = """\
            for s in range(0, n_in, step):
                hit = ((outputs.los <= his[s : s + step, None])
                       & (los[s : s + step, None] <= outputs.his)).all(axis=2)
        """
        assert codes(src, index_hot_path=True) == set()

    def test_noqa_opt_out(self):
        src = """\
            for i in range(n):
                tree.insert(i, los[i], his[i])  # noqa: ADR306 -- dynamic insert
        """
        assert codes(src, index_hot_path=True) == set()

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
        assert codes(src, fault_critical=True) == {"ADR401"}

    def test_swallow_flagged_only_in_fault_critical_code(self):
        assert codes(self.SWALLOW) == set()
        assert codes(self.SWALLOW, fault_critical=True) == {"ADR401"}

    def test_continue_and_ellipsis_bodies_flagged(self):
        src = """
        for x in xs:
            try:
                f(x)
            except ValueError:
                continue
        """
        assert codes(src, fault_critical=True) == {"ADR401"}
        src = """
        try:
            f()
        except ValueError:
            ...
        """
        assert codes(src, fault_critical=True) == {"ADR401"}

    def test_recording_handler_ok(self):
        src = """
        try:
            f()
        except OSError as e:
            errors[cid] = str(e)
        """
        assert codes(src, fault_critical=True) == set()

    def test_reraise_ok(self):
        src = """
        try:
            f()
        except OSError:
            raise
        """
        assert codes(src, fault_critical=True) == set()

    def test_noqa_opt_out(self):
        src = """
        try:
            f()
        except OSError:  # noqa: ADR401 -- probing an optional capability
            pass
        """
        assert codes(src, fault_critical=True) == set()

    def test_fault_critical_resolved_from_file_location(self, tmp_path):
        """lint_file applies the stricter half under repro/runtime/,
        repro/store/, repro/frontend/ and repro/faults/ -- everywhere
        an error can reach the fault-tolerant execution path."""
        import textwrap as tw

        from repro.analysis.lint import lint_file

        src = tw.dedent(self.SWALLOW)
        for part in ("store", "runtime", "frontend", "faults"):
            critical = tmp_path / "repro" / part / "mod.py"
            critical.parent.mkdir(parents=True)
            critical.write_text(src)
            assert {d.code for d in lint_file(critical)} == {"ADR401"}, part
        elsewhere = tmp_path / "repro" / "planner" / "mod.py"
        elsewhere.parent.mkdir(parents=True)
        elsewhere.write_text(src)
        assert {d.code for d in lint_file(elsewhere)} == set()


class TestPhaseLoopOwnership:
    """ADR501: phase-sequencing accumulator calls belong to
    runtime/phases.py; other runtime modules drive PhaseExecutor."""

    CALLS = """
    def reduce(spec, acc, idx, rows):
        spec.scatter_groups(acc, idx, rows)
    """

    def test_sequencing_call_flagged_in_phase_scope(self):
        assert codes(self.CALLS, phase_scope=True) == {"ADR501"}
        for name in ("allocate", "scatter_groups", "combine_from",
                     "initialize_into", "initialize_from", "prereduce_groups"):
            assert codes(f"x = accs.{name}(a, b)\n", phase_scope=True) == {"ADR501"}

    def test_not_flagged_outside_phase_scope(self):
        assert codes(self.CALLS) == set()

    def test_plain_function_call_ok(self):
        # Only attribute calls sequence phases; a bare helper of the
        # same name (e.g. a test fixture factory) is fine.
        assert codes("x = allocate(5)\n", phase_scope=True) == set()

    def test_noqa_opt_out(self):
        src = """
        spec.scatter_groups(acc, idx, vals)  # noqa: ADR501 -- reference oracle
        """
        assert codes(src, phase_scope=True) == set()

    def test_phase_scope_resolved_from_file_location(self, tmp_path):
        """Every runtime module except phases.py gets the rule."""
        from repro.analysis.lint import lint_file

        src = textwrap.dedent(self.CALLS)
        runtime = tmp_path / "repro" / "runtime"
        runtime.mkdir(parents=True)
        (runtime / "mod.py").write_text(src)
        (runtime / "phases.py").write_text(src)
        elsewhere = tmp_path / "repro" / "aggregation"
        elsewhere.mkdir(parents=True)
        (elsewhere / "mod.py").write_text(src)
        assert {d.code for d in lint_file(runtime / "mod.py")} == {"ADR501"}
        assert {d.code for d in lint_file(runtime / "phases.py")} == set()
        assert {d.code for d in lint_file(elsewhere / "mod.py")} == set()


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

    def test_construction_flagged_in_result_scope(self):
        for src in self.CONSTRUCTIONS.values():
            assert codes(src, result_scope=True) == {"ADR501"}
            assert codes(src) == set()

    def test_assembly_call_ok(self):
        src = "r = assemble_result(plan, emitted, [tally], race_diagnostics=[])\n"
        assert codes(src, result_scope=True) == set()

    def test_result_scope_resolved_from_file_location(self, tmp_path):
        """runtime/ and shard/ modules get the rule, except the engine;
        the wire decoder and the corpus oracle live elsewhere."""
        from repro.analysis.lint import lint_file

        src = "r = QueryResult(*fields)\n"
        flagged = [*self.CONSTRUCTIONS, "runtime/mod.py"]
        exempt = ["runtime/engine.py", "frontend/protocol.py", "analysis/corpus.py"]
        for rel in flagged + exempt:
            path = tmp_path / "repro" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(src)
        for rel in flagged:
            assert {d.code for d in lint_file(tmp_path / "repro" / rel)} == {"ADR501"}, rel
        for rel in exempt:
            assert {d.code for d in lint_file(tmp_path / "repro" / rel)} == set(), rel


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

    def test_truncating_opens_flagged_in_write_scope(self):
        found = findings(self.TRUNCATING, write_scope=True)
        assert [(d.code, d.location.split(":")[1]) for d in found] == [
            ("ADR501", "6"), ("ADR501", "8"), ("ADR501", "11"),
        ]
        src = "fd = os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)\n"
        assert codes(src, write_scope=True) == {"ADR501"}
        assert codes(self.TRUNCATING) == set()

    def test_reading_opens_flagged_in_write_scope(self):
        found = findings(self.READING, write_scope=True)
        assert [(d.code, d.location.split(":")[1]) for d in found] == [
            ("ADR501", "4"), ("ADR501", "8"),
        ]
        assert all("_read_file" in d.message for d in found)
        for src in ('a = open(p, "rb")\n', "b = open(p)\n", 'c = open(p, mode="ab")\n'):
            assert codes(src, write_scope=True) == {"ADR501"}, src
        assert codes(self.READING) == set()

    def test_os_level_reads_and_in_place_writes_ok(self):
        src = """
        fd = os.open(p, os.O_RDONLY)
        data = os.read(fd, os.fstat(fd).st_size)
        fd = os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)
        os.ftruncate(fd, n)
        """
        assert codes(src, write_scope=True) == set()

    def test_write_scope_resolved_from_file_location(self, tmp_path):
        from repro.analysis.lint import lint_file

        src = 'fh = open(p, "wb")\n'
        for rel, expected in (("store/mod.py", {"ADR501"}), ("index/base.py", set())):
            path = tmp_path / "repro" / rel
            path.parent.mkdir(parents=True)
            path.write_text(src)
            assert {d.code for d in lint_file(path)} == expected, rel


class TestStrategyLiteralMonopoly:
    """ADR502: strategy names are spelled in repro/planner/ only;
    everyone else imports them from repro.planner.select."""

    def test_literal_flagged_in_strategy_scope(self):
        for name in ("FRA", "SRA", "DA", "HYBRID", "AUTO"):
            assert codes(f's = "{name}"\n', strategy_scope=True) == {"ADR502"}

    def test_not_flagged_outside_strategy_scope(self):
        assert codes('s = "FRA"\n') == set()

    def test_other_strings_untouched(self):
        assert codes('s = "fra"\ns2 = "FRAME"\n', strategy_scope=True) == set()

    def test_docstrings_exempt(self):
        src = '''
        def plan():
            """Plans FRA or DA depending on the cost model."""
            return None
        '''
        assert codes(src, strategy_scope=True) == set()

    def test_noqa_opt_out(self):
        src = 's = "FRA"  # noqa: ADR502 -- wire-format fixture\n'
        assert codes(src, strategy_scope=True) == set()

    def test_scope_resolved_from_file_location(self, tmp_path):
        """Every repro/ module except repro/planner/ gets the rule."""
        from repro.analysis.lint import lint_file

        src = 'DEFAULT = "SRA"\n'
        frontend = tmp_path / "repro" / "frontend"
        frontend.mkdir(parents=True)
        (frontend / "mod.py").write_text(src)
        planner = tmp_path / "repro" / "planner"
        planner.mkdir(parents=True)
        (planner / "select.py").write_text(src)
        outside = tmp_path / "scripts"
        outside.mkdir(parents=True)
        (outside / "mod.py").write_text(src)
        assert {d.code for d in lint_file(frontend / "mod.py")} == {"ADR502"}
        assert {d.code for d in lint_file(planner / "select.py")} == set()
        assert {d.code for d in lint_file(outside / "mod.py")} == set()


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
        assert codes(self.NAKED_SOCKET, wire_scope=True) == {"ADR402"}

    def test_socket_with_settimeout_clean(self):
        assert codes(self.TIMED_SOCKET, wire_scope=True) == set()

    def test_not_flagged_outside_wire_scope(self):
        assert codes(self.NAKED_SOCKET) == set()

    def test_create_connection_without_timeout_flagged(self):
        src = """
        import socket

        def dial(address):
            return socket.create_connection(address)
        """
        assert codes(src, wire_scope=True) == {"ADR402"}

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
            assert codes(src, wire_scope=True) == set()

    def test_settimeout_none_flagged(self):
        src = """
        def forever(sock):
            sock.settimeout(None)
            return sock.recv(4)
        """
        assert codes(src, wire_scope=True) == {"ADR402"}

    def test_noqa_opt_out(self):
        src = """
        import socket

        def serve():
            listener = socket.socket()  # noqa: ADR402 -- closed by owner
            return listener
        """
        assert codes(src, wire_scope=True) == set()

    def test_wire_scope_resolved_from_file_location(self, tmp_path):
        import textwrap

        for part in ("frontend", "shard", "faults"):
            wire = tmp_path / "repro" / part / "mod.py"
            wire.parent.mkdir(parents=True, exist_ok=True)
            wire.write_text(textwrap.dedent(self.NAKED_SOCKET))
            assert {d.code for d in lint_paths([str(wire)])} == {"ADR402"}
        elsewhere = tmp_path / "repro" / "planner" / "mod.py"
        elsewhere.parent.mkdir(parents=True, exist_ok=True)
        elsewhere.write_text(textwrap.dedent(self.NAKED_SOCKET))
        assert {d.code for d in lint_paths([str(elsewhere)])} == set()
