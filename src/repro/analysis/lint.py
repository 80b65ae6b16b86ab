"""AST-based project lint pass.

Enforces the repo-wide rules that keep the reproduction trustworthy
(reproducible randomness, no accidental float-equality on accumulator
math, immutable chunk payloads, explicit public APIs).  Run it as::

    python -m repro.analysis.lint src tests benchmarks

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` objects
with ``path:line:col`` locations; the CLI exits nonzero when any
finding survives suppression.  A line can opt out with a rationale::

    legacy_sample = np.random.rand(3)  # noqa: ADR301 -- seeded upstream

Rules (``ADR3xx``):

========  ==========================================================
ADR301    unseeded / legacy ``np.random`` use outside ``util/rng.py``
          -- legacy global-state functions (``np.random.rand`` etc.)
          always, and ``np.random.default_rng()`` with no seed
ADR302    ``==`` / ``!=`` on float accumulator values (operands that
          reference accumulator data); use ``np.isclose`` or compare
          integer counters instead
ADR303    mutation of a ``Chunk`` payload (``.coords`` / ``.values``
          / ``.meta``) after construction -- chunks are shared across
          virtual processors and must stay read-only
ADR304    ``__all__`` missing from a public library module (packages
          under ``src/``; ``__main__.py`` and private modules exempt)
ADR305    Python loop calling ``aggregate`` inside the runtime hot
          path (``src/repro/runtime/``) -- per-item/per-edge loops are
          the slow pattern the fused kernels replaced; pre-reduce a
          batch of reads with ``prereduce_groups`` and fold it with
          ``scatter_groups`` instead (the preserved reference oracles
          opt out with ``noqa``).  In
          ``src/repro/runtime/phases.py`` also a loop calling
          ``group_read`` / ``prereduce_groups``: the phase executor
          groups and pre-reduces a whole batch of reads at once
          (``group_reads``), never per read.  In
          ``src/repro/planner/select.py`` a loop calling ``.estimate``
          / ``plan_stats`` / ``plan_features``: strategy selection
          prices every candidate in one stacked pass
          (``estimate_many``), never one plan at a time
ADR306    per-rectangle Python loop in the index / chunk-graph hot path
          (``src/repro/index/``, ``dataset/graph.py``,
          ``aggregation/output_grid.py``): a loop body that subscripts
          one MBR row at a time (``los[i]`` / ``his[i]`` with the loop
          variable) or calls ``intersects`` / ``intersecting`` /
          ``project_rect`` per entry -- compare MBRs with vectorized
          column operations (``rects_intersect_mask``,
          ``Mapping.project_rects``, packed bitsets) instead; bounded
          structural loops (node splits, dynamic insert) opt out with
          ``noqa``
ADR401    bare ``except:`` anywhere, or an exception handler that
          silently swallows (body of only ``pass`` / ``continue`` /
          ``...``) inside the fault-critical paths
          (``src/repro/runtime/``, ``src/repro/store/``,
          ``src/repro/frontend/``, ``src/repro/faults/``) -- degraded
          execution must *record* every absorbed failure
          (``chunk_errors``), never discard it
ADR402    untimed socket use inside the wire-protocol paths
          (``src/repro/frontend/``, ``src/repro/shard/``,
          ``src/repro/faults/``): a ``socket.socket()`` created
          without a ``settimeout`` call in the same function,
          ``create_connection`` without a timeout argument, or an
          explicit ``settimeout(None)`` -- a blocking socket in the
          scatter/gather path turns any dead peer into a hung query;
          every wire operation must carry a deadline
ADR501    phase-sequencing accumulator call (``allocate`` /
          ``scatter_groups`` / ``combine_from`` /
          ``initialize_into`` / ``initialize_from`` /
          ``prereduce_groups``) in a ``src/repro/runtime/`` module
          other than ``phases.py`` -- the four-phase tile loop lives
          in one place (:class:`repro.runtime.phases.PhaseExecutor`);
          backends drive it, they do not re-implement it (the serial
          Figure-1 oracle opts out with ``noqa``).  Likewise a
          ``QueryResult(...)`` construction in ``src/repro/runtime/``
          or ``src/repro/shard/`` outside ``runtime/engine.py``: a
          result is assembled from tallies in one place
          (``repro.runtime.engine.assemble_result``).  And a builtin
          ``open()`` in any mode, or an ``O_TRUNC``, in
          ``src/repro/store/``: store files have one reader
          (``FileChunkStore._read_file``) and one writer
          (``_write_file``), which rewrites in place, never truncating
          to zero
ADR502    hard-coded strategy string literal (``"FRA"`` / ``"SRA"`` /
          ``"DA"`` / ``"HYBRID"`` / ``"AUTO"``) in library code
          outside ``src/repro/planner/`` -- strategy names are defined
          once in :mod:`repro.planner.select`; import the constants
          (``FRA``, ``AUTO``, ``FIXED_STRATEGIES``, ...) so automatic
          selection stays a single choke point (docstrings exempt)
========  ==========================================================

Files under the concurrency-critical paths (``src/repro/runtime/``,
``src/repro/store/``, ``src/repro/frontend/``) additionally get the
``ADR7xx`` dataflow/concurrency rules of
:mod:`repro.analysis.effects` (unguarded shared-state mutation in
thread workers, ABBA lock order, unbounded blocking waits, leaked
``SharedMemory``, cache mutation outside the guarded section), through
the same noqa pipeline.

Output formats: the default is one ``location: severity: code
message`` line per finding; ``--format json`` emits a machine-readable
report (uploaded as a CI artifact) and ``--format github`` emits
workflow annotation commands.  All formats order findings by
``(path, line, col, code)``.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.analysis.effects import check_effects

__all__ = ["lint_paths", "lint_file", "lint_source", "main", "LINT_CODES"]

LINT_CODES = (
    "ADR301", "ADR302", "ADR303", "ADR304", "ADR305", "ADR306", "ADR401",
    "ADR402", "ADR501", "ADR502",
)

#: Directory whose modules are the execution hot path (ADR305).
_RUNTIME_HOT_PATH = ("repro/runtime/",)

#: Modules every query's chunk selection and chunk graph pass through
#: (ADR306): the indexes, ``ChunkGraph.from_geometry`` and the output
#: grid's chunk metadata.  MBR work there must be vectorized.
_INDEX_HOT_PATH = (
    "repro/index/", "repro/dataset/graph.py", "repro/aggregation/output_grid.py",
)

#: Per-rectangle geometry calls ADR306 rejects inside a Python loop.
_PER_RECT_CALLS = ("intersects", "intersecting", "project_rect")

#: Directories where silently swallowed exceptions hide data loss
#: (ADR401's stricter half applies here): the executing runtime, the
#: storage layer, the user-facing frontend (degradation reporting),
#: and the fault-injection machinery itself.
_FAULT_CRITICAL_PATHS = (
    "repro/runtime/", "repro/store/", "repro/frontend/", "repro/faults/",
    "repro/shard/",
)

#: Directories holding threaded / multiprocess code: the ADR7xx
#: dataflow rules of :mod:`repro.analysis.effects` apply here.
_CONCURRENCY_PATHS = (
    "repro/runtime/", "repro/store/", "repro/frontend/", "repro/shard/",
)

#: Directories speaking the wire protocol (ADR402): every socket
#: there must carry an explicit timeout or deadline -- a blocking
#: socket in the scatter/gather path turns any dead peer into a hung
#: query instead of a recorded ``shard_errors`` entry.
_WIRE_SCOPE_PATHS = ("repro/frontend/", "repro/shard/", "repro/faults/")

#: The module under the ADR705 guarded-cache lock discipline.
_GUARDED_CACHE_MODULES = ("store/cache.py", "store\\cache.py")

#: The one module allowed to sequence the four phases (ADR501).
_PHASE_LOOP_HOME = ("runtime/phases.py", "runtime\\phases.py")

#: Where ADR501's result half applies, and the one module allowed to
#: construct a ``QueryResult`` there.
_RESULT_SCOPE_PATHS = ("repro/runtime/", "repro/shard/")
_RESULT_HOME = ("runtime/engine.py", "runtime\\engine.py")

#: Where ADR501's file half applies: one reader, one writer.
_WRITE_SCOPE_PATHS = ("repro/store/",)

#: Per-read kernel calls ADR305 rejects inside a loop of that module:
#: its reduce phase runs them once per batch of reads.
_PER_READ_CALLS = ("group_read", "prereduce_groups")

#: The strategy-selection module, and the per-plan pricing calls ADR305
#: rejects inside a loop there: every candidate is priced in one pass.
_SELECT_HOME = ("planner/select.py", "planner\\select.py")
_PER_CANDIDATE_CALLS = ("estimate", "plan_stats", "plan_features")

#: Library code under these roots must import strategy names from
#: :mod:`repro.planner.select` instead of hard-coding the strings
#: (ADR502); the planner itself is where the names are defined.
_STRATEGY_SCOPE_PATHS = ("repro/",)
_STRATEGY_NAME_HOME = ("repro/planner/",)

#: The canonical strategy names (ADR502 flags these exact strings).
_STRATEGY_LITERALS = frozenset({"FRA", "SRA", "DA", "HYBRID", "AUTO"})  # noqa: ADR502 -- the rule's own pattern table

#: Accumulator-lifecycle methods whose call sites *are* the phase
#: loop: allocating/initializing accumulators, applying reduction
#: segments, merging ghosts.  Any runtime module calling these is
#: duplicating :class:`~repro.runtime.phases.PhaseExecutor`.
_PHASE_SEQUENCING_CALLS = frozenset(
    {
        "allocate", "scatter_groups", "combine_from", "initialize_into",
        "initialize_from", "prereduce_groups",
    }
)

#: np.random functions backed by the legacy global RandomState --
#: unseedable per call site, therefore never reproducible.
_LEGACY_RANDOM = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "bytes", "shuffle", "permutation", "seed",
        "get_state", "set_state", "uniform", "normal", "standard_normal",
        "poisson", "binomial", "exponential", "beta", "gamma", "lognormal",
    }
)

#: Modules exempt from ADR301: the one place that may mint generators.
_RNG_EXEMPT = ("util/rng.py", "util\\rng.py")

#: ``# noqa: <code-list>`` where the list may mix tools (``# noqa:
#: E402, ADR301``); only the listed ADR codes are suppressed, and only
#: those -- trailing rationale text ("-- mentions ADR302") never
#: widens the set, and a bare ``# noqa`` (no codes) suppresses nothing
#: (this lint wants explicit, auditable opt-outs).
_NOQA_RE = re.compile(
    r"#\s*noqa:\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+|\s+[A-Z]+\d+)*)", re.IGNORECASE
)
_NOQA_CODE_RE = re.compile(r"^ADR\d+$")

#: Identifiers that denote accumulator *values* (float partial sums).
_ACC_NAME_RE = re.compile(r"^acc(_|$|s$|umulator)|_acc(_|$)|^ghost_data$")
#: ...unless the name is clearly a count/size/id, which compares exactly.
_NON_VALUE_RE = re.compile(r"bytes|count|size|len|idx|ids|indptr|chunk")
#: Structural attributes of an array/accumulator -- not float data.
_STRUCTURAL_ATTRS = frozenset(
    {"shape", "dtype", "ndim", "size", "nbytes", "itemsize",
     "output_chunk", "ghost", "n_items", "strategy"}
)


def _is_acc_value_name(name: str) -> bool:
    low = name.lower()
    return bool(_ACC_NAME_RE.search(low)) and not _NON_VALUE_RE.search(low)


def _noqa_lines(source: str) -> dict:
    """line number -> set of suppressed ADR codes.

    A line suppresses exactly the ADR codes it lists -- co-located
    findings with other codes always survive, non-ADR codes in a mixed
    list (``# noqa: E402, ADR301``) are other tools' business, and
    codes appearing only in rationale prose are not part of the list.
    """
    out: dict = {}
    for i, line in enumerate(source.splitlines(), start=1):
        codes: Set[str] = set()
        for m in _NOQA_RE.finditer(line):
            for c in re.split(r"[,\s]+", m.group(1)):
                c = c.strip().upper()
                if _NOQA_CODE_RE.match(c):
                    codes.add(c)
        if codes:
            out[i] = codes
    return out


def _dotted(node: ast.AST) -> Optional[str]:
    """'np.random.rand' for nested Attribute/Name chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mentions_accumulator(node: ast.AST) -> bool:
    """Does the expression denote accumulator float data?

    Follows the access chain outward: ``acc``, ``acc.data[i]`` and
    ``tile_acc[0]`` qualify; ``acc.data.shape``, ``acc_nbytes`` and
    ``spec.acc_bytes(5)`` (counts, structure, call results) do not.
    """
    if isinstance(node, ast.Name):
        return _is_acc_value_name(node.id)
    if isinstance(node, ast.Subscript):
        return _mentions_accumulator(node.value)
    if isinstance(node, ast.Attribute):
        if node.attr in _STRUCTURAL_ATTRS:
            return False
        if _is_acc_value_name(node.attr):
            return True
        return _mentions_accumulator(node.value)
    return False


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _calls_directly(loop: ast.AST, names: Sequence[str]) -> Optional[ast.Call]:
    """The first ``name(...)`` / ``*.name(...)`` call, *name* one of
    *names*, in the loop body that is not inside a *nested* loop (the
    inner loop gets its own finding)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(loop))
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            continue  # the nested loop is flagged on its own
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else (
                fn.id if isinstance(fn, ast.Name) else None
            )
            if name in names:
                return node
        stack.extend(ast.iter_child_nodes(node))
    return None


def _call_name(call: ast.Call) -> str:
    fn = call.func
    return fn.attr if isinstance(fn, ast.Attribute) else fn.id


def _docstring_node_ids(tree: ast.AST) -> Set[int]:
    """``id()`` of every docstring Constant (ADR502 exempts them)."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


class _Visitor(ast.NodeVisitor):
    def __init__(
        self, path: str, out: DiagnosticCollector, rng_exempt: bool,
        runtime_hot_path: bool = False, fault_critical: bool = False,
        phase_scope: bool = False, index_hot_path: bool = False,
        wire_scope: bool = False, strategy_scope: bool = False,
        docstring_ids: Optional[Set[int]] = None, phase_home: bool = False,
        select_home: bool = False, result_scope: bool = False, write_scope: bool = False,
    ) -> None:
        self.path = path
        self.write_scope = write_scope
        self.out = out
        self.rng_exempt = rng_exempt
        self.runtime_hot_path = runtime_hot_path
        self.fault_critical = fault_critical
        self.phase_scope = phase_scope
        self.phase_home = phase_home
        self.select_home = select_home
        self.result_scope = result_scope
        self.index_hot_path = index_hot_path
        self.wire_scope = wire_scope
        self.strategy_scope = strategy_scope
        self.docstring_ids = docstring_ids if docstring_ids is not None else set()
        #: ADR402 per-function frames: sockets created vs. timed.
        self._socket_frames: List[dict] = []

    def _loc(self, node: ast.AST) -> str:
        return f"{self.path}:{node.lineno}:{node.col_offset}"

    # -- ADR402: untimed sockets in wire-protocol code ---------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_wire_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_wire_function(node)

    def _visit_wire_function(self, node: ast.AST) -> None:
        if not self.wire_scope:
            self.generic_visit(node)
            return
        frame = {"created": [], "timed": set()}
        self._socket_frames.append(frame)
        self.generic_visit(node)
        self._socket_frames.pop()
        for name, creation in frame["created"]:
            if name not in frame["timed"]:
                self.out.emit(
                    "ADR402",
                    Severity.ERROR,
                    self._loc(creation),
                    f"socket '{name}' created without settimeout() in the "
                    "same function; a blocking socket in the wire path "
                    "turns a dead peer into a hung query -- set an "
                    "explicit timeout",
                )

    def _check_wire_call(self, node: ast.Call) -> None:
        fn = node.func
        attr = fn.attr if isinstance(fn, ast.Attribute) else None
        if attr == "create_connection":
            timed = len(node.args) >= 2 or any(
                kw.arg == "timeout" for kw in node.keywords
            )
            if not timed:
                self.out.emit(
                    "ADR402",
                    Severity.ERROR,
                    self._loc(node),
                    "create_connection() without a timeout blocks "
                    "indefinitely on an unreachable peer; pass "
                    "timeout= (derive it from the request deadline)",
                )
        elif attr == "settimeout":
            if (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                self.out.emit(
                    "ADR402",
                    Severity.ERROR,
                    self._loc(node),
                    "settimeout(None) makes the socket blocking forever; "
                    "wire-path sockets must keep an explicit timeout",
                )
            elif self._socket_frames:
                target = _dotted(fn.value)
                if target is not None:
                    self._socket_frames[-1]["timed"].add(target)

    def _note_wire_assignment(self, node: ast.Assign) -> None:
        if not isinstance(node.value, ast.Call):
            return
        dotted = _dotted(node.value.func)
        if dotted is None or dotted.split(".")[-2:] != ["socket", "socket"]:
            return
        if not self._socket_frames:
            return
        for t in node.targets:
            target = _dotted(t)
            if target is not None:
                self._socket_frames[-1]["created"].append((target, node))

    # -- ADR301: unseeded randomness --------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if not self.rng_exempt:
            dotted = _dotted(node.func)
            if dotted is not None:
                tail = dotted.split(".")
                if len(tail) >= 3 and tail[-3] in ("np", "numpy") and tail[-2] == "random":
                    fn = tail[-1]
                    if fn in _LEGACY_RANDOM:
                        self.out.emit(
                            "ADR301",
                            Severity.ERROR,
                            self._loc(node),
                            f"legacy global-state RNG call np.random.{fn}(); "
                            "route randomness through repro.util.rng.make_rng",
                        )
                    elif fn == "default_rng" and (
                        not node.args
                        or (
                            isinstance(node.args[0], ast.Constant)
                            and node.args[0].value is None
                        )
                    ) and not node.keywords:
                        self.out.emit(
                            "ADR301",
                            Severity.ERROR,
                            self._loc(node),
                            "np.random.default_rng() without a seed is "
                            "nondeterministic; thread a seed or Generator "
                            "through repro.util.rng.make_rng",
                        )
        # -- ADR501: phase sequencing outside runtime/phases.py -----------
        if (
            self.phase_scope
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PHASE_SEQUENCING_CALLS
        ):
            self.out.emit(
                "ADR501",
                Severity.ERROR,
                self._loc(node),
                f"phase-sequencing call '{node.func.attr}()' outside "
                "runtime/phases.py; the four-phase tile loop is owned by "
                "PhaseExecutor -- drive it instead of re-implementing it "
                "(the serial oracle may opt out with noqa)",
            )
        if self.result_scope and _dotted(node.func) in ("QueryResult", "engine.QueryResult"):
            self.out.emit(
                "ADR501",
                Severity.ERROR,
                self._loc(node),
                "QueryResult constructed outside runtime/engine.py; results "
                "are assembled from tallies in one place -- call "
                "repro.runtime.engine.assemble_result",
            )
        if self.write_scope and _dotted(node.func) == "open":
            self._store_file_access(node, "builtin open() in the store")
        if self.wire_scope:
            self._check_wire_call(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.write_scope and node.attr == "O_TRUNC":
            self._store_file_access(
                node, "O_TRUNC truncates a store file to zero, which makes ext4 "
                "start writeback on close"
            )
        self.generic_visit(node)

    def _store_file_access(self, node: ast.AST, what: str) -> None:
        self.out.emit(
            "ADR501", Severity.ERROR, self._loc(node),
            f"{what}; files are read through FileChunkStore._read_file and "
            "written through _write_file, which rewrites in place",
        )

    # -- ADR302: float equality on accumulator values ----------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(_mentions_accumulator(o) for o in operands):
                self.out.emit(
                    "ADR302",
                    Severity.ERROR,
                    self._loc(node),
                    "== / != on float accumulator values; partial sums are "
                    "order-dependent -- use np.isclose/np.allclose or "
                    "compare integer counters",
                )
        self.generic_visit(node)

    # -- ADR303: chunk payload mutation ------------------------------------

    def _check_mutation_target(self, target: ast.AST, node: ast.AST) -> None:
        attr = target
        if isinstance(attr, ast.Subscript):  # chunk.values[i] = ...
            attr = attr.value
        if isinstance(attr, ast.Attribute) and attr.attr in ("coords", "values", "meta"):
            root = _root_name(attr.value)
            if root and "chunk" in root.lower():
                self.out.emit(
                    "ADR303",
                    Severity.ERROR,
                    self._loc(node),
                    f"mutation of Chunk payload '.{attr.attr}' after "
                    "construction; chunk payloads are shared between "
                    "virtual processors and must stay read-only",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_mutation_target(t, node)
        if self.wire_scope:
            self._note_wire_assignment(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node.target, node)
        self.generic_visit(node)

    # -- ADR305: scalar aggregate loop in the runtime hot path -------------

    def _check_aggregate_loop(self, node: ast.AST) -> None:
        if self.runtime_hot_path and _calls_directly(node, ("aggregate",)) is not None:
            self.out.emit(
                "ADR305",
                Severity.ERROR,
                self._loc(node),
                "Python loop calling aggregate() in the runtime hot path; "
                "per-item/per-edge loops are the pattern the fused kernels "
                "replaced -- group a batch with repro.runtime.kernels.group_reads, "
                "pre-reduce it with prereduce_groups and fold it with "
                "scatter_groups (reference oracles may opt out with noqa)",
            )
        call = _calls_directly(node, _PER_READ_CALLS) if self.phase_home else None
        if call is not None:
            self.out.emit(
                "ADR305",
                Severity.ERROR,
                self._loc(node),
                f"Python loop calling {_call_name(call)}() in the phase executor; the "
                "reduce phase groups and pre-reduces a batch of reads with "
                "one repro.runtime.kernels.group_reads / prereduce_groups "
                "call, not one per read",
            )
        call = _calls_directly(node, _PER_CANDIDATE_CALLS) if self.select_home else None
        if call is not None:
            self.out.emit(
                "ADR305",
                Severity.ERROR,
                self._loc(node),
                f"Python loop calling {_call_name(call)}() in strategy selection; "
                "price every candidate in one stacked pass "
                "(model.estimate_many over repro.planner.stats.load_grids), "
                "not one plan at a time",
            )

    # -- ADR306: per-rectangle loops in the index hot path -----------------

    def _check_index_loop(self, node: ast.AST) -> None:
        if not self.index_hot_path:
            return
        # Loop targets (``for i in ...``): a bare-name subscript
        # ``los[i]`` / ``his[i]`` with one of them walks MBRs one row
        # at a time.  ``los[:, dim]`` (a per-dimension column, tuple
        # slice) stays vectorized over the rectangles and is fine.
        targets = (
            {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
            if isinstance(node, (ast.For, ast.AsyncFor))
            else set()
        )
        if targets:
            for child in ast.walk(node):
                if not isinstance(child, ast.Subscript):
                    continue
                base = child.value
                name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None
                )
                if (
                    name in ("los", "his")
                    and isinstance(child.slice, ast.Name)
                    and child.slice.id in targets
                ):
                    self.out.emit(
                        "ADR306",
                        Severity.ERROR,
                        self._loc(child),
                        f"per-rectangle subscript '{name}[{child.slice.id}]' "
                        "inside a Python loop in the index hot path; compare "
                        "MBRs with vectorized column operations "
                        "(rects_intersect_mask, packed bitsets) -- bounded "
                        "structural loops may opt out with noqa",
                    )
        # Per-entry Rect.intersects() calls anywhere in the loop body
        # (nested loops report from their own visit, like ADR305).
        stack: List[ast.AST] = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop(0)
            if isinstance(child, (ast.For, ast.While, ast.AsyncFor)):
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _PER_RECT_CALLS
            ):
                self.out.emit(
                    "ADR306",
                    Severity.ERROR,
                    self._loc(child),
                    f"per-entry {child.func.attr}() call inside a Python loop "
                    "in the index hot path; handle all rectangles at once "
                    "(rects_intersect_mask, Mapping.project_rects, one "
                    "broadcast comparison)",
                )
            stack.extend(ast.iter_child_nodes(child))

    def visit_For(self, node: ast.For) -> None:
        self._check_aggregate_loop(node)
        self._check_index_loop(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_aggregate_loop(node)
        self._check_index_loop(node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_aggregate_loop(node)
        self._check_index_loop(node)
        self.generic_visit(node)

    # -- ADR502: strategy literals outside the planner ---------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            self.strategy_scope
            and isinstance(node.value, str)
            and node.value in _STRATEGY_LITERALS
            and id(node) not in self.docstring_ids
        ):
            self.out.emit(
                "ADR502",
                Severity.ERROR,
                self._loc(node),
                f"hard-coded strategy literal {node.value!r} outside "
                "repro/planner/; import the name from repro.planner.select "
                "(FRA/SRA/DA/HYBRID/AUTO, FIXED_STRATEGIES, ALL_STRATEGIES) "
                "so strategy selection keeps a single choke point",
            )
        self.generic_visit(node)

    # -- ADR401: swallowed exceptions in fault-critical code ---------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.out.emit(
                "ADR401",
                Severity.ERROR,
                self._loc(node),
                "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                "hides the failure class; name the exceptions (at minimum "
                "'except Exception')",
            )
        elif self.fault_critical and all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        ):
            self.out.emit(
                "ADR401",
                Severity.ERROR,
                self._loc(node),
                "exception swallowed without a trace in fault-critical code "
                "(runtime/store); record it (e.g. in chunk_errors) or "
                "re-raise -- silent data loss is indistinguishable from a "
                "clean run",
            )
        self.generic_visit(node)


def _is_public_library_module(path: Path) -> bool:
    """ADR304 applies to importable modules inside a package tree."""
    if path.name in ("__main__.py", "conftest.py", "setup.py"):
        return False
    if path.name != "__init__.py" and path.name.startswith("_"):
        return False
    return (path.parent / "__init__.py").exists()


def lint_source(
    source: str, path: str, *, rng_exempt: bool = False, check_all: bool = False,
    runtime_hot_path: bool = False, fault_critical: bool = False,
    phase_scope: bool = False, concurrency_scope: bool = False,
    guarded_cache: bool = False, index_hot_path: bool = False,
    wire_scope: bool = False, strategy_scope: bool = False,
    phase_home: bool = False, select_home: bool = False,
    result_scope: bool = False, write_scope: bool = False,
) -> List[Diagnostic]:
    """Lint one module's source text (the testable core).

    *concurrency_scope* adds the ADR7xx dataflow/concurrency rules
    (:mod:`repro.analysis.effects`); *guarded_cache* additionally
    enforces the ADR705 cache-lock discipline.  Both share this
    function's per-line ``# noqa`` suppression.
    """
    out = DiagnosticCollector()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        out.error("ADR300", f"{path}:{exc.lineno or 0}:0", f"syntax error: {exc.msg}")
        return out.diagnostics
    _Visitor(
        path, out, rng_exempt, runtime_hot_path, fault_critical, phase_scope,
        index_hot_path, wire_scope, strategy_scope,
        docstring_ids=_docstring_node_ids(tree) if strategy_scope else None,
        phase_home=phase_home, select_home=select_home, result_scope=result_scope,
        write_scope=write_scope,
    ).visit(tree)
    if check_all and not any(
        isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
        for n in tree.body
    ):
        out.emit(
            "ADR304",
            Severity.WARNING,
            f"{path}:1:0",
            "public module defines no __all__; declare the public API "
            "explicitly",
        )
    if concurrency_scope or guarded_cache:
        out.diagnostics.extend(
            check_effects(source, path, guarded_cache=guarded_cache, tree=tree)
        )
    suppressed = _noqa_lines(source)
    kept: List[Diagnostic] = []
    for d in out.diagnostics:
        try:
            line = int(d.location.rsplit(":", 2)[-2])
        except (ValueError, IndexError):
            line = 0
        if d.code in suppressed.get(line, ()):  # explicit, per-line opt-out
            continue
        kept.append(d)
    return kept


def lint_file(path: Path) -> List[Diagnostic]:
    text = path.read_text(encoding="utf-8")
    posix = path.as_posix()
    return lint_source(
        text,
        str(path),
        rng_exempt=any(posix.endswith(e) for e in _RNG_EXEMPT),
        check_all=_is_public_library_module(path),
        runtime_hot_path=any(m in posix for m in _RUNTIME_HOT_PATH),
        fault_critical=any(m in posix for m in _FAULT_CRITICAL_PATHS),
        phase_scope=(
            any(m in posix for m in _RUNTIME_HOT_PATH)
            and not any(posix.endswith(e) for e in _PHASE_LOOP_HOME)
        ),
        phase_home=any(posix.endswith(e) for e in _PHASE_LOOP_HOME),
        select_home=any(posix.endswith(e) for e in _SELECT_HOME),
        result_scope=(
            any(m in posix for m in _RESULT_SCOPE_PATHS)
            and not any(posix.endswith(e) for e in _RESULT_HOME)
        ),
        write_scope=any(m in posix for m in _WRITE_SCOPE_PATHS),
        concurrency_scope=any(m in posix for m in _CONCURRENCY_PATHS),
        guarded_cache=any(posix.endswith(e) for e in _GUARDED_CACHE_MODULES),
        index_hot_path=any(m in posix for m in _INDEX_HOT_PATH),
        wire_scope=any(m in posix for m in _WIRE_SCOPE_PATHS),
        strategy_scope=(
            any(m in posix for m in _STRATEGY_SCOPE_PATHS)
            and not any(m in posix for m in _STRATEGY_NAME_HOME)
        ),
    )


def lint_paths(paths: Sequence[str]) -> List[Diagnostic]:
    """Lint every ``*.py`` file under *paths* (files or directories).

    A path that does not exist is itself an ``ADR300`` error: a typo'd
    path in CI must not pass as vacuously clean.
    """
    files: List[Path] = []
    missing: List[Diagnostic] = []
    for p in paths:
        root = Path(p)
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        elif root.is_file() and root.suffix == ".py":
            files.append(root)
        else:
            missing.append(
                Diagnostic(
                    "ADR300",
                    Severity.ERROR,
                    f"{p}:0:0",
                    "path does not exist or is not a directory/.py file",
                )
            )
    findings: List[Diagnostic] = list(missing)
    for f in files:
        if "egg-info" in f.as_posix():
            continue
        findings.extend(lint_file(f))
    findings.sort(key=lambda d: d.sort_key())  # stable across filesystems
    return findings


def render_report(
    findings: Sequence[Diagnostic], fmt: str, tool: str, scope: Sequence[str]
) -> str:
    """Findings as text in *fmt* (``text`` / ``json`` / ``github``).

    Shared by the lint and corpus CLIs so both emit the same JSON
    shape (the CI artifact) and the same annotation commands.
    """
    findings = sorted(findings, key=lambda d: d.sort_key())
    if fmt == "json":
        n_err = sum(1 for d in findings if d.severity >= Severity.ERROR)
        return json.dumps(
            {
                "tool": tool,
                "scope": list(scope),
                "summary": {
                    "findings": len(findings),
                    "errors": n_err,
                    "warnings": sum(
                        1 for d in findings if d.severity == Severity.WARNING
                    ),
                },
                "findings": [d.to_dict() for d in findings],
            },
            indent=2,
        )
    if fmt == "github":
        return "\n".join(d.format_github() for d in findings)
    return "\n".join(d.format() for d in findings)


def _parse_output_args(argv: List[str], usage: str):
    """Extract ``--format <fmt>`` / ``--out <path>`` from *argv* (in
    place).  Returns ``(fmt, out_path, error_message)``."""
    fmt, out_path = "text", None
    err = None
    for flag in ("--format", "--out"):
        while flag in argv:
            k = argv.index(flag)
            if k + 1 >= len(argv):
                return fmt, out_path, f"{flag} requires a value\n{usage}"
            value = argv.pop(k + 1)
            argv.pop(k)
            if flag == "--format":
                if value not in ("text", "json", "github"):
                    return fmt, out_path, (
                        f"unknown format {value!r} (text, json, github)\n{usage}"
                    )
                fmt = value
            else:
                out_path = value
    return fmt, out_path, err


def _write_report(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        if text:
            print(text)
        return
    p = Path(out_path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text + "\n", encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: python -m repro.analysis.lint [PATH ...] "
        "[--format text|json|github] [--out FILE]"
    )
    fmt, out_path, err = _parse_output_args(argv, usage)
    if err is not None:
        print(f"repro.analysis.lint: {err}", file=sys.stderr)
        return 2
    paths = argv or ["src"]
    findings = lint_paths(paths)
    _write_report(render_report(findings, fmt, "repro.analysis.lint", paths), out_path)
    n_err = sum(1 for d in findings if d.severity >= Severity.ERROR)
    n_warn = len(findings) - n_err
    if findings:
        if fmt == "text":
            print(f"repro.analysis.lint: {n_err} error(s), {n_warn} warning(s)")
        return 1
    if fmt == "text" and out_path is None:
        print(f"repro.analysis.lint: clean ({', '.join(paths)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
