"""AST-based project lint pass.

Enforces the repo-wide rules that keep the reproduction trustworthy
(reproducible randomness, no accidental float-equality on accumulator
math, immutable chunk payloads, explicit public APIs).  Run it as::

    python -m repro.analysis.lint src tests benchmarks examples

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` objects
with ``path:line:col`` locations; the CLI exits nonzero when any
finding survives suppression.  A line can opt out with a rationale::

    legacy_sample = np.random.rand(3)  # noqa: ADR301 -- seeded upstream

Every rule but ADR304 is a row of :data:`RULES`: a code, the paths it
applies to, the home modules it exempts and a matcher.  Which rows
apply to a file is worked out from its path alone.

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
          ``route_batch`` / ``group_reads`` / ``prereduce_groups``:
          the phase executor routes, groups and pre-reduces a whole
          batch of reads at once, never per read.  In
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
ADR307    per-read store call in ``src/repro/runtime/`` outside
          ``runtime/engine.py``: any ``.read_chunk()``, or a loop or
          comprehension calling ``provider`` (or a function of the
          module that calls it) -- the executor reads a batch per call,
          and ``engine._provider`` is the one per-id adapter
ADR401    bare ``except:`` anywhere, or an exception handler that
          silently swallows (body of only ``pass`` / ``continue`` /
          ``...``) inside the fault-critical paths
          (``src/repro/runtime/``, ``src/repro/store/``,
          ``src/repro/frontend/``, ``src/repro/faults/``,
          ``src/repro/shard/``) -- degraded execution must *record*
          every absorbed failure (``chunk_errors``), never discard it
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
          ``initialize_from`` / ``prereduce_groups``) in a
          ``src/repro/runtime/`` module other than ``phases.py`` --
          the four-phase tile loop lives in one place
          (:class:`repro.runtime.phases.PhaseExecutor`); the engine
          drives it, it does not re-implement it (the serial
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
``src/repro/store/``, ``src/repro/frontend/``, ``src/repro/shard/``)
additionally get the ``ADR7xx`` dataflow/concurrency rules of
:mod:`repro.analysis.effects` (unguarded shared-state mutation in
thread workers, ABBA lock order, unbounded blocking waits, cache
mutation outside the guarded section), through
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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.analysis.effects import check_effects

__all__ = [
    "lint_paths", "lint_file", "lint_source", "main", "LINT_CODES", "RULES", "Rule",
    "active_rules",
]

LINT_CODES = (
    "ADR301", "ADR302", "ADR303", "ADR304", "ADR305", "ADR306", "ADR307", "ADR401",
    "ADR402", "ADR501", "ADR502",
)

#: The canonical strategy names (ADR502 flags these exact strings).
_STRATEGY_LITERALS = frozenset({"FRA", "SRA", "DA", "HYBRID", "AUTO"})  # noqa: ADR502 -- the rule's own pattern table

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

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _last_name(node: ast.AST) -> Optional[str]:
    """``name`` for ``name`` and ``*.name``, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _own_nodes(node: ast.AST, nested: Tuple[type, ...]) -> Iterator[ast.AST]:
    """Descendants of *node*, breadth first, outside any nested node of
    a *nested* type (that node reports from its own visit)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop(0)
        if isinstance(child, nested):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _docstring_node_ids(tree: ast.AST) -> Set[int]:
    """``id()`` of every docstring Constant (ADR502 exempts them)."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


# -- matchers: each yields (node, message) per violation at one node ------

Matcher = Callable[["_Visitor", ast.AST], Iterable[Tuple[ast.AST, str]]]


def _calls(names: Sequence[str], message: str) -> Matcher:
    """Calls spelled one of *names*: ``.name`` is any attribute call of
    that name, anything else must be the whole dotted callee.
    ``{name}`` in *message* is the matched name."""
    def match(v: "_Visitor", node: ast.Call) -> Iterator[Tuple[ast.AST, str]]:
        fn = node.func
        if isinstance(fn, ast.Attribute) and "." + fn.attr in names:
            yield node, message.format(name=fn.attr)
        elif _dotted(fn) in names:
            yield node, message.format(name=_dotted(fn))
    return match


def _loop_calls(names: Sequence[str], message: str) -> Matcher:
    """A loop whose body calls ``name(...)`` / ``*.name(...)``, *name*
    one of *names*, outside any nested loop (the inner loop gets its
    own finding).  ``{name}`` in *message* is the first such call."""
    def match(v: "_Visitor", node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        for child in _own_nodes(node, _LOOPS):
            if isinstance(child, ast.Call) and _last_name(child.func) in names:
                yield node, message.format(name=_last_name(child.func))
                return
    return match


def _attribute(name: str, message: str) -> Matcher:
    def match(v: "_Visitor", node: ast.Attribute) -> Iterator[Tuple[ast.AST, str]]:
        if node.attr == name:
            yield node, message
    return match


def _unseeded_rng(v: "_Visitor", node: ast.Call) -> Iterator[Tuple[ast.AST, str]]:
    tail = (_dotted(node.func) or "").split(".")
    if len(tail) < 3 or tail[-3] not in ("np", "numpy") or tail[-2] != "random":
        return
    if tail[-1] in _LEGACY_RANDOM:
        yield node, (
            f"legacy global-state RNG call np.random.{tail[-1]}(); "
            "route randomness through repro.util.rng.make_rng"
        )
    elif (
        tail[-1] == "default_rng"
        and (not node.args or _is_none(node.args[0]))
        and not node.keywords
    ):
        yield node, (
            "np.random.default_rng() without a seed is nondeterministic; "
            "thread a seed or Generator through repro.util.rng.make_rng"
        )


def _accumulator_equality(v: "_Visitor", node: ast.Compare) -> Iterator[Tuple[ast.AST, str]]:
    if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
        _mentions_accumulator(o) for o in (node.left, *node.comparators)
    ):
        yield node, (
            "== / != on float accumulator values; partial sums are "
            "order-dependent -- use np.isclose/np.allclose or "
            "compare integer counters"
        )


def _chunk_mutation(v: "_Visitor", node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        # chunk.values[i] = ... mutates the payload too
        attr = target.value if isinstance(target, ast.Subscript) else target
        if isinstance(attr, ast.Attribute) and attr.attr in ("coords", "values", "meta"):
            root = _root_name(attr.value)
            if root and "chunk" in root.lower():
                yield node, (
                    f"mutation of Chunk payload '.{attr.attr}' after "
                    "construction; chunk payloads are shared between "
                    "virtual processors and must stay read-only"
                )


def _per_rect_loop(v: "_Visitor", node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
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
            name = _last_name(child.value)
            if (
                name in ("los", "his")
                and isinstance(child.slice, ast.Name)
                and child.slice.id in targets
            ):
                yield child, (
                    f"per-rectangle subscript '{name}[{child.slice.id}]' "
                    "inside a Python loop in the index hot path; compare "
                    "MBRs with vectorized column operations "
                    "(rects_intersect_mask, packed bitsets) -- bounded "
                    "structural loops may opt out with noqa"
                )
    # Per-entry Rect.intersects() calls anywhere in the loop body
    # (nested loops report from their own visit, like ADR305).
    for child in _own_nodes(node, _LOOPS):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in ("intersects", "intersecting", "project_rect")
        ):
            yield child, (
                f"per-entry {child.func.attr}() call inside a Python loop "
                "in the index hot path; handle all rectangles at once "
                "(rects_intersect_mask, Mapping.project_rects, one "
                "broadcast comparison)"
            )


_PER_READ = (
    "'{name}()' reads chunks one call per id in the runtime; the phase executor "
    "reads a batch per provider call, and repro.runtime.engine._provider is the "
    "one adapter from a per-id reader"
)
_read_chunk_call = _calls((".read_chunk",), _PER_READ)


def _per_read_call(v: "_Visitor", node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """``.read_chunk()``; a loop calling the provider or a caller of it."""
    if isinstance(node, ast.Call):
        yield from _read_chunk_call(v, node)
        return
    for child in _own_nodes(node, _LOOPS + _COMPREHENSIONS):
        if isinstance(child, ast.Call) and _last_name(child.func) in v.provider_callers:
            yield node, _PER_READ.format(name=_last_name(child.func))
            return


def _bare_except(v: "_Visitor", node: ast.ExceptHandler) -> Iterator[Tuple[ast.AST, str]]:
    if node.type is None:
        yield node, (
            "bare 'except:' catches SystemExit/KeyboardInterrupt and "
            "hides the failure class; name the exceptions (at minimum "
            "'except Exception')"
        )


def _swallowed_exception(v: "_Visitor", node: ast.ExceptHandler) -> Iterator[Tuple[ast.AST, str]]:
    if node.type is not None and all(
        isinstance(stmt, (ast.Pass, ast.Continue))
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in node.body
    ):
        yield node, (
            "exception swallowed without a trace in fault-critical code "
            "(runtime/, store/, frontend/, faults/, shard/); record it (e.g. "
            "in chunk_errors) or re-raise -- silent data loss is "
            "indistinguishable from a clean run"
        )


def _sets_no_timeout(call: ast.Call) -> bool:
    return len(call.args) == 1 and _is_none(call.args[0])


def _untimed_socket(v: "_Visitor", node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Sockets a function creates without a ``settimeout`` on them in
    the same function (a nested function is a function of its own)."""
    created: List[Tuple[str, ast.AST]] = []
    timed: Set[str] = set()
    for child in _own_nodes(node, _FUNCTIONS):
        if isinstance(child, ast.Assign) and isinstance(child.value, ast.Call):
            if (_dotted(child.value.func) or "").split(".")[-2:] == ["socket", "socket"]:
                created += [(t, child) for t in map(_dotted, child.targets) if t]
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "settimeout"
            and not _sets_no_timeout(child)
            and _dotted(child.func.value)
        ):
            timed.add(_dotted(child.func.value))
    for name, creation in created:
        if name not in timed:
            yield creation, (
                f"socket '{name}' created without settimeout() in the "
                "same function; a blocking socket in the wire path "
                "turns a dead peer into a hung query -- set an "
                "explicit timeout"
            )


def _blocking_socket_call(v: "_Visitor", node: ast.Call) -> Iterator[Tuple[ast.AST, str]]:
    attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
    if attr == "create_connection" and not (
        len(node.args) >= 2 or any(kw.arg == "timeout" for kw in node.keywords)
    ):
        yield node, (
            "create_connection() without a timeout blocks "
            "indefinitely on an unreachable peer; pass "
            "timeout= (derive it from the request deadline)"
        )
    elif attr == "settimeout" and _sets_no_timeout(node):
        yield node, (
            "settimeout(None) makes the socket blocking forever; "
            "wire-path sockets must keep an explicit timeout"
        )


def _strategy_literal(v: "_Visitor", node: ast.Constant) -> Iterator[Tuple[ast.AST, str]]:
    if (
        isinstance(node.value, str)
        and node.value in _STRATEGY_LITERALS
        and id(node) not in v.docstring_ids
    ):
        yield node, (
            f"hard-coded strategy literal {node.value!r} outside "
            "repro/planner/; import the name from repro.planner.select "
            "(FRA/SRA/DA/HYBRID/AUTO, FIXED_STRATEGIES, ALL_STRATEGIES) "
            "so strategy selection keeps a single choke point"
        )


# -- the rule table ----------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One row of :data:`RULES`.

    *code* applies to a file whose path matches a *scope* pattern and
    no *home* pattern; there *match* runs on every node of an *on*
    type.  A pattern ending in ``/`` is a directory and matches
    anywhere in the path, any other pattern is a module and matches
    the path's end (``""`` matches every path).  The ``ADR7xx`` rows
    have no matcher: they scope :func:`repro.analysis.effects.check_effects`.
    """

    name: str
    code: str
    scope: Tuple[str, ...]
    home: Tuple[str, ...]
    on: Tuple[type, ...]
    match: Optional[Matcher]

    def applies(self, posix: str) -> bool:
        return _matches(self.scope, posix) and not _matches(self.home, posix)


def _matches(patterns: Sequence[str], posix: str) -> bool:
    return any(p in posix if p.endswith("/") else posix.endswith(p) for p in patterns)


_STORE_FILES = (
    "; files are read through FileChunkStore._read_file and written "
    "through _write_file, which rewrites in place"
)

#: The lint's rules, one row each, in the order they report at one node.
RULES: Tuple[Rule, ...] = (
    # name, code, scope, home, node types, matcher
    Rule("unseeded-rng", "ADR301", ("",), ("util/rng.py",), (ast.Call,), _unseeded_rng),
    Rule(
        "accumulator-equality", "ADR302", ("",), (), (ast.Compare,),
        _accumulator_equality,
    ),
    Rule("chunk-mutation", "ADR303", ("",), (), (ast.Assign, ast.AugAssign), _chunk_mutation),
    Rule(
        "aggregate-loop", "ADR305", ("repro/runtime/",), (), _LOOPS,
        _loop_calls(
            ("aggregate",),
            "Python loop calling {name}() in the runtime hot path; "
            "per-item/per-edge loops are the pattern the fused kernels "
            "replaced -- group a batch with repro.runtime.kernels.group_reads, "
            "pre-reduce it with prereduce_groups and fold it with "
            "scatter_groups (reference oracles may opt out with noqa)",
        ),
    ),
    Rule(
        "per-read-loop", "ADR305", ("runtime/phases.py",), (), _LOOPS,
        _loop_calls(
            ("route_batch", "group_reads", "prereduce_groups"),
            "Python loop calling {name}() in the phase executor; the "
            "reduce phase routes, groups and pre-reduces a batch of "
            "reads with one repro.runtime.kernels.route_batch / "
            "group_reads / prereduce_groups call, not one per read",
        ),
    ),
    Rule(
        "per-candidate-loop", "ADR305", ("planner/select.py",), (), _LOOPS,
        _loop_calls(
            ("estimate", "plan_stats", "plan_features"),
            "Python loop calling {name}() in strategy selection; "
            "price every candidate in one stacked pass "
            "(model.estimate_many over repro.planner.stats.load_grids), "
            "not one plan at a time",
        ),
    ),
    Rule(
        "per-rect-loop", "ADR306",
        ("repro/index/", "repro/dataset/graph.py", "repro/aggregation/output_grid.py"),
        (), _LOOPS, _per_rect_loop,
    ),
    Rule(
        "per-read-call", "ADR307", ("repro/runtime/",), ("runtime/engine.py",),
        (ast.Call,) + _LOOPS + _COMPREHENSIONS, _per_read_call,
    ),
    Rule("bare-except", "ADR401", ("",), (), (ast.ExceptHandler,), _bare_except),
    Rule(
        "swallowed-exception", "ADR401",
        ("repro/runtime/", "repro/store/", "repro/frontend/", "repro/faults/", "repro/shard/"),
        (), (ast.ExceptHandler,), _swallowed_exception,
    ),
    Rule(
        "untimed-socket", "ADR402", ("repro/frontend/", "repro/shard/", "repro/faults/"),
        (), _FUNCTIONS, _untimed_socket,
    ),
    Rule(
        "blocking-socket-call", "ADR402",
        ("repro/frontend/", "repro/shard/", "repro/faults/"), (), (ast.Call,),
        _blocking_socket_call,
    ),
    Rule(
        "phase-call", "ADR501", ("repro/runtime/",), ("runtime/phases.py",), (ast.Call,),
        _calls(
            (".allocate", ".scatter_groups", ".combine_from",
             ".initialize_from", ".prereduce_groups"),
            "phase-sequencing call '{name}()' outside runtime/phases.py; the "
            "four-phase tile loop is owned by PhaseExecutor -- drive it "
            "instead of re-implementing it (the serial oracle may opt out "
            "with noqa)",
        ),
    ),
    Rule(
        "result-construction", "ADR501", ("repro/runtime/", "repro/shard/"),
        ("runtime/engine.py",), (ast.Call,),
        _calls(
            ("QueryResult", "engine.QueryResult"),
            "QueryResult constructed outside runtime/engine.py; results "
            "are assembled from tallies in one place -- call "
            "repro.runtime.engine.assemble_result",
        ),
    ),
    Rule(
        "store-open", "ADR501", ("repro/store/",), (), (ast.Call,),
        _calls(("open",), "builtin open() in the store" + _STORE_FILES),
    ),
    Rule(
        "store-truncate", "ADR501", ("repro/store/",), (), (ast.Attribute,),
        _attribute(
            "O_TRUNC",
            "O_TRUNC truncates a store file to zero, which makes ext4 start "
            "writeback on close" + _STORE_FILES,
        ),
    ),
    Rule(
        "strategy-literal", "ADR502", ("repro/",), ("repro/planner/",), (ast.Constant,),
        _strategy_literal,
    ),
    Rule(
        "concurrency-effects", "ADR7xx",
        ("repro/runtime/", "repro/store/", "repro/frontend/", "repro/shard/"), (), (), None,
    ),
    Rule("guarded-cache", "ADR705", ("store/cache.py",), (), (), None),
)


def active_rules(path: str) -> List[Rule]:
    """The rows of :data:`RULES` that apply to the file at *path*."""
    posix = Path(path).as_posix()
    return [rule for rule in RULES if rule.applies(posix)]


class _Visitor(ast.NodeVisitor):
    """Walks one module and runs each active row's matcher on the nodes
    of its types."""

    def __init__(
        self, path: str, out: DiagnosticCollector, rules: Sequence[Rule], tree: ast.AST
    ) -> None:
        self.path = path
        self.out = out
        self.tree = tree
        self.rules_by_type: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.on:
                self.rules_by_type.setdefault(node_type, []).append(rule)

    @cached_property
    def docstring_ids(self) -> Set[int]:
        return _docstring_node_ids(self.tree)

    @cached_property
    def provider_callers(self) -> Set[str]:
        """``provider`` and the module's functions that call it."""
        return {"provider"} | {
            fn.name for fn in ast.walk(self.tree)
            if isinstance(fn, _FUNCTIONS) and any(
                isinstance(c, ast.Call) and _last_name(c.func) == "provider"
                for c in ast.walk(fn)
            )
        }

    def visit(self, node: ast.AST) -> None:
        for rule in self.rules_by_type.get(type(node), ()):
            for at, message in rule.match(self, node):
                self.out.emit(
                    rule.code, Severity.ERROR,
                    f"{self.path}:{at.lineno}:{at.col_offset}", message,
                )
        self.generic_visit(node)


def _is_public_library_module(path: Path) -> bool:
    """ADR304 applies to importable modules inside a package tree."""
    if path.name in ("__main__.py", "conftest.py", "setup.py"):
        return False
    if path.name != "__init__.py" and path.name.startswith("_"):
        return False
    return (path.parent / "__init__.py").exists()


def lint_source(source: str, path: str, *, check_all: bool = False) -> List[Diagnostic]:
    """Lint one module's source text (the testable core).

    The rows of :data:`RULES` that apply are picked from *path*; where
    an ``ADR7xx`` row applies, the :mod:`repro.analysis.effects` checks
    run too and share this function's per-line ``# noqa`` suppression.
    *check_all* adds ADR304, which needs the file system.
    """
    out = DiagnosticCollector()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        out.error("ADR300", f"{path}:{exc.lineno or 0}:0", f"syntax error: {exc.msg}")
        return out.diagnostics
    rules = active_rules(path)
    _Visitor(path, out, rules, tree).visit(tree)
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
    if any(rule.code.startswith("ADR7") for rule in rules):
        out.diagnostics.extend(check_effects(source, path, tree=tree))
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
    return lint_source(
        path.read_text(encoding="utf-8"), str(path),
        check_all=_is_public_library_module(path),
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
