"""AST dataflow/concurrency lint over the threaded runtime (``ADR7xx``).

The plan verifier (:mod:`repro.analysis.verifier`) proves the plan
the runtime executes; this pass checks the threaded Python that
executes it.  It runs
through the same pipeline as the project lint (:func:`lint_source`
invokes it for files under ``repro/runtime/``, ``repro/store/``,
``repro/frontend/`` and ``repro/shard/``, the scope of the lint's
``ADR7xx`` row) and shares the ``# noqa: ADR7xx -- rationale`` opt-out.

========  ==========================================================
ADR701    shared mutable state (a ``self`` attribute) written by a
          thread-worker function outside a ``with <lock>`` block --
          every function handed to ``threading.Thread(target=...)``
          must mutate shared state only under the object's lock /
          condition variable
ADR702    inconsistent lock-acquisition order: two locks nested in
          opposite orders within one module -- the classic ABBA
          deadlock
ADR703    blocking ``.get()`` / ``.join()`` with no timeout in a
          concurrency-critical module -- a dead peer must fail the
          query, not hang it
ADR705    cache state mutated outside the guarded section in the
          guarded-cache module (``store/cache.py``): every write to
          the LRU's attributes must happen under ``with self._lock``
          or inside a ``*_locked`` helper, and a ``*_locked`` helper is
          called only with the lock held
========  ==========================================================

ADR704 (an unreleased ``SharedMemory`` segment) is retired with its
last user, the multiprocess backend, and never reused; a CI grep over
``src/`` now refuses the process and shared-memory modules outright,
so code that brings them back must bring a leak check back too.

See ``docs/static_analysis.md`` for the catalog and rationale.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector, Severity

__all__ = ["EFFECTS_CODES", "check_effects"]

EFFECTS_CODES = ("ADR701", "ADR702", "ADR703", "ADR705")

#: Names that denote a lock-ish synchronization object when they are
#: the context expression of a ``with`` (``self._lock``, ``cv``, ...).
_LOCKISH_RE = re.compile(r"lock|mutex|cv$|cond|sem", re.IGNORECASE)

#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "move_to_end", "sort",
        "reverse", "appendleft", "popleft",
    }
)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_lockish(expr: ast.AST) -> bool:
    """Is this ``with``-context expression a lock acquisition?

    Matches a lock-named object (``self._lock``, ``cv``) or a method
    call on one (``self._cv.acquire_timeout(...)``); the *last* name
    component decides (``self.clock`` has 'lock' inside a longer word
    and still matches -- the lint is deliberately permissive here, a
    stray ``with`` over a non-lock is harmless to the rule).
    """
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = _dotted(expr)
    if name is None:
        return False
    return bool(_LOCKISH_RE.search(name.split(".")[-1]))


def _self_attr_written(node: ast.AST) -> Optional[str]:
    """The ``self.<attr>`` a statement's target mutates, else None."""
    target = node
    while isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _self_attr_mutating_call(call: ast.Call) -> Optional[str]:
    """``self.<attr>`` whose in-place mutator this call invokes."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in _MUTATING_METHODS):
        return None
    recv = fn.value
    while isinstance(recv, ast.Subscript):
        recv = recv.value
    if (
        isinstance(recv, ast.Attribute)
        and isinstance(recv.value, ast.Name)
        and recv.value.id == "self"
    ):
        return recv.attr
    return None


def _thread_target_names(tree: ast.Module) -> Set[str]:
    """Function names handed to ``threading.Thread(target=...)``."""
    targets: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None or name.split(".")[-1] != "Thread":
            continue
        for kw in node.keywords:
            if kw.arg == "target":
                tname = _dotted(kw.value)
                if tname is not None:
                    targets.add(tname.split(".")[-1])
    return targets


class _EffectsVisitor(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        out: DiagnosticCollector,
        thread_targets: Set[str],
        cache_module: bool,
    ) -> None:
        self.path = path
        self.out = out
        self.thread_targets = thread_targets
        self.cache_module = cache_module
        self.lock_depth = 0
        self.lock_stack: List[str] = []  # dotted names of held locks
        self.lock_orders: Dict[Tuple[str, str], ast.AST] = {}
        self.func_stack: List[ast.AST] = []

    def _loc(self, node: ast.AST) -> str:
        return f"{self.path}:{node.lineno}:{node.col_offset}"

    # -- scope bookkeeping ----------------------------------------------

    def _in_thread_worker(self) -> bool:
        return any(
            isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and f.name in self.thread_targets
            for f in self.func_stack
        )

    def _in_guarded_method(self) -> bool:
        """Inside ``__init__`` (pre-publication) or a ``*_locked``
        helper (caller holds the lock by convention)?"""
        return any(
            isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (f.name == "__init__" or f.name.endswith("_locked"))
            for f in self.func_stack
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        held = [
            _dotted(it.context_expr.func if isinstance(it.context_expr, ast.Call)
                    else it.context_expr) or "<lock>"
            for it in node.items
            if _is_lockish(it.context_expr)
        ]
        # ADR702: record every (outer, inner) lock nesting pair.
        for outer in self.lock_stack:
            for inner in held:
                if inner == outer:
                    continue
                self.lock_orders.setdefault((outer, inner), node)
                if (inner, outer) in self.lock_orders:
                    self.out.emit(
                        "ADR702",
                        Severity.ERROR,
                        self._loc(node),
                        f"locks {outer!r} and {inner!r} are nested in both "
                        "orders in this module; two threads taking them in "
                        "opposite orders deadlock (ABBA) -- pick one global "
                        "order",
                    )
        self.lock_depth += len(held)
        self.lock_stack.extend(held)
        self.generic_visit(node)
        for _ in held:
            self.lock_stack.pop()
        self.lock_depth -= len(held)

    visit_AsyncWith = visit_With

    # -- ADR701: unguarded shared-state mutation in thread workers -------

    def _check_shared_write(self, attr: Optional[str], node: ast.AST) -> None:
        if attr is None or self.lock_depth > 0:
            return
        if self._in_thread_worker():
            self.out.emit(
                "ADR701",
                Severity.ERROR,
                self._loc(node),
                f"thread-worker function mutates shared state 'self.{attr}' "
                "outside a lock; every write the fetch/consumer threads "
                "race on must happen under the object's condition "
                "variable/lock",
            )
        elif self.cache_module and not self._in_guarded_method():
            # ADR705: the guarded-cache module's discipline.
            self.out.emit(
                "ADR705",
                Severity.ERROR,
                self._loc(node),
                f"cache state 'self.{attr}' mutated outside the guarded "
                "section; the LRU is shared between QueryService worker "
                "threads -- mutate under 'with self._lock' or in "
                "a '*_locked' helper",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_shared_write(_self_attr_written(t), node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_shared_write(_self_attr_written(node.target), node)
        self.generic_visit(node)

    # -- calls: ADR703 (unbounded waits) + mutating methods (701/705) ----

    def visit_Call(self, node: ast.Call) -> None:
        self._check_shared_write(_self_attr_mutating_call(node), node)
        fn = node.func
        helper = _dotted(fn) or ""
        if helper.startswith("self.") and helper.endswith("_locked") and (
            self.cache_module and not self.lock_depth and not self._in_guarded_method()
        ):
            self.out.emit(
                "ADR705", Severity.ERROR, self._loc(node),
                f"'{helper}()' called outside the guarded section; a '*_locked' "
                "helper runs with the lock held -- call it under 'with self._lock'",
            )
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("get", "join")
            and not node.args
            and not node.keywords
            and not isinstance(fn.value, ast.Constant)  # "sep".join(...)
        ):
            self.out.emit(
                "ADR703",
                Severity.ERROR,
                self._loc(node),
                f"blocking '.{fn.attr}()' with no timeout in a "
                "concurrency-critical module; a dead peer must fail the "
                "query, not hang it -- pass a timeout and surface the "
                "failure",
            )
        self.generic_visit(node)


def check_effects(
    source: str, path: str, *, tree: Optional[ast.Module] = None
) -> List[Diagnostic]:
    """Run the ADR7xx checks over one module's source.

    Raw findings -- ``# noqa`` filtering is applied by the caller
    (:func:`repro.analysis.lint.lint_source`), so suppression works
    identically across the 3xx/4xx/5xx/7xx rules.  ADR705's lock
    discipline applies where the lint's ``ADR705`` row scopes it from
    *path* (``store/cache.py``).
    """
    from repro.analysis.lint import active_rules  # lint imports this module

    out = DiagnosticCollector()
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return []  # the project lint reports ADR300 for this
    cache_module = any(rule.code == "ADR705" for rule in active_rules(path))
    visitor = _EffectsVisitor(path, out, _thread_target_names(tree), cache_module)
    visitor.visit(tree)
    return out.diagnostics
