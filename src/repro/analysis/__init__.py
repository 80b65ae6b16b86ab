"""Static analysis and dynamic checking for the ADR reproduction.

Three cooperating passes, all reporting structured
:class:`~repro.analysis.diagnostics.Diagnostic` objects with stable
codes:

- :mod:`repro.analysis.verifier` (``ADR1xx``) -- statically proves a
  :class:`~repro.planner.plan.QueryPlan` upholds the strategy
  contracts of paper Figures 4-6 (replication, ``So ∪ {owner}``
  holders, no DA ghosts, edge-to-holder assignment, ghost-transfer
  completeness, per-tile memory budgets);
- :mod:`repro.analysis.lint` (``ADR3xx``-``ADR5xx``) -- an AST lint
  pass over the source tree enforcing repo rules (seeded randomness,
  no float equality on accumulators, immutable chunk payloads,
  explicit ``__all__``, exception hygiene, phase-loop ownership),
  runnable as ``python -m repro.analysis.lint``;
- :mod:`repro.analysis.effects` (``ADR7xx``) -- a dataflow /
  concurrency lint over the threaded runtime (unguarded shared-state
  mutation in thread workers, ABBA lock order, unbounded blocking
  waits, cache mutation outside the guarded section), run as part of
  the lint pass for concurrency-critical paths.

:mod:`repro.analysis.corpus` glues the verifier into CI: it plans a
canned corpus of problems with every strategy and fails on any
diagnostic (``python -m repro.analysis.corpus``).  ``ADR2xx``,
``ADR6xx`` and ``ADR704`` are retired and never reused.  See
``docs/static_analysis.md`` for the code catalog.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
    max_severity,
)
from repro.analysis.verifier import VERIFIER_CODES, verify_plan

_LINT_EXPORTS = ("lint_paths", "lint_file", "lint_source", "LINT_CODES")
_EFFECTS_EXPORTS = ("check_effects", "EFFECTS_CODES")


def __getattr__(name):
    # Lazy so ``python -m repro.analysis.<pass>`` does not double-import
    # the module (runpy warns when the package pre-imports it).
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    if name in _EFFECTS_EXPORTS:
        from repro.analysis import effects

        return getattr(effects, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Diagnostic",
    "DiagnosticCollector",
    "Severity",
    "max_severity",
    "verify_plan",
    "VERIFIER_CODES",
    "lint_paths",
    "lint_file",
    "lint_source",
    "LINT_CODES",
    "check_effects",
    "EFFECTS_CODES",
]
