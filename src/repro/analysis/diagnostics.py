"""Structured diagnostics shared by every analysis pass.

Every pass (plan verifier, project lint, effects lint)
reports problems the same way: a :class:`Diagnostic` with a
stable code, a severity, a location and a human-readable message.
Stable codes let tests pin individual invariants, let CI gate on
severity, and let source lines suppress a finding explicitly
(``# noqa: ADR3xx -- rationale``).

Code ranges
-----------
- ``ADR1xx`` -- static plan invariants (:mod:`repro.analysis.verifier`)
- ``ADR2xx`` -- retired with the simulated-race detector; never reused
- ``ADR3xx`` -- project lint over the source tree
  (:mod:`repro.analysis.lint`)
- ``ADR4xx`` / ``ADR5xx`` -- exception hygiene and phase-loop
  ownership rules (also :mod:`repro.analysis.lint`)
- ``ADR6xx`` -- retired with the communication model checker; never
  reused
- ``ADR7xx`` -- dataflow/concurrency lint over the threaded runtime
  (:mod:`repro.analysis.effects`); ``ADR704`` is retired with the
  multiprocess backend, the last shared-memory user; never reused
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

__all__ = ["Severity", "Diagnostic", "DiagnosticCollector", "max_severity"]

#: ``path:line:col`` locations emitted by the source-level passes.
_SOURCE_LOC_RE = re.compile(r"^(?P<path>.*):(?P<line>\d+):(?P<col>\d+)$")


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow integer order."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an analysis pass.

    Attributes
    ----------
    code:
        Stable identifier (``ADR101`` ...); never reuse a retired code.
    severity:
        :class:`Severity`; ``validate_plan`` raises only on ERROR.
    location:
        Where the problem is: ``"output chunk 3"``, ``"tile 2 /
        processor 1"``, or ``"path.py:12:4"`` for lint findings.
    message:
        Human-readable explanation, specific enough to act on.
    """

    code: str
    severity: Severity
    location: str
    message: str

    def format(self) -> str:
        # str() explicitly: IntEnum.__format__ renders the *numeric*
        # value on some Python versions, and "error" vs "30" matters
        # to every consumer that greps this line.
        return f"{self.location}: {str(self.severity)}: {self.code} {self.message}"

    def source_location(self) -> Optional[Tuple[str, int, int]]:
        """``(path, line, col)`` when the location is source-shaped
        (``path:line:col``), else None (plan locations like
        ``"output chunk 3"``)."""
        m = _SOURCE_LOC_RE.match(self.location)
        if m is None:
            return None
        return m.group("path"), int(m.group("line")), int(m.group("col"))

    def sort_key(self) -> Tuple:
        """Stable ordering: by path, line, column, code, then message.

        Non-source locations sort by their literal text with line 0,
        so a mixed report is still deterministic.
        """
        src = self.source_location()
        if src is None:
            return (self.location, 0, 0, self.code, self.message)
        path, line, col = src
        return (path, line, col, self.code, self.message)

    def to_dict(self) -> dict:
        """JSON-ready mapping (``--format json`` in the CLIs)."""
        out = {
            "code": self.code,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
        }
        src = self.source_location()
        if src is not None:
            out["path"], out["line"], out["col"] = src
        return out

    def format_github(self) -> str:
        """A GitHub Actions workflow annotation command."""
        level = {
            Severity.ERROR: "error",
            Severity.WARNING: "warning",
            Severity.NOTE: "notice",
        }[self.severity]
        src = self.source_location()
        if src is None:
            return f"::{level} title={self.code}::{self.location}: {self.message}"
        path, line, col = src
        return (
            f"::{level} file={path},line={line},col={col},"
            f"title={self.code}::{self.message}"
        )

    def __str__(self) -> str:
        return self.format()


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """Highest severity present, or None for an empty report."""
    worst: Optional[Severity] = None
    for d in diagnostics:
        if worst is None or d.severity > worst:
            worst = d.severity
    return worst


@dataclass
class DiagnosticCollector:
    """Accumulates diagnostics; every pass appends into one of these.

    ``limit_per_code`` caps repeats of the same code so a corrupted
    plan with thousands of identical violations stays readable; the
    final occurrence of a capped code is replaced by a summary NOTE.
    """

    limit_per_code: Optional[int] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    _counts: dict = field(default_factory=dict)

    def emit(
        self, code: str, severity: Severity, location: str, message: str
    ) -> None:
        n = self._counts.get(code, 0)
        self._counts[code] = n + 1
        if self.limit_per_code is not None:
            if n == self.limit_per_code:
                self.diagnostics.append(
                    Diagnostic(
                        code,
                        Severity.NOTE,
                        location,
                        f"further {code} findings suppressed "
                        f"(limit {self.limit_per_code} per code)",
                    )
                )
                return
            if n > self.limit_per_code:
                return
        self.diagnostics.append(Diagnostic(code, severity, location, message))

    def error(self, code: str, location: str, message: str) -> None:
        self.emit(code, Severity.ERROR, location, message)

    def warning(self, code: str, location: str, message: str) -> None:
        self.emit(code, Severity.WARNING, location, message)

    def count(self, code: str) -> int:
        """Total findings emitted for *code* (including suppressed)."""
        return self._counts.get(code, 0)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    def codes(self) -> Tuple[str, ...]:
        return tuple(sorted({d.code for d in self.diagnostics}))
