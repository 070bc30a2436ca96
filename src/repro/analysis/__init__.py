"""Static analysis: the IR verifier, diagnostics model and check registry.

Two layers live under this package:

* **diagnostics** — the stable-code :class:`Diagnostic` model every
  finding (and every coded runtime error) flows through;
* **verifier** — :func:`verify` runs the registered
  :class:`~repro.analysis.checks.Check` set over a
  :class:`~repro.graph.ir.Graph` or compiled
  :class:`~repro.graph.program.Program` without executing it.

Only the diagnostics core is imported eagerly (the graph IR raises
coded errors through it, so it must stay dependency-free); the checks,
verifier and reporting load on first attribute access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import _lazy_exports
from .diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    DiagnosticError,
    Severity,
    fail,
    make_diagnostic,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checks import CHECK_REGISTRY, Check, register_check
    from .context import AnalysisContext
    from .report import (
        count_by_severity,
        diagnostics_payload,
        format_code_table,
        format_diagnostics,
    )
    from .verify import raise_on_errors, run_checks, verify

#: Lazily-resolved public names -> defining submodule.
_LAZY = {
    "AnalysisContext": "context",
    "Check": "checks",
    "CHECK_REGISTRY": "checks",
    "register_check": "checks",
    "verify": "verify",
    "run_checks": "verify",
    "raise_on_errors": "verify",
    "count_by_severity": "report",
    "diagnostics_payload": "report",
    "format_code_table": "report",
    "format_diagnostics": "report",
}

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticError",
    "Severity",
    "fail",
    "make_diagnostic",
    *sorted(_LAZY),
]


__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)
