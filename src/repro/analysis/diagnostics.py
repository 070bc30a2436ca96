"""Structured diagnostics: stable codes, severities, fix hints.

Every problem the static analyses can detect is identified by a stable
``RPR###`` code (the code is API: tests, CI logs and downstream tooling
key on it, never on message text).  A :class:`Diagnostic` is one finding
— code, severity, human message, the node it anchors to and a fix hint.
:class:`DiagnosticError` wraps one diagnostic as a raisable
:class:`~repro.errors.GraphError` so existing ``except GraphError``
call sites (and ``pytest.raises(GraphError, match=...)`` assertions)
keep working unchanged.

Code layout
-----------
``RPR1xx``
    verifier findings (graph / program scope, detected without running);
``RPR2xx``
    runtime faults (bad feeds, arity violations) routed through the
    same model so error output is uniformly greppable.

This module is import-light on purpose: it depends only on
:mod:`repro.errors`, so the graph IR can raise coded errors without an
import cycle through the analysis package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, NoReturn, Optional, Tuple

from ..errors import GraphError


class Severity(enum.IntEnum):
    """How bad one finding is (ordered: higher is worse)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry of one stable diagnostic code."""

    code: str
    severity: Severity
    title: str
    hint: str = ""


#: All known codes.  Append-only: a released code never changes meaning.
CODES: Dict[str, CodeInfo] = {}


def _code(code: str, severity: Severity, title: str, hint: str = "") -> None:
    if code in CODES:
        raise ValueError(f"diagnostic code {code} registered twice")
    CODES[code] = CodeInfo(code=code, severity=severity, title=title,
                           hint=hint)


# --------------------------------------------------------------------- #
# Verifier codes (static, no execution)
# --------------------------------------------------------------------- #
_code("RPR101", Severity.ERROR, "unknown operator type",
      "register the operator with repro.graph.ops.register_op()")
_code("RPR102", Severity.ERROR, "shape inconsistency",
      "the op's register_shape() rule rejected the inferred input "
      "shapes; fix the producing layer's dimensions")
_code("RPR103", Severity.WARNING, "op has no static shape rule",
      "attach one with repro.graph.ops.register_shape() so the graph "
      "can be statically profiled")
_code("RPR104", Severity.WARNING, "graph input declares no shape",
      "declare the input shape (leading dim 0 = any batch) to enable "
      "static shape inference")
_code("RPR105", Severity.WARNING, "shape rule crashed",
      "the op's shape rule raised a non-GraphError; harden it to "
      "raise GraphError on bad shapes")
_code("RPR106", Severity.ERROR, "output arity mismatch",
      "make the node's declared outputs match what its shape rule "
      "(and execute()) produce")
_code("RPR110", Severity.WARNING, "dead node",
      "the node contributes to no graph output; remove it or add its "
      "result to the outputs")
_code("RPR111", Severity.ERROR, "value produced twice",
      "every value name must have exactly one producer (SSA-style)")
_code("RPR112", Severity.ERROR, "cycle or missing values",
      "some node inputs are never produced, or the graph has a cycle")
_code("RPR113", Severity.ERROR, "graph output never produced",
      "add a node producing the output, or drop it from graph.outputs")
_code("RPR114", Severity.ERROR, "node has no outputs",
      "every node must name at least one output value")
_code("RPR115", Severity.ERROR, "duplicate initializer",
      "initializer names must be unique within a graph")
_code("RPR120", Severity.ERROR, "missing activation fit",
      "the node is marked impl='pwl' but carries no approximator; run "
      "repro.graph.passes.replace_activations() (or attach one)")
_code("RPR121", Severity.ERROR, "unknown activation function",
      "the node's attrs['fn'] is not in the function registry; "
      "register it with repro.functions.register()")
_code("RPR122", Severity.ERROR, "unknown activation impl",
      "attrs['impl'] must be 'exact' or 'pwl'")
_code("RPR123", Severity.ERROR, "static-cost anomaly",
      "the program's static profile disagrees with the op cost model; "
      "the profile was tampered with or the cost rule changed")
_code("RPR124", Severity.WARNING, "unpriceable activation",
      "the profiled activation has no baseline cost in repro.perf.costs "
      "(register the function so the Fig. 6 model can price it)")
_code("RPR130", Severity.WARNING, "PWL domain does not cover input range",
      "the fitted interval is narrower than the function's declared "
      "input range and extrapolation error is large (FQA full-space "
      "coverage); refit on the full interval")
_code("RPR131", Severity.ERROR, "degenerate PWL table",
      "breakpoints must be >= 2, finite, strictly increasing, with one "
      "value per breakpoint; rebuild via PiecewiseLinear.create()")
_code("RPR140", Severity.ERROR, "slot double-use",
      "an arena slot was written or freed while another live value "
      "still occupies it; the liveness plan is corrupt")
_code("RPR141", Severity.WARNING, "leaked arena slot",
      "a non-persistent value is never freed; the arena plan keeps "
      "more memory live than the working set needs")
_code("RPR142", Severity.ERROR, "read of dead slot",
      "a node reads an arena slot after it was freed (or before any "
      "write); the liveness plan is corrupt")

# --------------------------------------------------------------------- #
# Runtime codes (bad feeds / execution faults, same model)
# --------------------------------------------------------------------- #
_code("RPR201", Severity.ERROR, "missing graph input",
      "the feed dict must provide every declared graph input")
_code("RPR202", Severity.ERROR, "input shape incompatible",
      "the fed array's non-batch dims must match the declared shape")
_code("RPR203", Severity.ERROR, "batch-dim mismatch",
      "all inputs of one request must carry the same sample count")
_code("RPR204", Severity.ERROR, "runtime output arity mismatch",
      "execute() returned a different number of outputs than the node "
      "declares")
_code("RPR205", Severity.ERROR, "unknown value",
      "the requested value name does not exist in the compiled program")
_code("RPR206", Severity.ERROR, "no static profile",
      "static shape inference failed at compile time; see the compile "
      "warnings for the root cause")
_code("RPR207", Severity.ERROR, "invalid batch size",
      "batch_size must be a positive integer")
_code("RPR208", Severity.ERROR, "token id outside the table",
      "an input an embedding reads as token ids must hold integers in "
      "[0, rows) of its table")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyses (or a coded runtime fault)."""

    code: str
    message: str
    severity: Severity
    node: str = ""
    graph: str = ""
    hint: str = ""

    @property
    def is_error(self) -> bool:
        """True when this finding makes the graph/program unusable."""
        return self.severity >= Severity.ERROR

    def format(self) -> str:
        """One-line human rendering: ``error RPR102 [node]: message``."""
        where = f" [{self.node}]" if self.node else ""
        return f"{self.severity} {self.code}{where}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (the ``repro check --json`` schema)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "node": self.node,
            "graph": self.graph,
            "hint": self.hint,
        }


def make_diagnostic(code: str, message: str, *, node: str = "",
                    graph: str = "", hint: Optional[str] = None,
                    severity: Optional[Severity] = None) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity/hint from the table."""
    info = CODES.get(code)
    if info is None:
        raise ValueError(f"unknown diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        message=message,
        severity=info.severity if severity is None else severity,
        node=node,
        graph=graph,
        hint=info.hint if hint is None else hint,
    )


class DiagnosticError(GraphError):
    """A fatal diagnostic as an exception.

    Subclasses :class:`~repro.errors.GraphError` so every pre-existing
    handler and test assertion on the graph layer keeps matching; the
    stringified form is ``[CODE] message`` (``pytest.raises(...,
    match=...)`` uses ``re.search``, so message-substring assertions
    are unaffected by the prefix).
    """

    def __init__(self, diagnostic: Diagnostic,
                 others: Tuple[Diagnostic, ...] = ()) -> None:
        self.diagnostic = diagnostic
        self.diagnostics: Tuple[Diagnostic, ...] = (diagnostic,) + others
        suffix = (f" (+{len(others)} more finding"
                  f"{'s' if len(others) > 1 else ''})" if others else "")
        super().__init__(f"[{diagnostic.code}] {diagnostic.message}{suffix}")

    @property
    def code(self) -> str:
        """The stable code of the primary finding."""
        return self.diagnostic.code


def fail(code: str, message: str, *, node: str = "", graph: str = "",
         hint: Optional[str] = None) -> NoReturn:
    """Raise ``message`` as a coded :class:`DiagnosticError`.

    A raised finding is always at least an error, whatever the code's
    default severity says (the default matters for *collected*
    diagnostics, not raised ones).
    """
    info = CODES.get(code)
    severity = Severity.ERROR if info is None or \
        info.severity < Severity.ERROR else info.severity
    raise DiagnosticError(make_diagnostic(
        code, message, node=node, graph=graph, hint=hint,
        severity=severity))
