"""The optimizing pass framework: ``Plan`` → ``Pass`` → ``PassPipeline``.

:func:`repro.graph.program.compile_graph` runs a pipeline between
scheduling and kernel baking when called with ``optimize=True``.  Each
pass is a named plan→plan rewrite; the pipeline records a static cost
profile before and after every pass (:class:`PassReport`), so the
optimization story is auditable per pass — ``repro compile
--dump-plan`` prints exactly these records.

Contract every pass must honour (the property suite enforces both):

* **bitwise equality** — running the rewritten plan produces outputs
  bitwise-identical to the eager interpreter on the *original* graph;
* **profile consistency** — the rewritten plan's static cost profile
  must still equal its runtime-derived profile node for node (fused
  records carry the summed cost of their steps, so the *totals* —
  MACs, activation elements — are preserved, only the record
  granularity changes).

Ordering guarantees: passes run in the order given; each pass sees
the plan exactly as the previous one left it.  The dependence-level
reorder (``schedule-regions``) comes last in :data:`DEFAULT_PASSES`,
after the passes that remove or merge records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ...errors import GraphError
from ..ir import Graph, Node
from ..ops import Shape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..program import GraphProfile

__all__ = [
    "DEFAULT_PASSES",
    "Pass",
    "PassPipeline",
    "PassReport",
    "Plan",
    "available_passes",
    "build_pipeline",
    "get_pass",
    "register_graph_pass",
]


@dataclass
class Plan:
    """The mutable compilation state a pass rewrites.

    ``graph`` is a private clone (weights shared read-only) — passes
    may mutate nodes, initializers and the schedule freely without
    touching the caller's graph.  ``shapes`` maps every value to its
    static shape at ``batch_size`` (``None`` when inference failed;
    passes must tolerate that).
    """

    graph: Graph
    order: List[Node]
    batch_size: int
    shapes: Optional[Dict[str, Shape]] = None


class Pass:
    """Protocol for one named plan rewrite.

    Subclasses set :attr:`name` and implement :meth:`run`, mutating the
    plan in place and returning a short human-readable note describing
    what changed (``"folded 3 nodes"``).
    """

    name: str = ""

    def run(self, plan: Plan) -> str:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class PassReport:
    """Static cost profile delta of one executed pass."""

    name: str
    before_nodes: int
    after_nodes: int
    before: Optional["GraphProfile"]
    after: Optional["GraphProfile"]
    notes: str = ""

    def delta(self) -> Dict[str, int]:
        """Signed after-minus-before changes of the headline counters."""
        if self.before is None or self.after is None:
            return {"nodes": self.after_nodes - self.before_nodes}
        return {
            "nodes": self.after_nodes - self.before_nodes,
            "macs": self.after.total_macs - self.before.total_macs,
            "vector_ops": (self.after.total_vector_ops
                           - self.before.total_vector_ops),
            "act_elements": (self.after.total_act_elements
                             - self.before.total_act_elements),
        }

    def to_dict(self) -> Dict[str, object]:
        d = self.delta()
        return {
            "pass": self.name,
            "nodes_before": self.before_nodes,
            "nodes_after": self.after_nodes,
            "delta": d,
            "notes": self.notes,
        }

    def format(self) -> str:
        d = self.delta()
        parts = [f"{self.before_nodes}->{self.after_nodes} nodes"]
        for key in ("macs", "vector_ops", "act_elements"):
            if key in d and d[key]:
                parts.append(f"{key} {d[key]:+,}")
        tail = f" ({self.notes})" if self.notes else ""
        return f"{self.name}: {', '.join(parts)}{tail}"


# --------------------------------------------------------------------- #
# Pass registry
# --------------------------------------------------------------------- #
PASS_REGISTRY: Dict[str, Callable[[], Pass]] = {}

#: Canonical pass order: folding exposes dead producers, elimination
#: shrinks the fusion search space, fusion collapses chains, and the
#: region scheduler reorders whatever is left by dependence level.
DEFAULT_PASSES: Tuple[str, ...] = (
    "fold-constants",
    "eliminate-dead-nodes",
    "fuse-kernels",
    "schedule-regions",
)


def register_graph_pass(name: str):
    """Decorator registering a :class:`Pass` factory under ``name``."""

    def wrap(factory: Callable[[], Pass]):
        if name in PASS_REGISTRY:
            raise ValueError(f"pass {name!r} registered twice")
        PASS_REGISTRY[name] = factory
        return factory
    return wrap


def get_pass(name: str) -> Pass:
    """Instantiate one registered pass by name."""
    try:
        factory = PASS_REGISTRY[name]
    except KeyError:
        raise GraphError(
            f"unknown optimization pass {name!r}; known: "
            f"{sorted(PASS_REGISTRY)}") from None
    return factory()


def available_passes() -> List[str]:
    """Registered pass names, canonical ones first."""
    rest = sorted(set(PASS_REGISTRY) - set(DEFAULT_PASSES))
    return [n for n in DEFAULT_PASSES if n in PASS_REGISTRY] + rest


# --------------------------------------------------------------------- #
# Pipeline
# --------------------------------------------------------------------- #
def _plan_profile(plan: Plan) -> Optional["GraphProfile"]:
    """Static profile of the plan's current schedule (None if unknown)."""
    if plan.shapes is None:
        return None
    from ..program import _static_profile
    try:
        return _static_profile(plan.order, plan.shapes)
    except Exception:
        return None


def _refresh_shapes(plan: Plan) -> None:
    """Re-infer static shapes after a rewrite (drop them on failure)."""
    if plan.shapes is None:
        return
    from ..program import _static_shapes
    try:
        plan.shapes = _static_shapes(plan.graph, plan.order,
                                     plan.batch_size)
    except Exception:
        plan.shapes = None


@dataclass
class PassPipeline:
    """An ordered list of passes plus the reports their runs produced."""

    passes: List[Pass] = field(default_factory=list)

    def run(self, plan: Plan) -> Tuple[Plan, List[PassReport]]:
        """Run every pass in order; returns the plan and one report each."""
        reports: List[PassReport] = []
        for p in self.passes:
            before = _plan_profile(plan)
            before_nodes = len(plan.order)
            notes = p.run(plan)
            _refresh_shapes(plan)
            after = _plan_profile(plan)
            reports.append(PassReport(
                name=p.name, before_nodes=before_nodes,
                after_nodes=len(plan.order), before=before, after=after,
                notes=notes or ""))
        return plan, reports


def build_pipeline(passes: Optional[Sequence[str]] = None) -> PassPipeline:
    """A pipeline over ``passes`` (default: :data:`DEFAULT_PASSES`)."""
    names = DEFAULT_PASSES if passes is None else tuple(passes)
    return PassPipeline(passes=[get_pass(n) for n in names])
