"""The built-in IR checks and the extensible check registry.

A :class:`Check` is a named, scoped analysis: ``scope="graph"`` checks
run on any :class:`~repro.graph.ir.Graph`, ``scope="program"`` checks
additionally inspect the compiled plan (arena liveness, static costs).
Register your own with :func:`register_check`::

    @register_check("my-invariant", scope="graph", codes=("RPR1XX",))
    def check_my_invariant(ctx: AnalysisContext) -> List[Diagnostic]:
        ...

Checks never execute the graph and never raise on bad input — every
finding comes back as a :class:`~repro.analysis.diagnostics.Diagnostic`
(:func:`repro.analysis.verify.verify` decides what is fatal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .context import AnalysisContext
from .diagnostics import Diagnostic, make_diagnostic

CheckFn = Callable[[AnalysisContext], List[Diagnostic]]


@dataclass(frozen=True)
class Check:
    """One registered analysis: name, scope, the codes it may emit."""

    name: str
    scope: str                 # "graph" or "program"
    codes: Tuple[str, ...]
    run: CheckFn


#: All registered checks, in registration order (order is part of the
#: contract: structural checks run before the ones that need an order).
CHECK_REGISTRY: Dict[str, Check] = {}


def register_check(name: str, scope: str, codes: Tuple[str, ...]
                   ) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a check under a unique name."""
    if scope not in ("graph", "program"):
        raise ValueError(f"check scope must be 'graph' or 'program', "
                         f"got {scope!r}")

    def wrap(fn: CheckFn) -> CheckFn:
        if name in CHECK_REGISTRY:
            raise ValueError(f"check {name!r} registered twice")
        CHECK_REGISTRY[name] = Check(name=name, scope=scope,
                                     codes=tuple(codes), run=fn)
        return fn
    return wrap


# --------------------------------------------------------------------- #
# Graph-scope checks
# --------------------------------------------------------------------- #
@register_check("structure", "graph",
                ("RPR111", "RPR112", "RPR113", "RPR114"))
def check_structure(ctx: AnalysisContext) -> List[Diagnostic]:
    """Single-producer / no-cycle / outputs-exist invariants."""
    g = ctx.graph
    out: List[Diagnostic] = []
    produced: Dict[str, str] = {}
    for node in g.nodes:
        if not node.outputs:
            out.append(make_diagnostic(
                "RPR114", f"node {node.name or node.op_type} has no outputs",
                node=node.name, graph=g.name))
        for value in node.outputs:
            if value in produced:
                out.append(make_diagnostic(
                    "RPR111",
                    f"value {value!r} produced twice "
                    f"(by {produced[value]} and {node.name})",
                    node=node.name, graph=g.name))
            else:
                produced[value] = node.name
    feedable = {name for name, _ in g.inputs} | set(g.initializers)
    for value in g.outputs:
        if value not in produced and value not in feedable:
            out.append(make_diagnostic(
                "RPR113", f"graph output {value!r} is never produced",
                graph=g.name))
    # Schedulability: the same fixed-point walk the compiler does, but
    # reported instead of raised.
    available = set(feedable)
    remaining = list(g.nodes)
    while remaining:
        still = [n for n in remaining
                 if not all(v in available for v in n.inputs)]
        if len(still) == len(remaining):
            missing = sorted({v for n in still for v in n.inputs
                              if v not in available})
            out.append(make_diagnostic(
                "RPR112",
                f"graph {g.name!r} has a cycle or missing values: "
                f"{missing[:5]}",
                node=still[0].name, graph=g.name))
            break
        for n in remaining:
            if all(v in available for v in n.inputs):
                available.update(n.outputs)
        remaining = still
    return out


@register_check("ops", "graph", ("RPR101",))
def check_ops(ctx: AnalysisContext) -> List[Diagnostic]:
    """Every node's operator type must be registered."""
    from ..graph.ops import OP_REGISTRY

    out: List[Diagnostic] = []
    for node in ctx.graph.nodes:
        if node.op_type not in OP_REGISTRY:
            out.append(make_diagnostic(
                "RPR101",
                f"node {node.name}: unknown op {node.op_type!r}; known: "
                f"{sorted(OP_REGISTRY)}",
                node=node.name, graph=ctx.graph.name))
    return out


@register_check("shapes", "graph",
                ("RPR102", "RPR103", "RPR104", "RPR105", "RPR106"))
def check_shapes(ctx: AnalysisContext) -> List[Diagnostic]:
    """Propagate static shapes through every registered shape rule.

    A genuine inconsistency (the rule raises ``GraphError``) is an
    error; a node that merely *cannot* be inferred (no rule, undeclared
    input shape, rule crash) is a warning and its downstream values are
    skipped — mirroring how :func:`~repro.graph.program.compile_graph`
    degrades to a profile-less program.
    """
    from ..errors import GraphError
    from ..graph.ops import OP_REGISTRY

    g = ctx.graph
    order = ctx.order
    if order is None:  # structure check already reported RPR112
        return []
    out: List[Diagnostic] = []
    shapes: Dict[str, Tuple[int, ...]] = {}
    unknown: Set[str] = set()
    for name, shape in g.inputs:
        if not shape:
            out.append(make_diagnostic(
                "RPR104", f"graph input {name!r} declares no shape; "
                f"static inference skipped downstream", graph=g.name))
            unknown.add(name)
        else:
            dims = tuple(int(d) for d in shape)
            shapes[name] = (ctx.batch_size if dims[0] == 0 else dims[0],) \
                + dims[1:]
    for name, arr in g.initializers.items():
        shapes.setdefault(name, tuple(arr.shape))

    for node in order:
        op = OP_REGISTRY.get(node.op_type)
        if op is None or any(v in unknown for v in node.inputs):
            unknown.update(node.outputs)
            continue
        if op.infer is None:
            out.append(make_diagnostic(
                "RPR103",
                f"node {node.name}: op {node.op_type!r} has no static "
                f"shape rule",
                node=node.name, graph=g.name))
            unknown.update(node.outputs)
            continue
        in_shapes = [shapes[v] for v in node.inputs]
        try:
            inferred = [tuple(int(d) for d in s)
                        for s in op.infer(in_shapes, node.attrs)]
        except GraphError as exc:
            out.append(make_diagnostic(
                "RPR102", f"node {node.name}: {exc}",
                node=node.name, graph=g.name))
            unknown.update(node.outputs)
            continue
        except Exception as exc:
            out.append(make_diagnostic(
                "RPR105",
                f"node {node.name}: shape rule for op {node.op_type!r} "
                f"crashed: {exc!r}",
                node=node.name, graph=g.name))
            unknown.update(node.outputs)
            continue
        if len(inferred) != len(node.outputs):
            out.append(make_diagnostic(
                "RPR106",
                f"node {node.name} declares {len(node.outputs)} outputs "
                f"but its shape rule produced {len(inferred)}",
                node=node.name, graph=g.name))
            unknown.update(node.outputs)
            continue
        for value, shape in zip(node.outputs, inferred):
            shapes[value] = shape
    return out


@register_check("dead-nodes", "graph", ("RPR110",))
def check_dead_nodes(ctx: AnalysisContext) -> List[Diagnostic]:
    """Nodes from which no graph output is reachable."""
    g = ctx.graph
    producers = ctx.producers
    live: Set[int] = set()
    worklist = list(g.outputs)
    seen: Set[str] = set()
    while worklist:
        value = worklist.pop()
        if value in seen:
            continue
        seen.add(value)
        node = producers.get(value)
        if node is not None and id(node) not in live:
            live.add(id(node))
            worklist.extend(node.inputs)
    return [make_diagnostic(
        "RPR110",
        f"node {node.name} ({node.op_type}) contributes to no graph "
        f"output",
        node=node.name, graph=g.name)
        for node in g.nodes if id(node) not in live]


def _table_problem(pwl: Any) -> Optional[str]:
    """Why ``pwl``'s breakpoint table is degenerate, or ``None``."""
    p = np.asarray(pwl.breakpoints, dtype=np.float64)
    v = np.asarray(pwl.values, dtype=np.float64)
    if p.ndim != 1 or v.ndim != 1 or p.shape != v.shape:
        return (f"breakpoints {p.shape} and values {v.shape} must be "
                f"equal-length 1-D arrays")
    if p.size < 2:
        return f"table has {p.size} breakpoints, need at least 2"
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
        return "breakpoints/values contain non-finite entries"
    if np.any(np.diff(p) <= 0):
        return "breakpoints are not strictly increasing (non-monotone table)"
    if not (np.isfinite(pwl.left_slope) and np.isfinite(pwl.right_slope)):
        return "edge slopes are non-finite"
    return None


def _exact_values(fn: Any, xs: np.ndarray) -> np.ndarray:
    """``fn`` on ``xs``, as the reference RPR130 measures error against.

    Registry GELU is evaluated through :func:`math.erf`: its own
    ``fn`` calls scipy's erf, and importing scipy for 257 points would
    cost a compiling process more than the compile.  The two erfs
    differ by at most one ulp, which cannot move a 4x error ratio.
    """
    from ..functions.analytic import GELU

    if fn is GELU:
        sqrt2 = math.sqrt(2.0)
        return np.array([0.5 * x * (1.0 + math.erf(x / sqrt2))
                         for x in xs.tolist()], dtype=np.float64)
    return np.asarray(fn(xs), dtype=np.float64)


def _domain_clipped(pwl: Any, fn: Any,
                    declared: Tuple[float, float]) -> Optional[str]:
    """FQA-style full-space coverage: is extrapolation error material?

    Pure interval containment would flag exact-PWL natives (ReLU's
    two-knot table covers all of R via its edge slopes), so the check
    is numeric: it fires only when the fitted interval is narrower than
    the declared input range *and* the error outside it dwarfs the
    error inside.  The exact values come from :func:`_exact_values`,
    so checking a GELU table does not import scipy; they decide the
    verdict only, and fits still use the registry's own ``fn``.
    """
    lo, hi = float(declared[0]), float(declared[1])
    a, b = pwl.interval
    margin = 0.05 * (hi - lo)
    if a <= lo + margin and b >= hi - margin:
        return None
    xs = np.linspace(lo, hi, 257)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = _exact_values(fn, xs)
        approx = np.asarray(pwl(xs), dtype=np.float64)
    finite = np.isfinite(exact)
    if not finite.any():
        return None
    err = np.abs(np.where(finite, approx - exact, 0.0))
    inside = (xs >= a) & (xs <= b) & finite
    outside = ~(xs >= a) | ~(xs <= b)
    outside &= finite
    if not outside.any():
        return None
    err_out = float(err[outside].max())
    err_in = float(err[inside].max()) if inside.any() else 0.0
    if err_out > max(4.0 * err_in, 1e-6):
        return (f"fitted interval [{a:g}, {b:g}] covers only part of the "
                f"declared input range [{lo:g}, {hi:g}]; max error "
                f"{err_out:.3g} outside vs {err_in:.3g} inside")
    return None


@register_check("activations", "graph",
                ("RPR120", "RPR121", "RPR122", "RPR130", "RPR131"))
def check_activations(ctx: AnalysisContext) -> List[Diagnostic]:
    """Activation nodes: known fn, attached fit, healthy PWL table.

    Fused records are inspected too: a ``fused`` node's activation /
    softmax *steps* (see :class:`repro.graph.opt.passes.KernelFusion`)
    go through the same RPR120/121/122/130/131 battery as standalone
    nodes, reported as ``<node>#<step-index>``.
    """
    from ..core.pwl import PiecewiseLinear
    from ..functions import registry as fn_registry
    from ..functions.softmax import SoftmaxApproximator

    g = ctx.graph
    out: List[Diagnostic] = []
    # (display-name, op_type, attrs) for plain nodes and fused steps.
    records = []
    for node in g.nodes:
        if node.op_type in ("activation", "softmax"):
            records.append((node.name, node.op_type, node.attrs))
        elif node.op_type == "fused":
            for i, step in enumerate(node.attrs.get("steps", ())):
                if step.get("op") in ("activation", "softmax"):
                    records.append((f"{node.name}#{i}", step["op"],
                                    step.get("attrs", {})))
    for name, op_type, attrs in records:
        impl = attrs.get("impl", "exact")
        if impl not in ("exact", "pwl"):
            out.append(make_diagnostic(
                "RPR122",
                f"node {name}: unknown {op_type} impl {impl!r}",
                node=name, graph=g.name))
            continue
        fn = None
        if op_type == "activation":
            fn_name = str(attrs.get("fn", ""))
            try:
                fn = fn_registry.get(fn_name)
            except Exception:
                out.append(make_diagnostic(
                    "RPR121",
                    f"node {name}: unknown activation function "
                    f"{fn_name!r}",
                    node=name, graph=g.name))
        if impl != "pwl":
            continue
        approx = attrs.get("approximator")
        if approx is None:
            out.append(make_diagnostic(
                "RPR120",
                f"pwl {op_type} node {name} has no "
                f"approximator attached",
                node=name, graph=g.name))
            continue
        # Locate the PWL table behind the approximator (softmax wraps
        # an exp PWL in the max-subtract decomposition).
        pwl = approx if isinstance(approx, PiecewiseLinear) else None
        if op_type == "softmax" and \
                isinstance(approx, SoftmaxApproximator) and \
                isinstance(approx._exp_fn, PiecewiseLinear):
            pwl = approx._exp_fn
            try:
                fn = fn_registry.get("exp")
            except Exception:  # pragma: no cover - exp always registered
                fn = None
        if pwl is None:
            continue  # opaque callable: nothing to inspect statically
        problem = _table_problem(pwl)
        if problem is not None:
            out.append(make_diagnostic(
                "RPR131", f"node {name}: {problem}",
                node=name, graph=g.name))
            continue
        if fn is not None:
            clipped = _domain_clipped(pwl, fn, fn.default_interval)
            if clipped is not None:
                out.append(make_diagnostic(
                    "RPR130", f"node {name}: {clipped}",
                    node=name, graph=g.name))
    return out


# --------------------------------------------------------------------- #
# Program-scope checks
# --------------------------------------------------------------------- #
@register_check("arena-liveness", "program", ("RPR140", "RPR141", "RPR142"))
def check_arena_liveness(ctx: AnalysisContext) -> List[Diagnostic]:
    """Symbolically execute the slot plan: no double-use, no leaks.

    Walks the compiled schedule with a ``slot -> value`` map, applying
    the same aliasing rule the compiler uses (an output may overwrite
    an input dying at that very node — the write *is* the free) and
    flags any read of a dead slot, any clobber of a live value, and any
    value still occupying a slot after its last use.
    """
    prog = ctx.program
    if prog is None:
        return []
    slot_map = getattr(prog, "_slot_map", None)
    if slot_map is None:  # pre-verifier program object
        return []
    g = prog.graph
    out: List[Diagnostic] = []
    last_use: Dict[str, int] = {}
    for i, cn in enumerate(prog.nodes):
        for value in cn.node.inputs:
            last_use[value] = i
    persistent = set(g.initializers) | set(g.outputs)

    live: Dict[int, str] = {}
    for name in g.initializers:
        live[slot_map[name]] = name
    for name, slot, _shape in prog._input_plan:
        if slot in live and live[slot] != name:
            out.append(make_diagnostic(
                "RPR140",
                f"input {name!r} is planned into slot {slot} already "
                f"holding {live[slot]!r}",
                graph=g.name))
        live[slot] = name

    for i, cn in enumerate(prog.nodes):
        node = cn.node
        for value, slot in zip(node.inputs, cn.in_slots):
            held = live.get(slot)
            if held is None:
                out.append(make_diagnostic(
                    "RPR142",
                    f"node {node.name} reads {value!r} from slot {slot}, "
                    f"but the slot is dead",
                    node=node.name, graph=g.name))
            elif held != value:
                out.append(make_diagnostic(
                    "RPR140",
                    f"node {node.name} reads slot {slot} expecting "
                    f"{value!r} but it holds {held!r}",
                    node=node.name, graph=g.name))
        for value, slot in zip(node.outputs, cn.out_slots):
            held = live.get(slot)
            if held is not None and held != value:
                dying_here = (held in node.inputs
                              and last_use.get(held) == i
                              and held not in persistent)
                if not dying_here:
                    out.append(make_diagnostic(
                        "RPR140",
                        f"node {node.name} writes {value!r} into slot "
                        f"{slot} while {held!r} is still live",
                        node=node.name, graph=g.name))
            live[slot] = value
        for slot in cn.frees:
            held = live.get(slot)
            if held is None:
                out.append(make_diagnostic(
                    "RPR141",
                    f"node {node.name} frees slot {slot}, which is "
                    f"already dead",
                    node=node.name, graph=g.name))
                continue
            if held in persistent or last_use.get(held, -1) > i:
                out.append(make_diagnostic(
                    "RPR140",
                    f"node {node.name} frees slot {slot} while "
                    f"{held!r} is still live",
                    node=node.name, graph=g.name))
            live.pop(slot)

    for name, slot in prog._output_plan:
        if live.get(slot) != name:
            out.append(make_diagnostic(
                "RPR142",
                f"graph output {name!r} is not live in its planned "
                f"slot {slot} at program end",
                graph=g.name))
    for slot, value in sorted(live.items()):
        if value not in persistent and last_use.get(value) is not None:
            out.append(make_diagnostic(
                "RPR141",
                f"slot {slot} leaks value {value!r} past its last use",
                graph=g.name))
    return out


@register_check("static-costs", "program", ("RPR123", "RPR124"))
def check_static_costs(ctx: AnalysisContext) -> List[Diagnostic]:
    """The static profile must agree with the op cost model + perf.costs."""
    prog = ctx.program
    if prog is None or prog._static_profile is None or \
            prog._shapes is None:
        return []
    g = prog.graph
    shapes = prog._shapes
    profile = prog._static_profile
    out: List[Diagnostic] = []
    if len(profile.nodes) != len(prog.nodes):
        out.append(make_diagnostic(
            "RPR123",
            f"static profile has {len(profile.nodes)} node records but "
            f"the program schedules {len(prog.nodes)} nodes",
            graph=g.name))
        return out
    for cn, rec in zip(prog.nodes, profile.nodes):
        node = cn.node
        try:
            expected = cn.op.cost([shapes[v] for v in node.inputs],
                                  [shapes[v] for v in node.outputs],
                                  node.attrs)
        except Exception:
            continue  # unpriceable node: the shapes check already warned
        if rec.cost != expected:
            out.append(make_diagnostic(
                "RPR123",
                f"node {node.name}: static profile cost {rec.cost} "
                f"disagrees with the op cost model {expected}",
                node=node.name, graph=g.name))
        if rec.cost.act_elements:
            from ..functions.registry import baseline_act_ops
            try:
                baseline_act_ops(rec.cost.act_fn)
            except Exception:
                out.append(make_diagnostic(
                    "RPR124",
                    f"node {node.name}: activation {rec.cost.act_fn!r} "
                    f"has no baseline cost in repro.perf.costs",
                    node=node.name, graph=g.name))
    return out
