"""The four built-in optimization passes.

Each pass rewrites a :class:`~repro.graph.opt.pipeline.Plan` in place
and must preserve the bitwise-equality oracle vs the eager interpreter
on the original graph — fused records replay the *identical* numpy
expressions of the ops they replace, constant folding executes the
*registered* op semantics at compile time, and the region scheduler
only reorders the schedule into another topological order.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from ..ir import Graph, Node
from ..ops import get_op
from .pipeline import Pass, Plan, register_graph_pass

__all__ = [
    "ConstantFolding",
    "DeadNodeElimination",
    "KernelFusion",
    "RegionScheduler",
    "EPILOGUE_OPS",
]


def _prune_initializers(graph: Graph) -> int:
    """Drop initializers no node, output or declared input references."""
    referenced: Set[str] = set(graph.outputs)
    referenced.update(name for name, _ in graph.inputs)
    for node in graph.nodes:
        referenced.update(node.inputs)
    dead = [name for name in graph.initializers if name not in referenced]
    for name in dead:
        del graph.initializers[name]
    return len(dead)


def _keep(plan: Plan, kept: List[Node]) -> None:
    """Replace the plan's node list/schedule with ``kept`` (same order)."""
    kept_ids = {id(n) for n in kept}
    plan.graph.nodes = [n for n in plan.graph.nodes if id(n) in kept_ids]
    plan.order = [n for n in plan.order if id(n) in kept_ids]


# --------------------------------------------------------------------- #
# 1. Constant folding
# --------------------------------------------------------------------- #
@register_graph_pass("fold-constants")
class ConstantFolding(Pass):
    """Execute initializer-only subgraphs at compile time.

    Any node whose inputs are all initializers (directly or through
    earlier folds — the walk is topological, so folds cascade) is
    evaluated once via its *registered* ``execute`` and its outputs
    become initializers, so the folded value is bitwise-identical to
    what the run loop would have produced.

    Activation/softmax nodes are left alone even when foldable: their
    runtime kernels feed the PWL input-histogram capture, and folding
    would silently drop those samples.
    """

    name = "fold-constants"

    #: Never folded — runtime observability (capture) reads these.
    NO_FOLD = ("activation", "softmax")

    def run(self, plan: Plan) -> str:
        g = plan.graph
        outputs = set(g.outputs)
        kept: List[Node] = []
        folded = 0
        for node in plan.order:
            foldable = (node.op_type not in self.NO_FOLD
                        and all(v in g.initializers for v in node.inputs)
                        and not any(v in outputs for v in node.outputs))
            if not foldable:
                kept.append(node)
                continue
            op = get_op(node.op_type)
            outs = op.execute([g.initializers[v] for v in node.inputs],
                              node.attrs)
            for value, arr in zip(node.outputs, outs):
                # No dtype coercion: the folded array must carry the
                # exact bits execute() would produce at runtime.
                g.initializers[value] = np.asarray(arr)
            folded += 1
        if folded:
            _keep(plan, kept)
            _prune_initializers(g)
        return f"folded {folded} node(s)"


# --------------------------------------------------------------------- #
# 2. Dead-node elimination
# --------------------------------------------------------------------- #
@register_graph_pass("eliminate-dead-nodes")
class DeadNodeElimination(Pass):
    """Drop nodes from which no graph output is reachable.

    The same backwards reachability walk as the RPR110 dead-node
    analysis (:func:`repro.analysis.checks.check_dead_nodes`), applied
    as a rewrite instead of a finding.
    """

    name = "eliminate-dead-nodes"

    def run(self, plan: Plan) -> str:
        g = plan.graph
        producers: Dict[str, Node] = {}
        for node in g.nodes:
            for value in node.outputs:
                producers[value] = node
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
        dead = [n for n in plan.order if id(n) not in live]
        if dead:
            _keep(plan, [n for n in plan.order if id(n) in live])
            _prune_initializers(g)
        return f"eliminated {len(dead)} dead node(s)"


# --------------------------------------------------------------------- #
# 3. Kernel fusion
# --------------------------------------------------------------------- #
#: Ops that may ride along as a fused epilogue: single dynamic input
#: (the chain value, always input 0), any extra inputs initializers.
EPILOGUE_OPS = ("activation", "softmax", "batchnorm", "layernorm",
                "add", "mul", "reshape", "transpose", "flatten")


@register_graph_pass("fuse-kernels")
class KernelFusion(Pass):
    """Collapse producer + single-consumer epilogue chains into one
    ``fused`` record.

    A chain starts at any single-output node and extends while the
    current value has exactly one consumer that is an epilogue op
    (bias-add, batch/layernorm, PWL activation, softmax, shape
    plumbing) reading it as its first input with every other input an
    initializer.  The matmul/conv → bias → PWL-activation pattern the
    paper fuses in hardware (Fig. 6) becomes one arena write instead of
    three; the baked :class:`~repro.graph.program.FusedKernel` applies
    the PWL table on the just-computed tile while it is cache-hot.
    """

    name = "fuse-kernels"

    def run(self, plan: Plan) -> str:
        g = plan.graph
        consumers: Dict[str, List[Node]] = {}
        for node in plan.order:
            for value in node.inputs:
                consumers.setdefault(value, []).append(node)
        outputs = set(g.outputs)
        position = {id(n): i for i, n in enumerate(plan.order)}

        fused_away: Set[int] = set()
        replacement: Dict[int, Node] = {}
        chains = 0
        for node in plan.order:
            if id(node) in fused_away or len(node.outputs) != 1 \
                    or node.op_type == "fused":
                continue
            chain = [node]
            while True:
                value = chain[-1].outputs[0]
                if value in outputs:
                    break
                users = consumers.get(value, [])
                if len(users) != 1:
                    break
                nxt = users[0]
                if (id(nxt) in fused_away
                        or nxt.op_type not in EPILOGUE_OPS
                        or len(nxt.outputs) != 1
                        or not nxt.inputs
                        or nxt.inputs[0] != value
                        or nxt.inputs.count(value) != 1
                        or any(v not in g.initializers
                               for v in nxt.inputs[1:])):
                    break
                chain.append(nxt)
            if len(chain) < 2:
                continue
            steps = []
            fused_inputs: List[str] = []
            for i, n in enumerate(chain):
                extra = n.inputs if i == 0 else n.inputs[1:]
                fused_inputs.extend(extra)
                steps.append({"op": n.op_type, "attrs": dict(n.attrs),
                              "n_inputs": len(extra)})
            fused = Node(
                op_type="fused",
                inputs=fused_inputs,
                outputs=[chain[-1].outputs[0]],
                name=f"fused:{chain[0].name}",
                attrs={"steps": steps,
                       "label": "+".join(n.op_type for n in chain)})
            for n in chain:
                fused_away.add(id(n))
            replacement[id(chain[0])] = fused
            chains += 1

        if chains:
            new_order: List[Node] = []
            for node in plan.order:
                if id(node) in replacement:
                    new_order.append(replacement[id(node)])
                elif id(node) not in fused_away:
                    new_order.append(node)
            plan.order = new_order
            # graph.nodes mirrors the schedule (same objects, any order
            # is fine for the IR; keep the scheduled one).
            plan.graph.nodes = list(new_order)
        absorbed = len(fused_away) - chains
        return f"fused {chains} chain(s), absorbed {absorbed} epilogue(s)"


# --------------------------------------------------------------------- #
# 4. Region scheduler
# --------------------------------------------------------------------- #
@register_graph_pass("schedule-regions")
class RegionScheduler(Pass):
    """Reorder the schedule by dependence level.

    A node's level is the length of its longest producer chain; the
    plan order becomes the level-by-level concatenation (stable within
    a level), which is itself a valid topological order, so outputs
    stay bitwise-identical.  The reorder changes only which records
    run back to back and when the arena frees their inputs.
    """

    name = "schedule-regions"

    def run(self, plan: Plan) -> str:
        producer_level: Dict[str, int] = {}
        levels: List[int] = []
        for node in plan.order:
            level = 0
            for value in node.inputs:
                lv = producer_level.get(value)
                if lv is not None and lv + 1 > level:
                    level = lv + 1
            levels.append(level)
            for value in node.outputs:
                producer_level[value] = level
        ranked = sorted(range(len(plan.order)), key=levels.__getitem__)
        plan.order = [plan.order[i] for i in ranked]
        plan.graph.nodes = list(plan.order)
        return f"{max(levels, default=-1) + 1} level(s)"
