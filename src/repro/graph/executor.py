"""The reference interpreter: the semantics oracle of compiled programs.

:func:`interpret` preserves the original per-run interpreter verbatim.
It is the *reference semantics*: the property suite asserts
:meth:`~repro.graph.program.Program.run` is bitwise-equal to it across
op/activation sweeps, and benchmarks use it as the seed baseline.  To
run a graph, compile it with :func:`~repro.graph.program.compile_graph`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..analysis.diagnostics import fail
from .ir import Graph
from .ops import get_op
from .program import GraphProfile, NodeProfile

__all__ = ["GraphProfile", "NodeProfile", "interpret"]


def interpret(graph: Graph, feeds: Dict[str, np.ndarray],
              profile: GraphProfile | None = None) -> Dict[str, np.ndarray]:
    """Reference interpreter: resolve and execute every node per run.

    This is the seed executor's ``_execute`` body, kept as the
    semantics oracle for the compiled path (and as the eager baseline
    in ``benchmarks/bench_graph_exec.py``).  Returns the full value
    environment, not just the graph outputs.
    """
    values: Dict[str, np.ndarray] = {}
    for name, shape in graph.inputs:
        if name not in feeds:
            fail("RPR201", f"missing graph input {name!r}",
                 graph=graph.name)
        arr = np.asarray(feeds[name])
        if shape and tuple(arr.shape[1:]) != tuple(shape[1:]):
            fail("RPR202",
                 f"input {name!r} shape {arr.shape} incompatible "
                 f"with {shape}",
                 graph=graph.name)
        values[name] = arr
    values.update(graph.initializers)

    for node in graph.topological_order():
        op = get_op(node.op_type)
        inputs = [values[v] for v in node.inputs]
        outputs = op.execute(inputs, node.attrs)
        if len(outputs) != len(node.outputs):
            fail("RPR204",
                 f"node {node.name} produced {len(outputs)} outputs, "
                 f"declared {len(node.outputs)}",
                 node=node.name, graph=graph.name)
        for value_name, arr in zip(node.outputs, outputs):
            values[value_name] = arr
        if profile is not None:
            cost = op.cost([tuple(np.shape(v)) for v in inputs],
                           [tuple(np.shape(o)) for o in outputs],
                           node.attrs)
            profile.nodes.append(NodeProfile(name=node.name,
                                             op_type=node.op_type,
                                             cost=cost))
    return values

