"""Graph IR substrate: ONNX-like representation, executor and passes.

Mirrors the paper's deployment flow — models become operator graphs, a
rewrite pass swaps every activation node for its Flex-SFU PWL
implementation, and the compiled :class:`Program` with its static and
runtime profiles provides the accuracy and workload numbers the
end-to-end evaluation needs.
"""

from .builder import GraphBuilder
from .executor import GraphProfile, NodeProfile, interpret
from .ir import Graph, Node
from .ops import (CostRecord, OP_REGISTRY, get_op, infer_node_shapes,
                  register_op, register_shape)
from .opt import (DEFAULT_PASSES, PassPipeline, PassReport, Plan,
                  available_passes, build_pipeline, register_graph_pass)
from .program import (CompiledNode, FusedKernel, Program, PwlKernel,
                      SoftmaxPwlKernel, compile_graph)
from .passes import (
    clear_fit_cache,
    collect_activation_names,
    make_pwl_approximators,
    native_pwl,
    pwl_for,
    replace_activations,
    restore_exact_activations,
)

__all__ = [
    "Graph",
    "Node",
    "GraphBuilder",
    "GraphProfile",
    "NodeProfile",
    "CostRecord",
    "OP_REGISTRY",
    "get_op",
    "register_op",
    "register_shape",
    "infer_node_shapes",
    "interpret",
    "CompiledNode",
    "DEFAULT_PASSES",
    "FusedKernel",
    "PassPipeline",
    "PassReport",
    "Plan",
    "Program",
    "PwlKernel",
    "SoftmaxPwlKernel",
    "available_passes",
    "build_pipeline",
    "compile_graph",
    "register_graph_pass",
    "replace_activations",
    "restore_exact_activations",
    "collect_activation_names",
    "make_pwl_approximators",
    "native_pwl",
    "pwl_for",
    "clear_fit_cache",
]
