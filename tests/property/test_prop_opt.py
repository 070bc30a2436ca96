"""Property tests: the optimizing pipeline preserves program semantics.

Every pass — and every *combination* of passes, since passes interact
through the shared plan — must keep the compiled program bitwise-equal
to the eager interpreter on the original graph, through ``run``,
``run_profiled`` and ``run_timed`` alike, and keep the static profile
equal to the runtime-derived one record for record.  Each zoo
builder therefore runs through the full powerset of the default pass
list (16 subsets), with the PWL activation rewrite applied first so
fused activation epilogues take the fast-lookup path.
"""

import itertools

import numpy as np
import pytest

from repro.core.fit import FitConfig
from repro.graph.executor import interpret
from repro.graph.opt import DEFAULT_PASSES
from repro.graph.passes import (collect_activation_names,
                                make_pwl_approximators,
                                replace_activations)
from repro.graph.program import compile_graph
from repro.zoo.builders import BUILDERS

_CFG = FitConfig(max_steps=60, refine_steps=25, max_refine_rounds=1,
                 polish=False, grid_points=512)

#: Same coverage matrix as test_prop_program: every op in the registry,
#: PWL-native, smooth and gating activations.
_CASES = [
    ("vgg", "relu"),
    ("resnet", "silu"),
    ("mobilenet", "hardswish"),
    ("efficientnet", "silu"),
    ("darknet", "leaky_relu"),
    ("generic_cnn", "gelu"),
    ("vit", "gelu"),
    ("mixer", "tanh"),
    ("nlp_transformer", "gelu"),
]

_SUBSETS = [subset
            for r in range(len(DEFAULT_PASSES) + 1)
            for subset in itertools.combinations(DEFAULT_PASSES, r)]


def _feeds(graph, batch, rng):
    out = {}
    for name, shape in graph.inputs:
        size = (batch,) + tuple(shape[1:])
        if name == "ids":
            out[name] = rng.integers(0, 16, size=size)
        else:
            out[name] = rng.normal(size=size)
    return out


@pytest.mark.parametrize("builder,act", _CASES)
def test_every_pass_subset_is_bitwise_and_profile_exact(builder, act):
    graph = BUILDERS[builder](act=act, scale=0.25, seed=0)
    names = sorted(collect_activation_names(graph))
    approx = make_pwl_approximators(names, 12, config=_CFG)
    rewritten, _ = replace_activations(graph, approx)
    rng = np.random.default_rng(1)
    feeds = _feeds(graph, 2, rng)
    env = interpret(rewritten, feeds)

    for subset in _SUBSETS:
        prog = compile_graph(rewritten, batch_size=2, optimize=True,
                             passes=list(subset))
        out = prog.run(feeds)
        for name in graph.outputs:
            assert np.array_equal(out[name], env[name]), \
                f"{builder} {subset}: output {name} not bitwise-equal"
        out2, runtime = prog.run_profiled(feeds)
        for name in graph.outputs:
            assert np.array_equal(out2[name], env[name]), \
                f"{builder} {subset}: profiled run diverged at {name}"
        static = prog.profile
        assert len(static.nodes) == len(runtime.nodes)
        for s, r in zip(static.nodes, runtime.nodes):
            assert s == r, \
                f"{builder} {subset}: record {s.name} cost diverged"
        out3, timed = prog.run_timed(feeds)
        for name in graph.outputs:
            assert np.array_equal(out3[name], env[name]), \
                f"{builder} {subset}: timed run diverged at {name}"
        assert [(t.name, t.op_type) for t in timed.nodes] == \
            [(s.name, s.op_type) for s in static.nodes]
        assert all(t.calls == 1 for t in timed.nodes)


@pytest.mark.parametrize("builder,act", _CASES)
def test_default_pipeline_on_exact_activations_is_bitwise(builder, act):
    # The same oracle without the PWL rewrite: exact activation and
    # softmax kernels ride in the fused records instead.
    graph = BUILDERS[builder](act=act, scale=0.25, seed=0)
    rng = np.random.default_rng(2)
    feeds = _feeds(graph, 2, rng)
    env = interpret(graph, feeds)
    out = compile_graph(graph, batch_size=2, optimize=True).run(feeds)
    for name in graph.outputs:
        assert np.array_equal(out[name], env[name]), \
            f"{builder}: optimized exact-activation run diverged at {name}"
