"""Property tests: compiled programs vs the eager reference interpreter.

The compiled path exists purely for speed — semantics must be
*bitwise* identical to the seed per-run interpreter across every op and
activation implementation, and the compile-time static profile must
equal the runtime-profiled one node-for-node.  A mixed sweep over the
zoo's family builders (conv / residual / depthwise+SE / attention /
mixer / NLP) exercises every registered operator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fit import FitConfig
from repro.graph.executor import interpret
from repro.graph.passes import make_pwl_approximators, replace_activations
from repro.graph.program import compile_graph
from repro.zoo.builders import BUILDERS

#: Cheap fit preset — fits are cached across examples, so each distinct
#: (function, budget) pair is paid for exactly once per session.
_CFG = FitConfig(max_steps=60, refine_steps=25, max_refine_rounds=1,
                 polish=False, grid_points=512)

#: (builder, activation) pairs covering every op in the registry plus
#: exact-PWL-native, smooth, and gating activation paths.
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


def _feed(graph, batch, rng):
    name, shape = graph.inputs[0]
    if name == "ids":
        return {name: rng.integers(0, 16, size=(batch,) + tuple(shape[1:]))}
    return {name: rng.normal(size=(batch,) + tuple(shape[1:]))}


def _approximators(graph, act, n_bp):
    names = {act, "sigmoid", "hardsigmoid", "softmax"}
    return make_pwl_approximators(sorted(names), n_bp, config=_CFG)


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(_CASES),
       batch=st.integers(min_value=1, max_value=3),
       n_bp=st.sampled_from([4, 6]),
       pwl=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_program_bitwise_equals_eager(case, batch, n_bp, pwl, seed):
    builder, act = case
    graph = BUILDERS[builder](act=act, scale=0.25, seed=3)
    if pwl:
        graph, _ = replace_activations(graph, _approximators(graph, act, n_bp))
    rng = np.random.default_rng(seed)
    feeds = _feed(graph, batch, rng)

    program = compile_graph(graph, batch_size=batch)
    compiled = program.run(feeds)
    reference = interpret(graph, feeds)
    for name in graph.outputs:
        assert np.array_equal(compiled[name], reference[name]), \
            f"{builder}/{act} pwl={pwl}: output {name} diverged"


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(_CASES),
       batch=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_static_profile_equals_runtime_profile(case, batch, seed):
    builder, act = case
    graph = BUILDERS[builder](act=act, scale=0.25, seed=3)
    rng = np.random.default_rng(seed)
    feeds = _feed(graph, batch, rng)

    program = compile_graph(graph, batch_size=batch)
    _, runtime = program.run_profiled(feeds)
    static = program.profile
    assert len(static.nodes) == len(runtime.nodes)
    for s, r in zip(static.nodes, runtime.nodes):
        assert s == r, f"{builder}: node {s.name} cost diverged"
    assert static.total_macs == runtime.total_macs
    assert static.act_elements_by_fn() == runtime.act_elements_by_fn()


@pytest.mark.parametrize("builder,act", _CASES)
def test_run_many_matches_fused_batch(builder, act):
    graph = BUILDERS[builder](act=act, scale=0.25, seed=3)
    rng = np.random.default_rng(0)
    program = compile_graph(graph)
    feeds = [_feed(graph, 1, rng) for _ in range(4)]
    outs = program.run_many(feeds)
    name = graph.outputs[0]
    key = graph.inputs[0][0]
    fused = program.run({key: np.concatenate([f[key] for f in feeds])})
    assert np.array_equal(np.concatenate([o[name] for o in outs]),
                          fused[name])
