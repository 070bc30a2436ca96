"""Unit tests for the activation-replacement pass."""

import numpy as np
import pytest

from repro.functions import GELU, HARDSIGMOID, RELU, RELU6, LEAKY_RELU
from repro.graph.program import compile_graph
from repro.graph.passes import (
    clear_fit_cache,
    collect_activation_names,
    make_pwl_approximators,
    native_pwl,
    pwl_for,
    replace_activations,
    restore_exact_activations,
)


class TestNativePwl:
    @pytest.mark.parametrize("fn", [RELU, RELU6, LEAKY_RELU, HARDSIGMOID],
                             ids=lambda f: f.name)
    def test_exact_for_pwl_native_functions(self, fn, rng):
        pwl = native_pwl(fn)
        assert pwl is not None
        x = rng.uniform(-12, 12, size=1000)
        assert np.allclose(pwl(x), fn(x), atol=1e-12)

    def test_none_for_smooth_functions(self):
        assert native_pwl(GELU) is None


class TestFitCache:
    def test_cache_returns_same_object(self):
        clear_fit_cache()
        a = pwl_for(RELU, 4)
        b = pwl_for(RELU, 4)
        assert a is b

    def test_native_shortcut_for_relu(self):
        clear_fit_cache()
        pwl = pwl_for(RELU, 16)
        # The native construction has 2 breakpoints, not 16.
        assert pwl.n_breakpoints == 2


class TestCollect:
    def test_counts(self, tiny_attention_graph):
        counts = collect_activation_names(tiny_attention_graph)
        assert counts.get("gelu", 0) >= 1
        assert counts.get("softmax", 0) >= 1


class TestReplace:
    def test_replaces_and_counts(self, tiny_attention_graph):
        approx = {"gelu": lambda x: x, "softmax": lambda x, axis=-1: x}
        new, n = replace_activations(tiny_attention_graph, approx)
        want = sum(collect_activation_names(tiny_attention_graph).values())
        assert n == want

    def test_original_graph_untouched(self, tiny_cnn_graph):
        approx = {"silu": lambda x: x}
        replace_activations(tiny_cnn_graph, approx)
        for node in tiny_cnn_graph.nodes:
            assert node.attrs.get("impl", "exact") == "exact"

    def test_changes_outputs(self, tiny_cnn_graph, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        base = compile_graph(tiny_cnn_graph).run({"x": x})
        new, _ = replace_activations(tiny_cnn_graph, {"silu": lambda v: v * 0.0})
        out = compile_graph(new).run({"x": x})
        key = tiny_cnn_graph.outputs[0]
        assert not np.allclose(base[key], out[key])

    def test_unmatched_functions_left_exact(self, tiny_cnn_graph):
        new, n = replace_activations(tiny_cnn_graph, {"gelu": lambda x: x})
        assert n == 0

    def test_restore_round_trip(self, tiny_cnn_graph, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        key = tiny_cnn_graph.outputs[0]
        base = compile_graph(tiny_cnn_graph).run({"x": x})[key]
        new, _ = replace_activations(tiny_cnn_graph, {"silu": lambda v: v * 0.0})
        restored = restore_exact_activations(new)
        got = compile_graph(restored).run({"x": x})[key]
        assert np.array_equal(got, base)


class TestMakeApproximators:
    def test_accuracy_improves_with_budget(self, tiny_cnn_graph, rng):
        x = rng.normal(size=(4, 3, 8, 8))
        key = tiny_cnn_graph.outputs[0]
        base = compile_graph(tiny_cnn_graph).run({"x": x})[key]
        errs = []
        for nbp in (4, 16):
            approx = make_pwl_approximators(["silu"], nbp)
            new, _ = replace_activations(tiny_cnn_graph, approx)
            out = compile_graph(new).run({"x": x})[key]
            errs.append(np.linalg.norm(out - base))
        assert errs[1] < errs[0]

    def test_softmax_entry_is_callable_with_axis(self, rng):
        approx = make_pwl_approximators(["softmax"], 8)
        x = rng.normal(size=(3, 6))
        out = approx["softmax"](x, axis=-1)
        assert np.allclose(out.sum(axis=-1), 1.0)
