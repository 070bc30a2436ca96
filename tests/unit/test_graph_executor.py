"""Unit tests for running and profiling compiled programs."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.ir import Graph, Node
from repro.graph.program import compile_graph


class TestRun:
    def test_tiny_cnn_shapes(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        x = rng.normal(size=(3, 3, 8, 8))
        out = prog.run({"x": x})
        (name,) = tiny_cnn_graph.outputs
        assert out[name].shape == (3, 4)

    def test_missing_input_raises(self, tiny_cnn_graph):
        with pytest.raises(GraphError):
            compile_graph(tiny_cnn_graph).run({})

    def test_wrong_shape_raises(self, tiny_cnn_graph, rng):
        with pytest.raises(GraphError):
            compile_graph(tiny_cnn_graph).run({"x": rng.normal(size=(1, 3, 9, 9))})

    def test_batch_dimension_free(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        for batch in (1, 2, 7):
            out = prog.run({"x": rng.normal(size=(batch, 3, 8, 8))})
            assert out[tiny_cnn_graph.outputs[0]].shape[0] == batch

    def test_deterministic(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        x = rng.normal(size=(2, 3, 8, 8))
        a = prog.run({"x": x})[tiny_cnn_graph.outputs[0]]
        b = prog.run({"x": x})[tiny_cnn_graph.outputs[0]]
        assert np.array_equal(a, b)

    def test_attention_graph_runs(self, tiny_attention_graph, rng):
        prog = compile_graph(tiny_attention_graph)
        out = prog.run({"x": rng.normal(size=(2, 3, 8, 8))})
        feats = out[tiny_attention_graph.outputs[0]]
        assert feats.ndim == 2 and feats.shape[0] == 2

    def test_output_count_mismatch_detected(self):
        g = Graph(name="bad")
        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("add", ["x", "x"], ["y", "z"]))
        g.outputs.append("y")
        with pytest.raises(GraphError):
            compile_graph(g).run({"x": np.zeros((1, 2))})


class TestErrorPaths:
    @staticmethod
    def _two_input_graph():
        g = Graph(name="pair")
        g.inputs.append(("a", (0, 3)))
        g.inputs.append(("b", (0, 3)))
        g.add_node(Node("add", ["a", "b"], ["y"]))
        g.outputs.append("y")
        return g

    def test_batch_dim_mismatch_across_inputs(self):
        g = self._two_input_graph()
        with pytest.raises(GraphError, match="batch-dim mismatch"):
            compile_graph(g).run({"a": np.zeros((2, 3)), "b": np.zeros((4, 3))})

    def test_consistent_batch_accepted(self):
        g = self._two_input_graph()
        out = compile_graph(g).run({"a": np.ones((2, 3)), "b": np.ones((2, 3))})
        assert out["y"].shape == (2, 3)

    def test_missing_feed_names_the_input(self):
        g = self._two_input_graph()
        with pytest.raises(GraphError, match="missing graph input 'b'"):
            compile_graph(g).run({"a": np.zeros((1, 3))})

    def test_arity_mismatch_names_the_node(self):
        g = Graph(name="bad")
        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("add", ["x", "x"], ["y", "z"], name="offender"))
        g.outputs.append("y")
        with pytest.raises(GraphError, match="offender"):
            compile_graph(g).run({"x": np.zeros((1, 2))})

    def test_validate_rejects_cycle(self):
        g = Graph(name="cyclic")
        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("add", ["x", "b"], ["a"]))
        g.add_node(Node("add", ["a", "x"], ["b"]))
        g.outputs.append("b")
        with pytest.raises(GraphError, match="cycle or missing"):
            g.validate()
        with pytest.raises(GraphError):
            compile_graph(g)

    def test_validate_rejects_unproduced_output(self):
        g = Graph(name="dangling")
        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("add", ["x", "x"], ["y"]))
        g.outputs.append("ghost")
        with pytest.raises(GraphError, match="never produced"):
            g.validate()


class TestProfile:
    def test_profile_counts_macs(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        _, prof = prog.run_profiled({"x": rng.normal(size=(1, 3, 8, 8))})
        # conv 3->8 3x3 on 8x8 + fc 8->4.
        assert prof.total_macs == 8 * 8 * 8 * 3 * 9 + 8 * 4

    def test_profile_activation_split(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        _, prof = prog.run_profiled({"x": rng.normal(size=(1, 3, 8, 8))})
        by_fn = prof.act_elements_by_fn()
        assert by_fn == {"silu": 8 * 8 * 8}
        assert prof.dominant_activation() == "silu"

    def test_attention_profile_has_softmax(self, tiny_attention_graph, rng):
        prog = compile_graph(tiny_attention_graph)
        _, prof = prog.run_profiled({"x": rng.normal(size=(1, 3, 8, 8))})
        by_fn = prof.act_elements_by_fn()
        assert "softmax" in by_fn
        assert "gelu" in by_fn

    def test_node_profiles_cover_all_nodes(self, tiny_cnn_graph, rng):
        prog = compile_graph(tiny_cnn_graph)
        _, prof = prog.run_profiled({"x": rng.normal(size=(1, 3, 8, 8))})
        assert len(prof.nodes) == len(tiny_cnn_graph.nodes)

    def test_empty_activation_graph(self):
        g = Graph(name="lin")
        g.inputs.append(("x", (0, 2)))
        g.add_node(Node("add", ["x", "x"], ["y"]))
        g.outputs.append("y")
        _, prof = compile_graph(g).run_profiled({"x": np.zeros((1, 2))})
        assert prof.dominant_activation() == ""
        assert prof.total_act_elements == 0
