"""Unit tests for the graph IR."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.ir import Graph, Node


def _diamond_graph():
    g = Graph(name="diamond")
    g.inputs.append(("x", (0, 4)))
    g.add_node(Node("linear", ["x", "w1"], ["a"]))
    g.add_node(Node("linear", ["x", "w2"], ["b"]))
    g.add_node(Node("add", ["a", "b"], ["y"]))
    g.add_initializer("w1", np.eye(4))
    g.add_initializer("w2", np.eye(4))
    g.outputs.append("y")
    return g


class TestStructure:
    def test_topological_order(self):
        g = _diamond_graph()
        order = [n.outputs[0] for n in g.topological_order()]
        assert order.index("y") > order.index("a")
        assert order.index("y") > order.index("b")

    def test_topological_order_detects_missing_value(self):
        g = _diamond_graph()
        g.add_node(Node("add", ["y", "ghost"], ["z"]))
        g.outputs.append("z")
        with pytest.raises(GraphError):
            g.topological_order()

    def test_duplicate_producer_rejected(self):
        g = _diamond_graph()
        g.add_node(Node("add", ["a", "b"], ["y"]))
        with pytest.raises(GraphError):
            g.producers()

    def test_duplicate_initializer_rejected(self):
        g = _diamond_graph()
        with pytest.raises(GraphError):
            g.add_initializer("w1", np.zeros(2))

    def test_validate_checks_outputs(self):
        g = _diamond_graph()
        g.outputs.append("phantom")
        with pytest.raises(GraphError):
            g.validate()

    def test_node_requires_outputs(self):
        with pytest.raises(GraphError):
            Node("add", ["a"], [])

    def test_nodes_by_type(self):
        g = _diamond_graph()
        assert len(g.nodes_by_type("linear")) == 2
        assert len(g.nodes_by_type("conv2d")) == 0


class TestClone:
    def test_clone_is_deep_for_structure(self):
        g = _diamond_graph()
        c = g.clone()
        c.nodes[0].attrs["tag"] = 1
        assert "tag" not in g.nodes[0].attrs

    def test_clone_preserves_behaviourally(self):
        from repro.graph.program import compile_graph

        g = _diamond_graph()
        x = np.arange(8.0).reshape(2, 4)
        y1 = compile_graph(g).run({"x": x})["y"]
        y2 = compile_graph(g.clone()).run({"x": x})["y"]
        assert np.array_equal(y1, y2)
