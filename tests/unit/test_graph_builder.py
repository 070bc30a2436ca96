"""Unit tests for the GraphBuilder API."""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.program import compile_graph


class TestNaming:
    def test_fresh_names_unique(self):
        g = GraphBuilder("t")
        names = {g.fresh("x") for _ in range(100)}
        assert len(names) == 100

    def test_graph_validates_after_build(self):
        g = GraphBuilder("t", seed=0)
        x = g.input("x", (0, 4))
        y = g.linear(x, 4, 2)
        g.graph.outputs = [y]
        g.graph.validate()


class TestLayers:
    def _run(self, build):
        g = GraphBuilder("t", seed=1)
        x = g.input("x", (0, 2, 8, 8))
        out = build(g, x)
        g.graph.outputs = [out]
        prog = compile_graph(g.graph)
        data = np.random.default_rng(0).normal(size=(3, 2, 8, 8))
        return prog.run({"x": data})[out]

    def test_conv_defaults_same_padding(self):
        out = self._run(lambda g, x: g.conv2d(x, 2, 5))
        assert out.shape == (3, 5, 8, 8)

    def test_conv_stride(self):
        out = self._run(lambda g, x: g.conv2d(x, 2, 5, stride=2))
        assert out.shape == (3, 5, 4, 4)

    def test_conv_no_bias_has_two_inputs(self):
        g = GraphBuilder("t")
        x = g.input("x", (0, 2, 8, 8))
        g.conv2d(x, 2, 4, bias=False)
        conv = g.graph.nodes_by_type("conv2d")[0]
        assert len(conv.inputs) == 2

    def test_weight_scales_he_init(self):
        g = GraphBuilder("t", seed=0)
        name = g.weight("w", (64, 64, 3, 3), scale=np.sqrt(2.0 / (64 * 9)))
        w = g.graph.initializers[name]
        assert w.std() == pytest.approx(np.sqrt(2.0 / 576), rel=0.1)

    def test_batchnorm_scale_near_one(self):
        g = GraphBuilder("t", seed=0)
        x = g.input("x", (0, 16, 4, 4))
        g.batchnorm(x, 16)
        scales = [v for k, v in g.graph.initializers.items()
                  if "bn_scale" in k][0]
        assert np.all(np.abs(scales - 1.0) < 0.6)

    def test_maxpool_and_gap(self):
        out = self._run(lambda g, x: g.global_avgpool(g.maxpool(x)))
        assert out.shape == (3, 2)

    def test_residual_add_same_shape(self):
        def build(g, x):
            y = g.conv2d(x, 2, 2)
            return g.add(x, y)
        assert self._run(build).shape == (3, 2, 8, 8)

    def test_linear_on_features(self):
        def build(g, x):
            f = g.flatten(x)
            return g.linear(f, 2 * 8 * 8, 10)
        assert self._run(build).shape == (3, 10)

    def test_softmax_rows_normalised(self):
        def build(g, x):
            f = g.flatten(x)
            f = g.linear(f, 128, 6)
            return g.softmax(f)
        out = self._run(build)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_embedding_path(self):
        g = GraphBuilder("t", seed=2)
        ids = g.input("ids", (0, 5))
        e = g.embedding(ids, vocab=11, dim=7)
        pooled = g.mean_pool_seq(e)
        g.graph.outputs = [pooled]
        out = compile_graph(g.graph).run(
            {"ids": np.array([[0, 1, 2, 3, 10]])})[pooled]
        assert out.shape == (1, 7)

    def test_seed_reproducibility(self):
        a = GraphBuilder("t", seed=9)
        b = GraphBuilder("t", seed=9)
        wa = a.weight("w", (4, 4), 1.0)
        wb = b.weight("w", (4, 4), 1.0)
        assert np.array_equal(a.graph.initializers[wa],
                              b.graph.initializers[wb])
