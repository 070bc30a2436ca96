"""Unit tests for operator semantics and cost accounting."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.ops import CostRecord, get_op


def _run(op_name, inputs, **attrs):
    op = get_op(op_name)
    return op.execute(inputs, attrs)[0]


def _cost(op_name, in_shapes, out_shapes, **attrs):
    return get_op(op_name).cost(in_shapes, out_shapes, attrs)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(2 * 1 * 4 * 4, dtype=np.float64).reshape(2, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y = _run("conv2d", [x, w], stride=1, padding=1)
        assert np.array_equal(y, x)

    def test_matches_manual_convolution(self, rng):
        x = rng.normal(0, 1, size=(1, 2, 5, 5))
        w = rng.normal(0, 1, size=(3, 2, 3, 3))
        y = _run("conv2d", [x, w], stride=1, padding=0)
        assert y.shape == (1, 3, 3, 3)
        # Manual check of one output element.
        patch = x[0, :, 0:3, 0:3]
        assert y[0, 1, 0, 0] == pytest.approx(np.sum(patch * w[1]))

    def test_stride_and_padding_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        y = _run("conv2d", [x, w], stride=2, padding=1)
        assert y.shape == (2, 4, 4, 4)

    def test_depthwise_groups(self, rng):
        x = rng.normal(size=(1, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))
        y = _run("conv2d", [x, w], stride=1, padding=1, groups=4)
        # Each output channel depends only on its input channel.
        x2 = x.copy()
        x2[0, 0] += 100.0
        y2 = _run("conv2d", [x2, w], stride=1, padding=1, groups=4)
        assert np.allclose(y[0, 1:], y2[0, 1:])
        assert not np.allclose(y[0, 0], y2[0, 0])

    def test_bias_added(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(2, 1, 1, 1))
        b = np.array([10.0, -10.0])
        y = _run("conv2d", [x, w, b], stride=1, padding=0)
        y0 = _run("conv2d", [x, w], stride=1, padding=0)
        assert np.allclose(y - y0, b.reshape(1, 2, 1, 1))

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 4, 3, 3))
        with pytest.raises(GraphError):
            _run("conv2d", [x, w])

    def test_mac_count(self):
        cost = _cost("conv2d", [(1, 8, 8, 8), (16, 8, 3, 3)],
                     [(1, 16, 8, 8)], stride=1, padding=1)
        assert cost.macs == 16 * 8 * 8 * 8 * 3 * 3


def _reference_conv(x, w, b, stride, padding, groups):
    """Direct nested-loop convolution: one window sum per output."""
    n, c, h, width = x.shape
    c_out, c_in_g, kh, kw = w.shape
    per_group = c_out // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (width + 2 * padding - kw) // stride + 1
    out = np.empty((n, c_out, h_out, w_out))
    for s in range(n):
        for o in range(c_out):
            g = o // per_group
            for y in range(h_out):
                for z in range(w_out):
                    window = xp[s, g * c_in_g:(g + 1) * c_in_g,
                                y * stride:y * stride + kh,
                                z * stride:z * stride + kw]
                    out[s, o, y, z] = np.sum(window * w[o]) + \
                        (b[o] if b is not None else 0.0)
    return out


#: (groups, c_out) on 4 input channels: dense, grouped, depthwise and a
#: depthwise channel multiplier of 2.
_CONV_GROUPINGS = [(1, 6), (2, 6), (4, 4), (4, 8)]
_CONV_C = 4


def _conv_cases(rng, groups, c_out, kernel, stride):
    """Every padding x image size (odd, even) x bias x input layout
    (C-contiguous or a transposed view) for one conv configuration."""
    w = rng.normal(size=(c_out, _CONV_C // groups, kernel, kernel))
    for padding in (0, 1, 2):
        for size in (7, 8):
            for bias in (False, True):
                for transposed in (False, True):
                    b = rng.normal(size=c_out) if bias else None
                    attrs = dict(stride=stride, padding=padding,
                                 groups=groups)
                    yield size, transposed, w, b, attrs


def _conv_input(rng, n, size, transposed):
    if transposed:
        return rng.normal(size=(n, _CONV_C, size, size)).transpose(0, 1, 3, 2)
    return rng.normal(size=(n, _CONV_C, size, size))


def _conv(x, w, b, attrs):
    return _run("conv2d", [x, w] + ([b] if b is not None else []), **attrs)


_CONV_GRID = pytest.mark.parametrize(
    "groups,c_out,kernel,stride",
    [(g, co, k, s) for g, co in _CONV_GROUPINGS for k in (1, 3, 4)
     for s in (1, 2, 4)])


class TestConv2dPaths:
    """The dense, grouped, 1x1 and depthwise paths of conv2d against a
    direct reference, over padding, bias, image parity and layout."""

    @_CONV_GRID
    def test_matches_nested_loop_reference(self, rng, groups, c_out,
                                           kernel, stride):
        for size, transposed, w, b, attrs in _conv_cases(
                rng, groups, c_out, kernel, stride):
            x = _conv_input(rng, 2, size, transposed)
            assert x.flags.c_contiguous != transposed
            got = _conv(x, w, b, attrs)
            ref = _reference_conv(x, w, b, **attrs)
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @_CONV_GRID
    def test_sample_output_does_not_depend_on_its_batch(
            self, rng, groups, c_out, kernel, stride):
        for size, transposed, w, b, attrs in _conv_cases(
                rng, groups, c_out, kernel, stride):
            for n in (2, 3, 8):
                x = _conv_input(rng, n, size, transposed)
                batched = _conv(x, w, b, attrs)
                for i in range(n):
                    alone = _conv(x[i:i + 1], w, b, attrs)
                    assert np.array_equal(batched[i:i + 1], alone), (
                        f"sample {i} of {n} differs alone: size {size}, "
                        f"{attrs}")

    @_CONV_GRID
    def test_non_finite_input_stays_in_its_windows(
            self, rng, groups, c_out, kernel, stride):
        c_in_g, per_group = _CONV_C // groups, c_out // groups
        for size, transposed, w, b, attrs in _conv_cases(
                rng, groups, c_out, kernel, stride):
            pad = attrs["padding"]
            for ch, py, px in ((0, 0, 0), (_CONV_C - 1, size // 2, size - 1)):
                x = _conv_input(rng, 2, size, transposed)
                x[1, ch, py, px] = np.inf
                out = _conv(x, w, b, attrs)
                # First input row/column each output row/column reads.
                top = np.arange(out.shape[2])[:, None] * stride - pad
                left = np.arange(out.shape[3])[None, :] * stride - pad
                covers = ((top <= py) & (py < top + kernel)
                          & (left <= px) & (px < left + kernel))
                expected = np.zeros(out.shape, dtype=bool)
                for o in range(c_out):
                    if o // per_group == ch // c_in_g:
                        expected[1, o] = covers
                assert np.array_equal(~np.isfinite(out), expected), (
                    f"inf at {(ch, py, px)} leaked: size {size}, {attrs}")


class TestLinearMatmul:
    def test_linear(self, rng):
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        assert np.allclose(_run("linear", [x, w, b]), x @ w + b)

    def test_linear_on_3d_tensor(self, rng):
        x = rng.normal(size=(2, 7, 3))
        w = rng.normal(size=(3, 4))
        assert _run("linear", [x, w]).shape == (2, 7, 4)

    def test_matmul_batched(self, rng):
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        assert np.allclose(_run("matmul", [a, b]), a @ b)

    def test_matmul_macs(self):
        cost = _cost("matmul", [(2, 4, 8), (2, 8, 16)], [(2, 4, 16)])
        assert cost.macs == 2 * 4 * 16 * 8


class TestNorms:
    def test_batchnorm(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        scale = np.array([1.0, 2.0, 3.0])
        shift = np.array([0.0, 1.0, -1.0])
        y = _run("batchnorm", [x, scale, shift])
        assert np.allclose(y[:, 1], x[:, 1] * 2.0 + 1.0)

    def test_batchnorm_cost_is_fused_away(self):
        assert _cost("batchnorm", [(1, 3, 4, 4)], [(1, 3, 4, 4)]).vector_ops == 0

    def test_layernorm_normalizes(self, rng):
        x = rng.normal(5, 3, size=(4, 10))
        y = _run("layernorm", [x, np.ones(10), np.zeros(10)])
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


class TestPools:
    def test_maxpool(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = _run("maxpool2d", [x], kernel=2, stride=2)
        assert y[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_avgpool(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = _run("avgpool2d", [x], kernel=2, stride=2)
        assert y[0, 0, 0, 0] == pytest.approx(2.5)

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        y = _run("global_avgpool", [x])
        assert y.shape == (2, 3)
        assert np.allclose(y, x.mean(axis=(2, 3)))


class TestActivationNodes:
    def test_exact_impl(self, rng):
        x = rng.normal(size=(4, 4))
        y = _run("activation", [x], fn="tanh", impl="exact")
        assert np.allclose(y, np.tanh(x))

    def test_pwl_impl_uses_approximator(self, rng):
        x = rng.normal(size=(4, 4))
        y = _run("activation", [x], fn="tanh", impl="pwl",
                 approximator=lambda v: v * 0.5)
        assert np.allclose(y, x * 0.5)

    def test_pwl_without_approximator_raises(self, rng):
        with pytest.raises(GraphError):
            _run("activation", [rng.normal(size=(2,))], fn="tanh", impl="pwl")

    def test_activation_cost_labels_function(self):
        cost = _cost("activation", [(2, 8)], [(2, 8)], fn="silu")
        assert cost.act_elements == 16
        assert cost.act_fn == "silu"

    def test_softmax_exact(self, rng):
        from repro.functions.softmax import softmax

        x = rng.normal(size=(3, 5))
        y = _run("softmax", [x], axis=-1, impl="exact")
        assert np.allclose(y, softmax(x))

    def test_softmax_cost_splits_exp_and_vector(self):
        cost = _cost("softmax", [(2, 8)], [(2, 8)], axis=-1)
        assert cost.act_fn == "softmax"
        assert cost.act_elements == 16
        assert cost.vector_ops == 48


class TestPlumbing:
    def test_reshape_transpose_flatten(self, rng):
        x = rng.normal(size=(2, 3, 4))
        assert _run("reshape", [x], shape=(-1, 12)).shape == (2, 12)
        assert _run("transpose", [x], perm=(0, 2, 1)).shape == (2, 4, 3)
        assert _run("flatten", [x]).shape == (2, 12)

    def test_embedding(self, rng):
        table = rng.normal(size=(10, 4))
        ids = np.array([[1, 2], [9, 0]])
        y = _run("embedding", [ids, table])
        assert np.array_equal(y[0, 0], table[1])

    def test_plumbing_is_free(self):
        assert _cost("reshape", [(2, 8)], [(4, 4)], shape=(4, 4)).macs == 0
        assert _cost("embedding", [(2, 3), (10, 4)], [(2, 3, 4)]).vector_ops == 0

    def test_unknown_op(self):
        with pytest.raises(GraphError):
            get_op("teleport")


class TestCostRecord:
    def test_addition(self):
        a = CostRecord(macs=1, vector_ops=2, act_elements=3, act_fn="silu")
        b = CostRecord(macs=10, vector_ops=20, act_elements=30)
        c = a + b
        assert (c.macs, c.vector_ops, c.act_elements) == (11, 22, 33)
        assert c.act_fn == "silu"
